"""Node-labeled XML tree substrate.

This package implements the paper's data model (Section 2): an XML document
is a large node-labeled tree ``T(V, E)``; each node carries a unique object
identifier (oid) and a string label (tag).  The package provides:

* :class:`~repro.xmltree.node.XMLNode` -- a single element node.
* :class:`~repro.xmltree.tree.XMLTree` -- the document tree, with pre-order
  oids, label indexes, sub-tree intervals for fast ancestor/descendant
  tests, and in-place sub-tree edits that keep the label index current;
  :func:`~repro.xmltree.tree.build_nested` builds a sub-tree from a nested
  ``(label, [children...])`` spec.
* :mod:`~repro.xmltree.parser` -- parsing from XML text (via the stdlib
  ``xml.etree.ElementTree``) and from a compact native text form.
* :mod:`~repro.xmltree.serialize` -- serialization back to XML text and to
  the native form.
* :mod:`~repro.xmltree.stats` -- structural statistics (fan-out
  distributions, label histograms, depth profiles) used by the experiment
  harness.
"""

from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree, build_nested
from repro.xmltree.parser import parse_xml, parse_compact, from_etree
from repro.xmltree.serialize import to_xml, to_compact, to_etree
from repro.xmltree.stats import TreeStats, compute_stats

__all__ = [
    "XMLNode",
    "XMLTree",
    "build_nested",
    "parse_xml",
    "parse_compact",
    "from_etree",
    "to_xml",
    "to_compact",
    "to_etree",
    "TreeStats",
    "compute_stats",
]
