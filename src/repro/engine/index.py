"""Structural indexes used by the exact query engine.

The engine needs two primitives per axis step:

* children of ``e`` with label ``l`` -- answered by scanning ``e.children``
  (document fan-outs are modest);
* proper descendants of ``e`` with label ``l`` -- answered in
  O(log n + answers) using the fact that oids are assigned in pre-order, so
  a sub-tree is a contiguous oid interval and the per-label oid lists are
  sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

from repro.query.path import WILDCARD
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


class DocumentIndex:
    """Label + interval index over one document tree.

    It reads the tree's own indexes on every call, so an edit made
    through the tree never leaves it stale.
    """

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree

    def children_with_label(self, node: XMLNode, label: str) -> List[XMLNode]:
        """Direct children of ``node`` matching ``label`` (doc order)."""
        if label == WILDCARD:
            return list(node.children)
        return [c for c in node.children if c.label == label]

    def descendants_with_label(self, node: XMLNode, label: str) -> List[XMLNode]:
        """Proper descendants of ``node`` matching ``label`` (doc order)."""
        span = self.tree.descendant_oid_range(node)
        nodes = self.tree.nodes
        if label == WILDCARD:
            return nodes[span.start:span.stop]
        oids = self.tree.oids_with_label(label)
        start = bisect_left(oids, span.start)
        end = bisect_left(oids, span.stop, start)
        return [nodes[oid] for oid in oids[start:end]]

    def count_descendants_with_label(self, node: XMLNode, label: str) -> int:
        """Number of proper descendants of ``node`` matching ``label``."""
        span = self.tree.descendant_oid_range(node)
        if label == WILDCARD:
            return len(span)
        oids = self.tree.oids_with_label(label)
        return bisect_left(oids, span.stop) - bisect_left(oids, span.start)
