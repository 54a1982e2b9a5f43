"""Incremental maintenance of count-stable summaries under updates.

The paper builds its summaries offline; a production deployment also needs
to keep them fresh as the document changes.  Count stability localizes the
work nicely: an element's class depends only on its label and its
children's classes, so inserting or deleting a sub-tree can only change
the classes of the edited node's *ancestors* -- a root path of length at
most the document height -- plus a bottom-up classification of the
inserted sub-tree itself.

:class:`StableMaintainer` owns a mutable document and its evolving
summary:

* ``insert_subtree(parent, spec)`` attaches a new sub-tree (given in the
  nested-tuple format of ``XMLTree.from_nested``) and updates classes;
* ``delete_subtree(node)`` detaches a sub-tree and updates classes;
* ``summary()`` exports a regular :class:`StableSummary`, identical (up
  to class renaming) to a from-scratch ``build_stable`` of the current
  document -- the equivalence the test suite checks after random edit
  sequences.

The structural edit itself goes through the document
(:meth:`XMLTree.insert_subtree` / :meth:`XMLTree.delete_subtree`), which
keeps its own label index current, so ``tree.node_at(label, ordinal)``
resolves the wire's node address after every edit.

Cost per edit: O(|edited sub-tree| + height * max fan-out) hash
operations to reclassify, plus the document's label-index upkeep (one
binary search and one slice edit per label in the edited sub-tree) --
versus O(|document|) for a rebuild or an addressing scan.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

from repro.core.stable import StableSummary
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree, build_nested

Signature = Tuple[str, Tuple[Tuple[int, int], ...]]


class StableMaintainer:
    """Maintains the count-stable summary of a mutable document."""

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        # Signature interning: signature -> class id (ids never reused).
        self._classes: Dict[Signature, int] = {}
        self._signature_of: Dict[int, Signature] = {}
        self._count: Dict[int, int] = {}
        self._next_cid = 0
        # Per-node class assignment, keyed by object identity.
        self._class_of: Dict[int, int] = {}
        self.edits_applied = 0
        # Optional per-class net count deltas since the last drain; enabled
        # by track_deltas() so synopsis-layer consumers (repro.core.live)
        # can reconcile without diffing whole summaries.  None = disabled.
        self._deltas: Optional[Dict[int, int]] = None
        # Optional per-node value moves (value, old_cid, new_cid) for
        # maintaining per-class value statistics; None = disabled.
        self._value_moves: Optional[List[Tuple[str, Optional[int], Optional[int]]]] = None

        for node in tree.root.iter_postorder():
            self._assign(node)

    # ------------------------------------------------------------------
    # Classification primitives
    # ------------------------------------------------------------------

    def _signature(self, node: XMLNode) -> Signature:
        counts: Counter = Counter(self._class_of[id(c)] for c in node.children)
        return (node.label, tuple(sorted(counts.items())))

    def _intern(self, signature: Signature) -> int:
        cid = self._classes.get(signature)
        if cid is None:
            cid = self._next_cid
            self._next_cid += 1
            self._classes[signature] = cid
            self._signature_of[cid] = signature
            self._count[cid] = 0
        return cid

    def _assign(self, node: XMLNode) -> int:
        """(Re)compute and record the class of one node."""
        signature = self._signature(node)
        cid = self._intern(signature)
        old = self._class_of.get(id(node))
        if old == cid:
            return cid
        if old is not None:
            self._release(old)
        self._class_of[id(node)] = cid
        self._count[cid] += 1
        self._record(cid, +1)
        if self._value_moves is not None and node.value is not None:
            self._value_moves.append((node.value, old, cid))
        return cid

    def _record(self, cid: int, delta: int) -> None:
        if self._deltas is not None:
            self._deltas[cid] = self._deltas.get(cid, 0) + delta

    def _release(self, cid: int) -> None:
        self._count[cid] -= 1
        self._record(cid, -1)
        if self._count[cid] == 0:
            # Garbage-collect the empty class so the summary stays minimal.
            del self._count[cid]
            signature = self._signature_of.pop(cid)
            del self._classes[signature]

    def _drop_node(self, node: XMLNode) -> None:
        cid = self._class_of.pop(id(node))
        self._release(cid)
        if self._value_moves is not None and node.value is not None:
            self._value_moves.append((node.value, cid, None))

    def _reclassify_ancestors(self, node: Optional[XMLNode]) -> None:
        """Refresh classes from ``node`` up to the root."""
        while node is not None:
            before = self._class_of.get(id(node))
            after = self._assign(node)
            if before == after:
                break  # signature unchanged; ancestors cannot change either
            node = node.parent

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------

    def insert_subtree(
        self, parent: XMLNode, spec: Union[str, tuple, XMLNode]
    ) -> XMLNode:
        """Attach a sub-tree under ``parent`` and update the summary.

        ``spec`` is a label, a nested ``(label, [children])`` tuple, or a
        detached :class:`XMLNode`.  Returns the inserted root node.
        """
        node = spec if isinstance(spec, XMLNode) else build_nested(spec)
        self.tree.insert_subtree(parent, node)
        for descendant in node.iter_postorder():
            self._assign(descendant)
        self._reclassify_ancestors(parent)
        self.edits_applied += 1
        return node

    def delete_subtree(self, node: XMLNode) -> None:
        """Detach ``node`` (and its sub-tree) and update the summary."""
        parent = node.parent
        self.tree.delete_subtree(node)
        for descendant in node.iter_postorder():
            self._drop_node(descendant)
        self._reclassify_ancestors(parent)
        self.edits_applied += 1

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self._count)

    def summary(self) -> StableSummary:
        """Materialize the current count-stable summary.

        Node ids are the maintainer's class ids (stable across edits for
        surviving classes).  Depth per class is derived from the class DAG
        -- all elements of a class have isomorphic sub-trees, so the class
        depth is exact.
        """
        summary = StableSummary()
        for cid, count in self._count.items():
            label, child_counts = self._signature_of[cid]
            summary.add_node(cid, label, count)
            for child_cid, k in child_counts:
                summary.add_edge(cid, child_cid, k)

        depth: Dict[int, int] = {}
        order = summary.topological_order()
        if order is None:  # pragma: no cover - class DAGs are always acyclic
            raise AssertionError("count-stable class graph must be acyclic")
        for cid in reversed(order):
            children = summary.out.get(cid, {})
            depth[cid] = 1 + max((depth[c] for c in children), default=-1)
        summary.depth = depth

        root_cid = self._class_of[id(self.tree.root)]
        summary.root_id = root_cid
        summary.doc_height = depth[root_cid]
        return summary

    def class_of(self, node: XMLNode) -> int:
        """Current class id of a tracked node."""
        return self._class_of[id(node)]

    # ------------------------------------------------------------------
    # Delta tracking (for incremental synopsis maintenance)
    # ------------------------------------------------------------------

    def track_deltas(self) -> None:
        """Start recording per-class net count deltas.

        After this call, every class count change is accumulated into a
        delta map that :meth:`drain_deltas` returns and clears.  A class
        that is born and dies within one window nets to a zero entry; a
        consumer distinguishes births/deaths by whether the class id is
        still alive (:meth:`count_of` is not None).
        """
        if self._deltas is None:
            self._deltas = {}

    def drain_deltas(self) -> Dict[int, int]:
        """Return and clear the accumulated per-class count deltas."""
        if self._deltas is None:
            raise RuntimeError("track_deltas() was never enabled")
        deltas = self._deltas
        self._deltas = {}
        return deltas

    def track_value_moves(self) -> None:
        """Also record per-node value moves ``(value, old_cid, new_cid)``.

        ``old_cid`` is None for nodes entering the document, ``new_cid``
        None for nodes leaving it; reclassified nodes carry both.  Drained
        (and cleared) by :meth:`drain_value_moves`.
        """
        if self._value_moves is None:
            self._value_moves = []

    def drain_value_moves(self) -> List[Tuple[str, Optional[int], Optional[int]]]:
        """Return and clear the accumulated value moves."""
        if self._value_moves is None:
            raise RuntimeError("track_value_moves() was never enabled")
        moves = self._value_moves
        self._value_moves = []
        return moves

    def count_of(self, cid: int) -> Optional[int]:
        """Current element count of a class, or None if it is dead."""
        return self._count.get(cid)

    def signature_of(self, cid: int) -> Signature:
        """Interned signature ``(label, ((child_cid, k), ...))`` of a live
        class.  Immutable for the lifetime of the class id."""
        return self._signature_of[cid]

