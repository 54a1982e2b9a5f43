"""The XML document tree with structural indexes.

:class:`XMLTree` wraps a root :class:`~repro.xmltree.node.XMLNode` and
maintains the indexes the rest of the library needs:

* a label index mapping each tag to its nodes in document order, which
  resolves the wire's node address (:meth:`XMLTree.node_at`);
* pre-order oids (``node.oid``), so nodes can be referenced compactly;
* per-node sub-tree sizes, so a sub-tree is a contiguous oid interval and
  ancestor/descendant tests are O(1);
* per-label oid lists, which the exact query engine uses for fast
  ``//label`` matching;
* per-node level and sub-tree depth (longest downward path), needed by
  CREATEPOOL and by the ESD metric's missing-sub-tree penalty.

:meth:`XMLTree.insert_subtree` and :meth:`XMLTree.delete_subtree` edit the
document in place.  They keep the label index current: an edited
sub-tree's nodes of one label are contiguous in document order, so each
label costs one binary search (O(log n) position comparisons by ancestor
path, each O(height), after one O(fan-out) pass over the siblings at each
ancestor the search meets) and one slice insert or delete.  An edit
renumbers every later node, so the oid-numbered indexes (everything else
above) are not patched: they carry the edit count they were built at and
are rebuilt, in O(|document|), on the first read after an edit
(:meth:`XMLTree.refresh`).
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.xmltree.node import XMLNode


class XMLTree:
    """A node-labeled document tree ``T(V, E)`` (paper Section 2)."""

    def __init__(self, root: XMLNode) -> None:
        if root is None:
            raise ValueError("XMLTree requires a root node")
        self.root = root
        self._edits = 0
        self.reindex()

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------

    def reindex(self) -> None:
        """Rebuild every index from a scan of the current tree.

        Needed only after a structural change made by other means than
        :meth:`insert_subtree` and :meth:`delete_subtree`; all factory
        functions in this package index their trees.
        """
        self._index_oids()
        by_label: Dict[str, List[XMLNode]] = {}
        for node in self._nodes:
            by_label.setdefault(node.label, []).append(node)
        self._by_label = by_label

    def _index_oids(self) -> None:
        """(Re)assign oids in pre-order and rebuild the indexes they number."""
        nodes: List[XMLNode] = []
        for node in self.root.iter_preorder():
            node.oid = len(nodes)
            nodes.append(node)
        n = len(nodes)
        level = [0] * n
        for node in islice(nodes, 1, None):
            level[node.oid] = level[node.parent.oid] + 1
        # Reversed pre-order reaches every node after all its descendants.
        size = [1] * n
        depth_below = [0] * n
        for oid in range(n - 1, 0, -1):
            parent = nodes[oid].parent.oid
            size[parent] += size[oid]
            if depth_below[parent] <= depth_below[oid]:
                depth_below[parent] = depth_below[oid] + 1
        self._nodes = nodes
        self._level = level
        self._size = size
        self._depth_below = depth_below
        self._oids: Dict[str, List[int]] = {}
        self._indexed = self._edits

    def refresh(self) -> None:
        """Rebuild the oid-numbered indexes, ``node.oid`` included, if an
        edit made them stale.  Every accessor below calls it; code that
        reads ``node.oid`` directly calls it first."""
        if self._indexed != self._edits:
            self._index_oids()

    # ------------------------------------------------------------------
    # In-place edits
    # ------------------------------------------------------------------

    def insert_subtree(self, parent: XMLNode, node: XMLNode) -> XMLNode:
        """Attach the detached sub-tree ``node`` as ``parent``'s last child.

        ``parent`` must be in this document.  Returns ``node``.
        """
        if node.parent is not None or node is self.root:
            raise ValueError("node is already in a document")
        self._require_member(parent)
        parent.add_child(node)
        precedes = _precedes(node)
        for label, run in _group_by_label(node).items():
            nodes = self._by_label.setdefault(label, [])
            at = _search(nodes, precedes)
            nodes[at:at] = run
        self._edits += 1
        return node

    def delete_subtree(self, node: XMLNode) -> None:
        """Detach ``node`` and its sub-tree from this document."""
        self._require_member(node)
        parent = node.parent
        if parent is None:
            raise ValueError("cannot delete the document root")
        # Located while ``node`` is still attached: positions are compared
        # along its root path.  Each label's run is then one slice delete.
        precedes = _precedes(node)
        for label, run in _group_by_label(node).items():
            nodes = self._by_label[label]
            at = _search(nodes, precedes)
            del nodes[at:at + len(run)]
            if not nodes:
                del self._by_label[label]
        parent.children.remove(node)
        node.parent = None
        self._edits += 1

    def _require_member(self, node: XMLNode) -> None:
        """ValueError unless ``node``'s root path ends at this root."""
        while node.parent is not None:
            node = node.parent
        if node is not self.root:
            raise ValueError("node is not in this document")

    # ------------------------------------------------------------------
    # Label index (always current)
    # ------------------------------------------------------------------

    @property
    def labels(self) -> List[str]:
        """Sorted list of distinct labels in the document."""
        return sorted(self._by_label)

    def nodes_with_label(self, label: str) -> List[XMLNode]:
        """All nodes with a given label, in document order."""
        return list(self._by_label.get(label, ()))

    def node_at(self, label: str, ordinal: int) -> Optional[XMLNode]:
        """The ``ordinal``-th node labeled ``label`` in document order (the
        wire's node address), or None when there is no such node
        (including ``ordinal < 0``)."""
        nodes = self._by_label.get(label, ())
        return nodes[ordinal] if 0 <= ordinal < len(nodes) else None

    def ordinal_of(self, node: XMLNode) -> int:
        """The ordinal that :meth:`node_at` resolves to ``node``, which
        must be in this document (ValueError otherwise)."""
        self._require_member(node)
        return _search(self._by_label[node.label], _precedes(node))

    # ------------------------------------------------------------------
    # Oid-numbered indexes (rebuilt on the first read after an edit)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        self.refresh()
        return len(self._nodes)

    def __iter__(self) -> Iterator[XMLNode]:
        self.refresh()
        return iter(self._nodes)

    def node(self, oid: int) -> XMLNode:
        """Return the node with the given pre-order oid."""
        self.refresh()
        return self._nodes[oid]

    @property
    def nodes(self) -> Sequence[XMLNode]:
        """All nodes in pre-order."""
        self.refresh()
        return self._nodes

    def oids_with_label(self, label: str) -> List[int]:
        """Pre-order oids of all nodes with a given label (sorted)."""
        self.refresh()
        oids = self._oids
        if label not in oids:
            oids[label] = [node.oid for node in self._by_label.get(label, ())]
        return oids[label]

    def depth_below(self, node: XMLNode) -> int:
        """Longest downward path from ``node`` to a leaf (paper's depth)."""
        self.refresh()
        return self._depth_below[node.oid]

    def level(self, node: XMLNode) -> int:
        """Distance from the root (the root has level 0)."""
        self.refresh()
        return self._level[node.oid]

    @property
    def height(self) -> int:
        """Height of the document: the root's depth-below value."""
        self.refresh()
        return self._depth_below[0]

    def is_ancestor(self, anc: XMLNode, desc: XMLNode) -> bool:
        """True iff ``anc`` is a proper ancestor of ``desc``.

        Oids are assigned in pre-order, so ``anc``'s proper descendants
        are exactly the oids after it and inside its sub-tree size.
        """
        self.refresh()
        return anc.oid < desc.oid < anc.oid + self._size[anc.oid]

    def descendant_oid_range(self, node: XMLNode) -> range:
        """Pre-order oid range covering ``node``'s proper descendants."""
        self.refresh()
        return range(node.oid + 1, node.oid + self._size[node.oid])

    def subtree_size(self, node: XMLNode) -> int:
        """Number of nodes in the sub-tree rooted at ``node``."""
        self.refresh()
        return self._size[node.oid]

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_nested(spec) -> "XMLTree":
        """Build a tree from a nested ``(label, [children...])`` spec.

        A spec is either a plain string label (a leaf) or a tuple/list
        ``(label, [child_spec, ...])``.  Handy for tests and examples::

            XMLTree.from_nested(("r", ["a", ("b", ["c", "c"])]))
        """
        return XMLTree(build_nested(spec))

    def copy(self) -> "XMLTree":
        """Deep-copy the tree (fresh nodes with the same labels and
        values, fresh indexes)."""
        clones: Dict[int, XMLNode] = {}
        for node in self.root.iter_preorder():
            clone = clones[id(node)] = XMLNode(node.label, value=node.value)
            if node is not self.root:
                clones[id(node.parent)].add_child(clone)
        return XMLTree(clones[id(self.root)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLTree(root={self.root.label!r}, nodes={len(self)})"


def build_nested(spec) -> XMLNode:
    """A detached sub-tree from a nested ``(label, [children...])`` spec
    (see :meth:`XMLTree.from_nested`)."""
    if isinstance(spec, str):
        return XMLNode(spec)
    label, children = spec
    node = XMLNode(label)
    for child_spec in children:
        node.add_child(build_nested(child_spec))
    return node


def _group_by_label(root: XMLNode) -> Dict[str, List[XMLNode]]:
    """``root``'s sub-tree as label -> nodes, each list in pre-order."""
    groups: Dict[str, List[XMLNode]] = {}
    for node in root.iter_preorder():
        groups.setdefault(node.label, []).append(node)
    return groups


def _precedes(target: XMLNode) -> Callable[[XMLNode], bool]:
    """A test ``x -> x comes before target in document pre-order``.

    ``x`` must be attached to ``target``'s document.  Positions are
    compared by ancestor path: ``x`` climbs until it meets ``target``'s
    root path.  Meeting ``target`` itself means ``x`` lies in its
    sub-tree (not before); a proper ancestor of ``target`` precedes it;
    otherwise the common ancestor's two branches decide by sibling order.
    The siblings before ``target``'s branch are collected at most once
    per ancestor, so a binary search pays one O(fan-out) pass per
    ancestor it meets and O(height) per comparison.
    """
    toward: Dict[int, Optional[XMLNode]] = {id(target): None}
    node = target
    while node.parent is not None:
        toward[id(node.parent)] = node
        node = node.parent
    earlier: Dict[int, Set[int]] = {}

    def precedes(x: XMLNode) -> bool:
        branch = None
        while id(x) not in toward:
            branch, x = x, x.parent
        own = toward[id(x)]
        if own is None:
            return False
        if branch is None:
            return True
        before = earlier.get(id(x))
        if before is None:
            children = x.children
            before = earlier[id(x)] = set(
                map(id, children[:children.index(own)]))
        return id(branch) in before

    return precedes


def _search(nodes: List[XMLNode], precedes: Callable[[XMLNode], bool]) -> int:
    """Index of the first node in the document-ordered ``nodes`` that
    does not satisfy ``precedes`` (``bisect_left`` with a predicate)."""
    lo, hi = 0, len(nodes)
    while lo < hi:
        mid = (lo + hi) // 2
        if precedes(nodes[mid]):
            lo = mid + 1
        else:
            hi = mid
    return lo
