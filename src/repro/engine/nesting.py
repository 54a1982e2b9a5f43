"""Nesting trees: the structured result of a twig query (paper Fig. 2(c)).

A nesting tree ``NT(Q)`` contains every document element that appears in a
binding of some query variable, nested according to the ancestor/descendant
relationships the query paths impose.  It is sufficient to reconstruct the
full set of binding tuples (and hence the query's selectivity), and it is
the object the ESD error metric compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.query.twig import QueryNode, TwigQuery


@dataclass
class NTNode:
    """One occurrence of a document element in the nesting tree.

    ``oid`` is the document element's oid (or -1 for synthetic nodes created
    when expanding approximate answers), ``label`` its tag, and ``qvar`` the
    query variable it is bound to.  The same document element may occur
    several times, bound to different variables or under different parent
    occurrences.
    """

    label: str
    qvar: str
    oid: int = -1
    children: List["NTNode"] = field(default_factory=list)

    def add(self, child: "NTNode") -> "NTNode":
        self.children.append(child)
        return child

    def subtree_size(self) -> int:
        total = 0
        stack = [self]
        while stack:
            node = stack.pop()
            total += 1
            stack.extend(node.children)
        return total


class NestingTree:
    """The nesting tree of a twig query over a document (or synopsis)."""

    def __init__(self, root: NTNode, query: TwigQuery) -> None:
        self.root = root
        self.query = query

    def size(self) -> int:
        """Number of element occurrences in the nesting tree."""
        return self.root.subtree_size()

    def binding_tuple_count(self) -> int:
        """Number of binding tuples the nesting tree encodes.

        Computed by dynamic programming without materializing tuples: for an
        occurrence ``x`` bound to variable ``q``, the tuples rooted at ``x``
        multiply across ``q``'s child variables; a solid (non-optional)
        child with no occurrences nullifies ``x`` (this cannot happen for a
        correctly-built exact nesting tree), while an empty optional child
        contributes the single "null" binding (factor 1).
        """
        qnode_of = {n.var: n for n in self.query.nodes}
        return _tuples(self.root, qnode_of[self.root.qvar], qnode_of)

    def is_empty(self) -> bool:
        """True iff the query had no bindings (root-only tree)."""
        return not self.root.children and bool(self.query.root.children)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NestingTree(size={self.size()}, tuples~{self.binding_tuple_count()})"


def _tuples(nt_node: NTNode, qnode: QueryNode, qnode_of: Dict[str, QueryNode]) -> int:
    # Group child occurrences by the query variable they bind.
    by_var: Dict[str, List[NTNode]] = {}
    for child in nt_node.children:
        by_var.setdefault(child.qvar, []).append(child)
    total = 1
    for qc in qnode.children:
        subtotal = sum(
            _tuples(occ, qc, qnode_of) for occ in by_var.get(qc.var, [])
        )
        if qc.optional:
            subtotal = max(1, subtotal)
        total *= subtotal
        if total == 0:
            return 0
    return total


def empty_result(query: TwigQuery, root_label: str = "#empty") -> NestingTree:
    """The canonical empty answer: a bare root occurrence."""
    return NestingTree(NTNode(label=root_label, qvar="q0", oid=0), query)
