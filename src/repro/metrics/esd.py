"""Element Simulation Distance (ESD) between XML trees (paper Section 5).

``ESD(u, v)`` measures how well two same-label elements "simulate" each
other: group each element's children by tag, treat the two per-tag child
groups as weighted value multisets whose pairwise value distances are the
recursive ESD of the children, and sum a set distance (MAC by default, EMD
optionally) over the tags.  Missing sub-trees are charged their size, so
ESD reflects both the overall path structure and the distribution of
document edges -- unlike tree-edit distance, which only counts syntactic
edits (Fig. 10).

Following the paper's implementation note, ESD is computed on the *joint*
count-stable summary of the two trees: identical sub-trees (within or
across the trees) share an equivalence class, making their distance zero by
construction, and the recursion memoizes on class pairs.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.engine.nesting import NestingTree, NTNode
from repro.metrics.emd import emd_distance
from repro.metrics.mac import FrequencyPenalty, mac_distance
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

# Per equivalence class: tag -> list of (child class id, multiplicity).
ChildGroups = Dict[str, List[Tuple[int, int]]]


class _JointClasses:
    """Count-stable equivalence classes shared across several trees.

    Each class also carries an *intrinsic structural fingerprint* (a hash
    of its canonical sub-tree form, computed bottom-up from child
    fingerprints).  Tie-breaking in the set-distance matching must use
    these fingerprints rather than class ids: ids reflect interning
    order, which depends on which tree was classified first, and an
    order-dependent tie-break would make ESD asymmetric.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[str, Tuple[Tuple[int, int], ...]], int] = {}
        self.label: List[str] = []
        self.groups: List[ChildGroups] = []
        self.size: List[float] = []
        self.fingerprint: List[str] = []

    def classify(self, root: XMLNode) -> int:
        """Class id of ``root`` (building classes for its whole sub-tree)."""
        import hashlib

        class_of: Dict[int, int] = {}
        for node in root.iter_postorder():
            counts = Counter(class_of[id(c)] for c in node.children)
            signature = (node.label, tuple(sorted(counts.items())))
            cid = self._table.get(signature)
            if cid is None:
                cid = len(self.label)
                self._table[signature] = cid
                self.label.append(node.label)
                groups: ChildGroups = {}
                size = 1.0
                for child_cid, mult in signature[1]:
                    groups.setdefault(self.label[child_cid], []).append(
                        (child_cid, mult)
                    )
                    size += mult * self.size[child_cid]
                self.groups.append(groups)
                self.size.append(size)
                child_part = ",".join(
                    f"{self.fingerprint[child_cid]}*{mult}"
                    for child_cid, mult in sorted(
                        signature[1],
                        key=lambda item: (self.fingerprint[item[0]], item[1]),
                    )
                )
                raw = f"{node.label}({child_part})".encode("utf-8")
                self.fingerprint.append(hashlib.md5(raw).hexdigest())
            class_of[id(node)] = cid
        return class_of[id(root)]


class ESDCalculator:
    """Reusable ESD computation over a shared class space.

    Reuse across many tree pairs (e.g., a whole query workload) lets the
    memo tables amortize: repeated sub-structures across answers are
    classified and compared once.
    """

    def __init__(
        self,
        set_distance: str = "mac",
        penalty: FrequencyPenalty = FrequencyPenalty.TRIANGULAR,
        exact_matching: bool = False,
    ) -> None:
        """``exact_matching=True`` solves each per-tag multiset matching
        optimally (Hungarian via scipy, small sets only) instead of
        greedily -- slower, and rarely different on real child multisets;
        exposed for validation runs."""
        if set_distance not in ("mac", "emd"):
            raise ValueError(f"unknown set distance {set_distance!r}")
        self._set_distance = set_distance
        self._penalty = penalty
        self._exact = exact_matching
        self._classes = _JointClasses()
        self._memo: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------

    def distance(self, left: XMLTree, right: XMLTree) -> float:
        """ESD between two document trees."""
        c1 = self._classes.classify(left.root)
        c2 = self._classes.classify(right.root)
        return self._class_distance(c1, c2)

    def distance_roots(self, left: XMLNode, right: XMLNode) -> float:
        """ESD between two sub-trees given by their root nodes."""
        c1 = self._classes.classify(left)
        c2 = self._classes.classify(right)
        return self._class_distance(c1, c2)

    # ------------------------------------------------------------------

    def _class_distance(self, c1: int, c2: int) -> float:
        if c1 == c2:
            return 0.0
        classes = self._classes
        if classes.label[c1] != classes.label[c2]:
            # Only possible at the root of a comparison; charge a full
            # delete + insert of both sub-trees.
            return classes.size[c1] + classes.size[c2]
        key = (c1, c2) if c1 < c2 else (c2, c1)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Seed the memo to guard against recursive labels (cannot occur in
        # a joint stable DAG, but keeps the recursion total regardless).
        self._memo[key] = 0.0

        groups1, groups2 = classes.groups[c1], classes.groups[c2]
        total = 0.0
        for tag in set(groups1) | set(groups2):
            left = groups1.get(tag, [])
            right = groups2.get(tag, [])
            if self._set_distance == "mac":
                total += mac_distance(
                    left, right, self._class_distance, self._magnitude,
                    self._penalty, exact=self._exact,
                    tiebreak_fn=self._tiebreak,
                )
            else:
                total += emd_distance(
                    left, right, self._class_distance, self._magnitude,
                    tiebreak_fn=self._tiebreak,
                )
        self._memo[key] = total
        return total

    def _magnitude(self, cid: int) -> float:
        return self._classes.size[cid]

    def _tiebreak(self, cid: int) -> str:
        return self._classes.fingerprint[cid]


def esd(
    left: XMLTree,
    right: XMLTree,
    set_distance: str = "mac",
    penalty: FrequencyPenalty = FrequencyPenalty.TRIANGULAR,
) -> float:
    """One-shot ESD between two trees (``ESD(root(T1), root(T2))``)."""
    return ESDCalculator(set_distance, penalty).distance(left, right)


def nesting_tree_to_xmltree(nt: NestingTree, by_variable: bool = True) -> XMLTree:
    """Convert a nesting tree for metric evaluation.

    With ``by_variable=True`` (the paper's "straightforward extension"),
    node labels are qualified by the query variable they bind, so ESD only
    compares binding elements of the same variable.
    """

    def tag(node: NTNode) -> str:
        return f"{node.label}@{node.qvar}" if by_variable else node.label

    root = XMLNode(tag(nt.root))
    stack = [(nt.root, root)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            stack.append((child, dst.new_child(tag(child))))
    return XMLTree(root)


def esd_nesting_trees(
    truth: NestingTree,
    approx: NestingTree,
    by_variable: bool = True,
    calculator: Optional[ESDCalculator] = None,
) -> float:
    """ESD between a true and an approximate nesting tree."""
    t1 = nesting_tree_to_xmltree(truth, by_variable)
    t2 = nesting_tree_to_xmltree(approx, by_variable)
    if calculator is None:
        return esd(t1, t2)
    return calculator.distance(t1, t2)
