"""Mutation workloads: valid edit sequences against one document.

The live-maintenance subsystem (:mod:`repro.core.live`, docs/MAINTENANCE.md)
is exercised with *sequences* of subtree inserts and deletes, and a useful
sequence must stay valid as it is applied -- op k's target node must still
exist after ops 1..k-1 ran.  :func:`make_mutation_workload` therefore
simulates the whole sequence on a private copy of the document while
generating it: every emitted :class:`MutationOp` addresses a node by
``(label, preorder ordinal)`` -- the serving tier's wire addressing, see
``update`` in docs/SERVING.md -- that is guaranteed to resolve at its turn.

Ops serialize to single-line JSON objects (the CLI's ``treesketch update
--script`` replay format, and exactly the field set an ``update`` wire
request carries), so one generated file drives in-process maintainers,
a single daemon, or a sharded fleet identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random
from typing import Iterable, List, Optional, Tuple, Union

from repro.core.live import find_labeled
from repro.xmltree.tree import XMLTree, build_nested

#: Nested subtree spec: a label, or ``(label, [spec, ...])``.
SubtreeSpec = Union[str, Tuple[str, list]]


@dataclass
class MutationOp:
    """One document edit, addressed the way the wire protocol addresses it."""

    action: str  # "insert_subtree" | "delete_subtree"
    label: Optional[str] = None            # delete: target node label
    ordinal: int = 0                       # delete: n-th preorder match
    parent_label: Optional[str] = None     # insert: attachment point label
    parent_ordinal: int = 0                # insert: n-th preorder match
    subtree: Optional[SubtreeSpec] = None  # insert: nested spec

    def to_json(self) -> dict:
        """The op as the field dict an ``update`` request carries."""
        if self.action == "insert_subtree":
            return {"action": self.action, "parent_label": self.parent_label,
                    "parent_ordinal": self.parent_ordinal,
                    "subtree": _spec_to_json(self.subtree)}
        return {"action": self.action, "label": self.label,
                "ordinal": self.ordinal}

    @staticmethod
    def from_json(doc: dict) -> "MutationOp":
        action = doc.get("action")
        if action == "insert_subtree":
            return MutationOp(action=action,
                              parent_label=doc["parent_label"],
                              parent_ordinal=int(doc.get("parent_ordinal", 0)),
                              subtree=_spec_from_json(doc["subtree"]))
        if action == "delete_subtree":
            return MutationOp(action=action, label=doc["label"],
                              ordinal=int(doc.get("ordinal", 0)))
        raise ValueError(f"unknown mutation action {action!r}")


def _spec_to_json(spec: SubtreeSpec):
    if isinstance(spec, str):
        return spec
    label, children = spec
    return [label, [_spec_to_json(child) for child in children]]


def _spec_from_json(spec) -> SubtreeSpec:
    if isinstance(spec, str):
        return spec
    label, children = spec
    return (label, [_spec_from_json(child) for child in children])


def dump_ops(ops: Iterable[MutationOp]) -> str:
    """Serialize ops as JSON lines (the ``--script`` replay format)."""
    return "\n".join(json.dumps(op.to_json(), separators=(",", ":"))
                     for op in ops) + "\n"


def load_ops(text: str) -> List[MutationOp]:
    """Parse a JSON-lines op script (blank lines and ``#`` comments ok)."""
    ops = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ops.append(MutationOp.from_json(json.loads(line)))
    return ops


def _random_spec(rng: Random, labels: List[str], budget: int) -> SubtreeSpec:
    """A small random nested subtree drawing labels from the document."""
    label = rng.choice(labels)
    if budget <= 1 or rng.random() < 0.4:
        return label
    num_children = rng.randint(1, min(3, budget - 1))
    share = (budget - 1) // num_children
    return (label, [_random_spec(rng, labels, max(1, share))
                    for _ in range(num_children)])


def make_mutation_workload(
    tree: XMLTree,
    num_ops: int = 100,
    seed: int = 0,
    insert_fraction: float = 0.5,
    max_subtree_nodes: int = 6,
) -> List[MutationOp]:
    """Generate a valid mutation sequence for ``tree``.

    The input document is **not** modified: generation runs against a
    private copy that each chosen op is immediately applied to, so every
    op's ``(label, ordinal)`` address resolves when the sequence is
    replayed in order against the original document.  Deletes never
    target the root and are skipped (in favour of an insert) when the
    shadow document is down to its root.
    """
    if num_ops < 0:
        raise ValueError("num_ops must be >= 0")
    rng = Random(seed)
    shadow = tree.copy()
    labels = shadow.labels
    # The shadow's pre-order, kept current: a sub-tree is a contiguous run.
    nodes = list(shadow.root.iter_preorder())
    ops: List[MutationOp] = []
    for _ in range(num_ops):
        want_delete = rng.random() >= insert_fraction and len(nodes) > 1
        if want_delete:
            at = rng.randrange(1, len(nodes))  # never the root
            target = nodes[at]
            ops.append(MutationOp(action="delete_subtree", label=target.label,
                                  ordinal=shadow.ordinal_of(target)))
            del nodes[at:at + target.subtree_size()]
            shadow.delete_subtree(target)
        else:
            at = rng.randrange(len(nodes))
            parent = nodes[at]
            spec = _random_spec(rng, labels,
                                rng.randint(1, max_subtree_nodes))
            ops.append(MutationOp(action="insert_subtree",
                                  parent_label=parent.label,
                                  parent_ordinal=shadow.ordinal_of(parent),
                                  subtree=spec))
            end = at + parent.subtree_size()
            nodes[end:end] = shadow.insert_subtree(
                parent, build_nested(spec)).iter_preorder()
    return ops


def apply_mutation(maintainer, op: MutationOp) -> None:
    """Apply one op to a maintainer (stable or sketch level).

    Works against both :class:`repro.core.maintain.StableMaintainer` and
    :class:`repro.core.live.SketchMaintainer`; the op's address resolves
    through the document's label index (:func:`find_labeled`).  Raises
    :class:`KeyError` when the op's address does not resolve.
    """
    if op.action == "insert_subtree":
        parent = find_labeled(maintainer, op.parent_label, op.parent_ordinal)
        if parent is None:
            raise KeyError(f"no node {op.parent_label!r}#{op.parent_ordinal}")
        maintainer.insert_subtree(parent, op.subtree)
    elif op.action == "delete_subtree":
        node = find_labeled(maintainer, op.label, op.ordinal)
        if node is None:
            raise KeyError(f"no node {op.label!r}#{op.ordinal}")
        maintainer.delete_subtree(node)
    else:  # pragma: no cover - constructors reject unknown actions
        raise ValueError(f"unknown mutation action {op.action!r}")
