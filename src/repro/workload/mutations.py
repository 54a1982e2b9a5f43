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
from typing import Iterable, List, Optional, Union

from repro.core import live
from repro.xmltree.tree import XMLTree, build_nested

#: Nested subtree spec: a label, or ``[label, [spec, ...]]``.
SubtreeSpec = Union[str, list]


@dataclass(frozen=True)
class MutationOp:
    """One document edit, addressed the way the wire protocol addresses it.

    Valid by construction: every field the action uses is checked here,
    and a bad one raises :class:`ValueError` with the message an
    ``update`` request gets back as ``bad_request``.  An op that exists
    can therefore be sent, applied or logged as it is.
    """

    action: str  # "insert_subtree" | "delete_subtree"
    label: Optional[str] = None            # delete: target node label
    ordinal: int = 0                       # delete: n-th preorder match
    parent_label: Optional[str] = None     # insert: attachment point label
    parent_ordinal: int = 0                # insert: n-th preorder match
    subtree: Optional[SubtreeSpec] = None  # insert: nested spec

    def __post_init__(self) -> None:
        if self.action == "insert_subtree":
            _check_label("parent_label", self.parent_label)
            _check_ordinal("parent_ordinal", self.parent_ordinal)
            if self.subtree is None:
                raise ValueError("insert_subtree requires field 'subtree'")
            _check_spec(self.subtree, 0)
        elif self.action == "delete_subtree":
            _check_label("label", self.label)
            _check_ordinal("ordinal", self.ordinal)
        else:
            raise ValueError(f"unknown update action {self.action!r}; "
                             "supported: insert_subtree, delete_subtree")

    def to_json(self) -> dict:
        """The op as the field dict an ``update`` request carries."""
        if self.action == "insert_subtree":
            return {"action": self.action, "parent_label": self.parent_label,
                    "parent_ordinal": self.parent_ordinal,
                    "subtree": self.subtree}
        return {"action": self.action, "label": self.label,
                "ordinal": self.ordinal}

    @staticmethod
    def from_json(doc: dict) -> "MutationOp":
        """The op in an ``update`` request or a script line.

        Reads only the action's fields; other keys (``op``, ``id``,
        ``sketch``, ...) are ignored.  Raises :class:`ValueError` for an
        invalid op.
        """
        action = doc.get("action")
        if action == "insert_subtree":
            return MutationOp(action, parent_label=doc.get("parent_label"),
                              parent_ordinal=doc.get("parent_ordinal", 0),
                              subtree=doc.get("subtree"))
        return MutationOp(action, label=doc.get("label"),
                          ordinal=doc.get("ordinal", 0))


def _check_label(field: str, value) -> None:
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {field!r} must be a non-empty string")


def _check_ordinal(field: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"field {field!r} must be a non-negative integer")


def _check_spec(spec, depth: int) -> None:
    """A subtree spec: a label string, or a ``[label, [spec, ...]]`` pair
    nested at most 64 levels below the root."""
    if depth > 64:
        raise ValueError("field 'subtree' nests too deeply")
    if isinstance(spec, str):
        if not spec:
            raise ValueError("subtree labels must be non-empty strings")
        return
    if not isinstance(spec, (list, tuple)) or len(spec) != 2 \
            or not isinstance(spec[0], str) or not spec[0] \
            or not isinstance(spec[1], (list, tuple)):
        raise ValueError("field 'subtree' must be a label string or a "
                         "[label, [child, ...]] pair")
    for child in spec[1]:
        _check_spec(child, depth + 1)


def dump_ops(ops: Iterable[MutationOp]) -> str:
    """Serialize ops as JSON lines (the ``--script`` replay format)."""
    return "\n".join(json.dumps(op.to_json(), separators=(",", ":"))
                     for op in ops) + "\n"


def load_ops(text: str) -> List[MutationOp]:
    """Parse a JSON-lines op script (blank lines and ``#`` comments ok).

    The whole script is checked before anything is returned: a line that
    is not a valid op raises :class:`ValueError` naming its line number.
    """
    ops = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("an op must be a JSON object")
            ops.append(MutationOp.from_json(doc))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return ops


def _random_spec(rng: Random, labels: List[str], budget: int) -> SubtreeSpec:
    """A small random nested subtree drawing labels from the document."""
    label = rng.choice(labels)
    if budget <= 1 or rng.random() < 0.4:
        return label
    num_children = rng.randint(1, min(3, budget - 1))
    share = (budget - 1) // num_children
    return [label, [_random_spec(rng, labels, max(1, share))
                    for _ in range(num_children)]]


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
    through the document's label index (:func:`repro.core.live.find_labeled`,
    looked up on its module per call so a layer timer can wrap it).
    Raises :class:`KeyError` when the address does not resolve and
    :class:`ValueError` for an invalid edit (deleting the root).
    """
    insert = op.action == "insert_subtree"
    label, ordinal = ((op.parent_label, op.parent_ordinal) if insert
                      else (op.label, op.ordinal))
    node = live.find_labeled(maintainer, label, ordinal)
    if node is None:
        raise KeyError(f"no node labeled {label!r} with ordinal {ordinal}")
    if insert:
        maintainer.insert_subtree(node, op.subtree)
    else:
        maintainer.delete_subtree(node)
