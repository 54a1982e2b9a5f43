"""Attaching value summaries to synopses.

Stable-summary annotation is exact: every class's extent is known, so its
value multiset is summarized directly.  TreeSketch annotation reuses the
stable-level summaries: a compressed sketch records which stable classes
each cluster absorbed (``TreeSketch.members``), and cluster summaries are
merges of the member class summaries -- no base-data access after the
stable pass, mirroring how the structural statistics work.
"""

from __future__ import annotations

from typing import Dict

from repro.core.stable import StableSummary
from repro.core.treesketch import TreeSketch
from repro.values.summary import ValueSummary
from repro.xmltree.tree import XMLTree


def annotate_stable_values(
    stable: StableSummary, tree: XMLTree, top_k: int = 8
) -> Dict[int, ValueSummary]:
    """Per-class value summaries for a stable summary (exact).

    Requires the summary to have been built with ``keep_extents=True``
    over a tree parsed with ``keep_values=True``.  Only classes with at
    least one valued element receive a summary.  The result is also
    stored on ``stable.values``.
    """
    if stable.extent is None:
        raise ValueError("annotate_stable_values needs keep_extents=True")
    summaries: Dict[int, ValueSummary] = {}
    for nid, oids in stable.extent.items():
        values = [tree.node(oid).value for oid in oids]
        if any(v is not None for v in values):
            summaries[nid] = ValueSummary.from_values(values, top_k)
    stable.values = summaries  # type: ignore[attr-defined]
    return summaries


def annotate_sketch_values(
    sketch: TreeSketch,
    stable_summaries: Dict[int, ValueSummary],
    top_k: int = 8,
) -> Dict[int, ValueSummary]:
    """Value summaries for a (possibly compressed) TreeSketch.

    ``stable_summaries`` is the output of :func:`annotate_stable_values`
    on the sketch's originating stable summary.  Stored on
    ``sketch.values`` and consumed by ``TreeSketch.value_probability``.
    """
    if not sketch.members:
        raise ValueError(
            "sketch carries no member map; build it via TreeSketchBuilder "
            "or TreeSketch.from_stable"
        )
    summaries: Dict[int, ValueSummary] = {}
    for cid, member_classes in sketch.members.items():
        merged: ValueSummary | None = None
        covered = 0
        for stable_id in member_classes:
            part = stable_summaries.get(stable_id)
            if part is None:
                continue
            covered += part.total
            merged = part if merged is None else merged.merge(part, top_k)
        if merged is None:
            continue
        # Elements of member classes without any valued element count as
        # nulls so probabilities stay relative to the full extent.
        missing = sketch.count[cid] - merged.total
        if missing > 0:
            merged = ValueSummary(
                top=dict(merged.top),
                rest_count=merged.rest_count,
                rest_distinct=merged.rest_distinct,
                null_count=merged.null_count + missing,
            )
        summaries[cid] = merged
    sketch.values = summaries
    return summaries
