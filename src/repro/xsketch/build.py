"""Workload-driven twig-XSketch construction ([18]; Section 6.1 here).

Construction starts from the *label-split graph* (one synopsis node per
tag) and greedily refines it with node splits until the space budget is
filled.  Each round:

1. rank clusters by their internal spread (the summed child-count variance
   weighted by extent size -- the clusters whose histograms summarize the
   most heterogeneous structure);
2. propose splits for the top clusters: a backward split (separate atoms
   by parent tag) and forward splits (separate by the dominant child-count
   dimension, or fully by child-count vector when cheap);
3. score every proposal by the average sanity-bounded selectivity error of
   the refined synopsis on a sample query workload -- the expensive
   workload evaluation step that this paper's TSBUILD avoids -- and apply
   the best one.

The partition is over *atoms* (stable classes refined by parent class, see
:mod:`repro.xsketch.atoms`), so histograms stay exact and splits are fast
to apply and undo.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.stable import StableSummary, build_stable
from repro.metrics.error import average_error
from repro.xsketch.atoms import AtomGraph, build_atom_graph
from repro.xsketch.histogram import EdgeHistogram
from repro.xsketch.synopsis import TwigXSketch, build_cluster_histogram, xsketch_selectivity

logger = logging.getLogger(__name__)


@dataclass
class XSketchBuildOptions:
    """Tuning knobs of the baseline's construction."""

    bucket_budget: int = 8        # histogram buckets per synopsis node
    candidate_clusters: int = 6   # clusters examined per round
    sample_size: int = 20         # workload queries used for scoring
    seed: int = 0
    max_rounds: Optional[int] = None


class _Partition:
    """Mutable atom partition with incremental histogram caching."""

    def __init__(self, atoms: AtomGraph, bucket_budget: int) -> None:
        self.atoms = atoms
        self.bucket_budget = bucket_budget
        labels = sorted({lab for lab in atoms.label})
        cid_of_label = {lab: i for i, lab in enumerate(labels)}
        self.assign: List[int] = [cid_of_label[lab] for lab in atoms.label]
        self.members: Dict[int, List[int]] = {}
        for aid, cid in enumerate(self.assign):
            self.members.setdefault(cid, []).append(aid)
        self.next_cid = len(labels)
        self.in_atoms: List[List[int]] = [[] for _ in range(atoms.num_atoms)]
        for aid, targets in enumerate(atoms.out):
            for child, _k in targets:
                self.in_atoms[child].append(aid)
        self._hist: Dict[int, EdgeHistogram] = {}

    # ------------------------------------------------------------------

    def histogram(self, cid: int) -> EdgeHistogram:
        hist = self._hist.get(cid)
        if hist is None:
            hist = build_cluster_histogram(
                self.atoms, self.assign, self.members[cid], self.bucket_budget
            )
            self._hist[cid] = hist
        return hist

    def split(self, cid: int, groups: Sequence[Sequence[int]]):
        """Split ``cid`` into the given atom groups; returns an undo token."""
        if len(groups) < 2:
            raise ValueError("a split needs at least two groups")
        old_members = self.members[cid]
        evicted = {c: self._hist.get(c) for c in (cid,)}
        new_ids: List[int] = []
        for i, group in enumerate(groups):
            new_cid = cid if i == 0 else self.next_cid
            if i > 0:
                self.next_cid += 1
            new_ids.append(new_cid)
            self.members[new_cid] = list(group)
            for aid in group:
                self.assign[aid] = new_cid
            self._hist.pop(new_cid, None)
        # Parent clusters now see split dimensions; drop their caches.
        parent_cache = {}
        parents: Set[int] = set()
        for aid in old_members:
            for src in self.in_atoms[aid]:
                parents.add(self.assign[src])
        for p in parents:
            if p in self._hist:
                parent_cache[p] = self._hist.pop(p)
        return (cid, old_members, new_ids, evicted, parent_cache)

    def undo(self, token) -> None:
        cid, old_members, new_ids, evicted, parent_cache = token
        for new_cid in new_ids:
            self.members.pop(new_cid, None)
            self._hist.pop(new_cid, None)
        self.members[cid] = old_members
        for aid in old_members:
            self.assign[aid] = cid
        for c, hist in evicted.items():
            if hist is not None:
                self._hist[c] = hist
        for p, hist in parent_cache.items():
            self._hist[p] = hist
        # next_cid is not rolled back; ids are never reused, which is fine.

    # ------------------------------------------------------------------

    def synopsis(self) -> TwigXSketch:
        """Materialize the TwigXSketch of the current partition."""
        xs = TwigXSketch(
            root_id=self.assign[self.atoms.root_atom],
            doc_height=self.atoms.stable.doc_height,
        )
        for cid, members in self.members.items():
            xs.label[cid] = self.atoms.label[members[0]]
            xs.count[cid] = sum(self.atoms.size[a] for a in members)
            hist = self.histogram(cid)
            xs.hist[cid] = hist
            means = {t: hist.mean(t) for t in hist.targets}
            xs.out[cid] = {t: m for t, m in means.items() if m > 0}
            for dim, t in enumerate(hist.targets):
                if t in xs.out[cid]:
                    xs.backward_stable[(cid, t)] = (
                        hist.prob_positive([dim]) >= 1.0 - 1e-12
                    )
        return xs

    def size_bytes(self) -> int:
        return self.synopsis().size_bytes()

    def cluster_spread(self, cid: int) -> float:
        """Weighted child-count variance of a cluster (split-worthiness)."""
        hist = self.histogram(cid)
        total = hist.total_weight
        if not total or hist.num_buckets <= 1:
            return 0.0
        dims = len(hist.targets)
        mean = [0.0] * dims
        meansq = [0.0] * dims
        for vector, weight in hist._entries():
            for i, c in enumerate(vector):
                mean[i] += c * weight
                meansq[i] += c * c * weight
        spread = sum(
            max(0.0, meansq[i] / total - (mean[i] / total) ** 2) for i in range(dims)
        )
        return spread * total


def _proposed_splits(part: _Partition, cid: int) -> List[List[List[int]]]:
    """Candidate atom groupings for splitting one cluster."""
    atoms = part.atoms
    members = part.members[cid]
    if len(members) < 2:
        return []
    proposals: List[List[List[int]]] = []

    # Backward split: separate by parent tag.
    by_parent_tag: Dict[str, List[int]] = {}
    for aid in members:
        _s, p = atoms.keys[aid]
        tag = atoms.stable.label[p] if p >= 0 else "#root"
        by_parent_tag.setdefault(tag, []).append(aid)
    if len(by_parent_tag) > 1:
        proposals.append(list(by_parent_tag.values()))

    # Forward splits need the atom child-count vectors toward clusters.
    vectors: Dict[int, Dict[int, float]] = {}
    for aid in members:
        counts: Dict[int, float] = {}
        for child, k in atoms.out[aid]:
            t = part.assign[child]
            counts[t] = counts.get(t, 0.0) + k
        vectors[aid] = counts

    # Full vector split when there are few distinct vectors.
    by_vector: Dict[Tuple[Tuple[int, float], ...], List[int]] = {}
    for aid in members:
        key = tuple(sorted(vectors[aid].items()))
        by_vector.setdefault(key, []).append(aid)
    if 1 < len(by_vector) <= 4:
        proposals.append(list(by_vector.values()))

    # Median split on the highest-variance dimension.
    dim_stats: Dict[int, List[float]] = {}
    total = sum(atoms.size[a] for a in members)
    for aid in members:
        w = atoms.size[aid]
        for t, c in vectors[aid].items():
            acc = dim_stats.setdefault(t, [0.0, 0.0])
            acc[0] += c * w
            acc[1] += c * c * w
    best_dim, best_var = None, 0.0
    for t, (s, sq) in dim_stats.items():
        var = sq / total - (s / total) ** 2
        if var > best_var:
            best_dim, best_var = t, var
    if best_dim is not None and best_var > 0:
        ranked = sorted(members, key=lambda a: (vectors[a].get(best_dim, 0.0), a))
        acc = 0.0
        cut = None
        for i, aid in enumerate(ranked[:-1]):
            acc += atoms.size[aid]
            boundary = (
                vectors[aid].get(best_dim, 0.0)
                != vectors[ranked[i + 1]].get(best_dim, 0.0)
            )
            if acc >= total / 2 and boundary:
                cut = i + 1
                break
        if cut is None:
            for i, aid in enumerate(ranked[:-1]):
                if (
                    vectors[aid].get(best_dim, 0.0)
                    != vectors[ranked[i + 1]].get(best_dim, 0.0)
                ):
                    cut = i + 1
                    break
        if cut is not None:
            proposals.append([ranked[:cut], ranked[cut:]])

    return proposals


def build_twig_xsketch(
    source,
    budget_bytes: int,
    workload: Sequence,
    truths: Sequence[float],
    options: Optional[XSketchBuildOptions] = None,
    snapshot_budgets: Optional[Sequence[int]] = None,
) -> Dict[int, TwigXSketch]:
    """Build twig-XSketch synopses by greedy workload-driven refinement.

    ``workload``/``truths`` supply the sample twig queries and their exact
    selectivities used for scoring.  Returns a dict mapping each requested
    budget (``snapshot_budgets``, defaulting to ``[budget_bytes]``) to the
    largest synopsis not exceeding it; construction stops at
    ``budget_bytes``.
    """
    opts = options or XSketchBuildOptions()
    stable = source if isinstance(source, StableSummary) else build_stable(source)
    atoms = build_atom_graph(stable)
    part = _Partition(atoms, opts.bucket_budget)

    rng = random.Random(opts.seed)
    indices = list(range(len(workload)))
    rng.shuffle(indices)
    sample_idx = indices[: opts.sample_size]
    sample = [(workload[i], truths[i]) for i in sample_idx]

    budgets = sorted(set(snapshot_budgets or [budget_bytes]))
    # For each budget, remember the assignment of the largest partition that
    # still fits; synopses are materialized from these at the end.
    saved_assign: Dict[int, List[int]] = {}

    def record_snapshots() -> None:
        current = part.size_bytes()
        for b in budgets:
            if current <= b:
                saved_assign[b] = list(part.assign)

    def score() -> float:
        xs = part.synopsis()
        pairs = [(truth, xsketch_selectivity(xs, q)) for q, truth in sample]
        return average_error(pairs)

    rounds = 0
    exhausted: Set[int] = set()
    record_snapshots()
    while part.size_bytes() < budget_bytes:
        if opts.max_rounds is not None and rounds >= opts.max_rounds:
            break
        rounds += 1
        ranked = sorted(
            (c for c in part.members if c not in exhausted),
            key=lambda c: -part.cluster_spread(c),
        )
        candidates = ranked[: opts.candidate_clusters]
        best = None  # (error, -spread, cid, groups)
        progress = False
        for cid in candidates:
            proposals = _proposed_splits(part, cid)
            if not proposals:
                exhausted.add(cid)
                continue
            for groups in proposals:
                token = part.split(cid, groups)
                try:
                    err = score()
                finally:
                    part.undo(token)
                key = (err, cid)
                if best is None or key < best[0]:
                    best = (key, cid, groups)
                progress = True
        if best is None:
            if not progress and len(exhausted) >= len(part.members):
                break
            if not candidates:
                break
            continue
        size_before = part.size_bytes()
        _key, cid, groups = best
        part.split(cid, groups)
        size_after = part.size_bytes()
        if rounds % 25 == 0:
            logger.debug(
                "xsketch: round %d, %d -> %d bytes (budget %d), err %.4f",
                rounds, size_before, size_after, budget_bytes, _key[0],
            )
        record_snapshots()
        if size_after == size_before:
            exhausted.add(cid)

    results: Dict[int, TwigXSketch] = {}
    fallback = None
    for b in budgets:
        assign = saved_assign.get(b)
        if assign is None:
            # Budget below the label-split graph: use the coarsest synopsis.
            if fallback is None:
                coarse = _Partition(atoms, opts.bucket_budget)
                fallback = coarse.synopsis()
            results[b] = fallback
        else:
            results[b] = TwigXSketch.from_partition(atoms, assign, opts.bucket_budget)
    return results
