"""Working state of TSBUILD: a partition of stable-summary nodes.

TSBUILD (Fig. 5) starts from the count-stable summary and repeatedly merges
synopsis nodes.  :class:`MergePartition` maintains the partition of stable
classes into clusters together with everything needed to score and apply
merges *without touching base data* (the paper's sufficient-statistics
scheme, Section 4.2):

* ``gs[s]``: for every stable class ``s``, its out-adjacency grouped by the
  *current* clusters (``cluster id -> total child count``).  This is the
  "small subset of the stable summary" that must be consulted when merges
  of children create cross-terms that plain per-edge statistics cannot
  capture.
* ``out_stats[c][t] = (sum, sum_sq)``: per cluster-edge sufficient
  statistics of the per-element child counts, from which both the average
  edge counts and the squared-error metric follow in closed form.
* ``in_sources[c]``: the stable classes with at least one edge into
  cluster ``c`` (the reverse index that makes parent-side updates local).

Merging clusters ``u`` and ``v`` into ``w``:

* dimensions toward targets outside ``{u, v}`` are *additive* (every
  element belongs to exactly one of the extents, so sums and sums of
  squares just add);
* the dimension toward ``w`` itself (when ``u``/``v`` had edges among
  themselves) needs per-stable-class recomputation via ``gs`` because an
  element's counts toward ``u`` and ``v`` combine: ``(k_u + k_v)^2`` has a
  cross-term;
* parent clusters see their two dimensions ``->u``, ``->v`` collapse into
  one ``->w`` dimension, likewise recomputed via ``gs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.size import EDGE_BYTES, NODE_BYTES
from repro.core.stable import StableSummary
from repro.core.treesketch import TreeSketch

# A scored merge as consumed by CREATEPOOL / TSBUILD: (ratio, errd, sized).
ScoredMerge = Tuple[float, float, int]


class MergeResult:
    """Score of a candidate merge: errd (squared-error increase) and sized
    (synopsis-size decrease in bytes).  ``ratio`` is the marginal-gain key
    of the TSBUILD heap.

    Tiebreak for degenerate scores: a merge with ``sized <= 0`` saves no
    space, so it is *non-improving by definition* -- ``ratio`` reports
    ``+inf`` (instead of raising ZeroDivisionError) and candidate
    generation skips such entries at pool insertion.  With the library's
    size model this cannot arise from real summaries (a merge always
    removes one node, so ``sized >= NODE_BYTES``), but synthetic or
    future size models must not crash the heap.
    """

    __slots__ = ("errd", "sized")

    def __init__(self, errd: float, sized: int) -> None:
        self.errd = errd
        self.sized = sized

    @property
    def ratio(self) -> float:
        return self.errd / self.sized if self.sized > 0 else float("inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MergeResult(errd={self.errd:.3f}, sized={self.sized})"


class MergePartition:
    """Mutable clustering of the stable summary's classes."""

    def __init__(self, stable: StableSummary) -> None:
        self.stable = stable
        self.s_count: Dict[int, int] = dict(stable.count)
        self.s_label: Dict[int, str] = dict(stable.label)
        self.s_depth: Dict[int, int] = dict(stable.depth)

        # Cluster state; initially one cluster per stable class (same ids).
        self.members: Dict[int, Set[int]] = {
            nid: {nid} for nid in stable.node_ids()
        }
        self.count: Dict[int, int] = dict(stable.count)
        self.cluster_label: Dict[int, str] = dict(stable.label)
        self.cluster_depth: Dict[int, int] = dict(stable.depth)
        self.assign: Dict[int, int] = {nid: nid for nid in stable.node_ids()}

        # Grouped stable out-adjacency and its reverse index.
        self.gs: Dict[int, Dict[int, float]] = {
            nid: {dst: float(k) for dst, k in stable.out.get(nid, {}).items()}
            for nid in stable.node_ids()
        }
        self.in_sources: Dict[int, Set[int]] = {nid: set() for nid in stable.node_ids()}
        for src, dst, _ in stable.edges():
            self.in_sources[dst].add(src)

        # Sufficient statistics per cluster edge, and per-cluster sq error.
        self.out_stats: Dict[int, Dict[int, Tuple[float, float]]] = {}
        for nid in stable.node_ids():
            count = self.s_count[nid]
            self.out_stats[nid] = {
                dst: (count * float(k), count * float(k) ** 2)
                for dst, k in stable.out.get(nid, {}).items()
            }
        self.cluster_sq: Dict[int, float] = {nid: 0.0 for nid in stable.node_ids()}

        # Fused per-source record [gs dict, owning cluster, element count]
        # for the scoring hot loop: one lookup instead of three.  The gs
        # dict is shared by object identity (mutated in place); the owner
        # slot is kept in step with ``assign`` by ``apply_merge``.
        self.src: Dict[int, list] = {
            nid: [self.gs[nid], nid, self.s_count[nid]]
            for nid in stable.node_ids()
        }

        self.num_edges: int = stable.num_edges
        self.total_sq: float = 0.0
        # Version stamps for lazy heap invalidation: ``version`` bumps on
        # *every* change that can move a cluster's merge score (its own
        # state, a parent's dims, a parent's count); the memo and the heap
        # key on it (see docs/PERFORMANCE.md).
        self.version: Dict[int, int] = {nid: 0 for nid in stable.node_ids()}
        # Optional versioned memo of merge scores (see enable_memo).
        self.merge_memo: Optional[Dict[Tuple[int, int], Tuple[int, int, float, float, int]]] = None
        self.memo_hits: int = 0
        self.memo_misses: int = 0

    # ------------------------------------------------------------------
    # Size and quality
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.members)

    def size_bytes(self) -> int:
        return NODE_BYTES * self.num_nodes + EDGE_BYTES * self.num_edges

    def alive(self, cid: int) -> bool:
        return cid in self.members

    def parents_of(self, cid: int) -> Set[int]:
        """Clusters with at least one edge into ``cid``."""
        return {self.assign[s] for s in self.in_sources[cid]}

    def source_out(self, s_id: int) -> Dict[int, int]:
        """Out-adjacency of one stable class (ground truth for ``gs``).

        The base partition reads the frozen summary; live partitions
        (repro.core.live) override this with their evolving adjacency.
        """
        return self.stable.out.get(s_id, {})

    def root_cluster(self) -> int:
        """Cluster currently holding the document root class."""
        return self.assign[self.stable.root_id]

    def doc_height(self) -> int:
        """Document height recorded on exported sketches."""
        return self.stable.doc_height

    def structural_key(self, cid: int) -> Tuple[float, float, int]:
        """CREATEPOOL's cheap locality key: child-side state only
        (out-degree, average total child count, extent size)."""
        out = self.out_stats[cid]
        total = sum(s for s, _ in out.values()) / max(1, self.count[cid])
        return (len(out), total, self.count[cid])

    # ------------------------------------------------------------------
    # Candidate scoring
    # ------------------------------------------------------------------

    def evaluate_merge(self, u: int, v: int) -> MergeResult:
        """Score merging clusters ``u`` and ``v`` without applying it."""
        errd, sized = self._eval_raw(u, v)
        # errd can be legitimately negative: merging nodes whose dimensions
        # collapse (mutual edges, or a parent's two anti-correlated
        # dimensions becoming one) may reduce the total squared error.
        return MergeResult(errd, sized)

    def _eval_raw(self, u: int, v: int) -> Tuple[float, int]:
        """Hot-path scoring core: ``(errd, sized)`` for merging ``u, v``.

        Bit-identical to :meth:`evaluate_merge_reference` — every floating-
        point accumulation happens on the same values in the same order; the
        rewrite only collapses the two passes over ``sources`` into one and
        hoists attribute lookups (see tests/test_build_equivalence.py).
        """
        if u == v:
            raise ValueError("cannot merge a cluster with itself")
        count = self.count
        out_stats = self.out_stats
        count_w = count[u] + count[v]
        out_u, out_v = out_stats[u], out_stats[v]

        # --- out dimensions toward targets outside {u, v}: additive.
        merged = dict(out_u)
        merged.pop(u, None)
        merged.pop(v, None)
        merged_get = merged.get
        for t, st in out_v.items():
            if t == u or t == v:
                continue
            acc = merged_get(t)
            merged[t] = (st[0] + acc[0], st[1] + acc[1]) if acc else st

        # --- self dimension toward w and parent dimensions, in one pass
        # over the union of stable sources (``assign[s] in {u, v}`` is
        # exactly the reference's membership test against members[u/v];
        # ``sc*k*k`` associates left, so reusing ``t = sc*k`` is exact).
        sources = self.in_sources[u] | self.in_sources[v]
        src_all = self.src
        sum_w = sq_w = 0.0
        has_self = False
        parent_acc: Dict[int, List[float]] = {}
        parent_get = parent_acc.get
        for s_id in sources:
            rec = src_all[s_id]
            gs = rec[0]
            k = gs.get(u, 0.0) + gs.get(v, 0.0)
            if not k:
                continue
            p = rec[1]
            t = rec[2] * k
            if p == u or p == v:
                sum_w += t
                sq_w += t * k
                has_self = True
                continue
            acc = parent_get(p)
            if acc is None:
                parent_acc[p] = [t, t * k]
            else:
                acc[0] += t
                acc[1] += t * k

        sq_new_w = 0.0
        for s, sq in merged.values():
            sq_new_w += sq - (s * s) / count_w
        if has_self:
            sq_new_w += sq_w - (sum_w * sum_w) / count_w
        cluster_sq = self.cluster_sq
        errd = sq_new_w - cluster_sq[u] - cluster_sq[v]

        in_edges_removed = 0
        for p, acc in parent_acc.items():
            count_p = count[p]
            old_sq = 0.0
            old_dims = 0
            out_p = out_stats[p]
            stats = out_p.get(u)
            if stats is not None:
                old_sq += stats[1] - (stats[0] * stats[0]) / count_p
                old_dims += 1
            stats = out_p.get(v)
            if stats is not None:
                old_sq += stats[1] - (stats[0] * stats[0]) / count_p
                old_dims += 1
            errd += (acc[1] - (acc[0] * acc[0]) / count_p) - old_sq
            in_edges_removed += old_dims - 1

        out_edges_old = len(out_u) + len(out_v)
        out_edges_new = len(merged) + (1 if has_self else 0)
        edges_removed = (out_edges_old - out_edges_new) + in_edges_removed
        return errd, NODE_BYTES + EDGE_BYTES * edges_removed

    def evaluate_merge_reference(self, u: int, v: int) -> MergeResult:
        """The seed implementation of :meth:`evaluate_merge`, verbatim.

        Kept as the ground truth the optimized scorer is proven against
        (property tests assert bitwise-equal ``errd``/``sized``) and as the
        scoring path of the ``reference`` build mode that the benchmark
        feed uses for its "before" measurements.
        """
        if u == v:
            raise ValueError("cannot merge a cluster with itself")
        count_w = self.count[u] + self.count[v]
        out_u, out_v = self.out_stats[u], self.out_stats[v]

        # --- out dimensions toward targets outside {u, v}: additive.
        merged: Dict[int, Tuple[float, float]] = {}
        for out in (out_u, out_v):
            for t, (s, sq) in out.items():
                if t == u or t == v:
                    continue
                acc = merged.get(t)
                merged[t] = (s + acc[0], sq + acc[1]) if acc else (s, sq)

        # --- self dimension toward w: recompute via gs (cross-terms).
        sources = self.in_sources[u] | self.in_sources[v]
        mem_u, mem_v = self.members[u], self.members[v]
        sum_w = sq_w = 0.0
        has_self = False
        for s_id in sources:
            if s_id in mem_u or s_id in mem_v:
                k = self.gs[s_id].get(u, 0.0) + self.gs[s_id].get(v, 0.0)
                if k:
                    sc = self.s_count[s_id]
                    sum_w += sc * k
                    sq_w += sc * k * k
                    has_self = True

        sq_new_w = sum(sq - (s * s) / count_w for s, sq in merged.values())
        if has_self:
            sq_new_w += sq_w - (sum_w * sum_w) / count_w
        errd = sq_new_w - self.cluster_sq[u] - self.cluster_sq[v]

        # --- parent dimensions: ->u and ->v collapse into ->w.
        parent_acc: Dict[int, List[float]] = {}
        for s_id in sources:
            p = self.assign[s_id]
            if p == u or p == v:
                continue
            k = self.gs[s_id].get(u, 0.0) + self.gs[s_id].get(v, 0.0)
            if not k:
                continue
            sc = self.s_count[s_id]
            acc = parent_acc.get(p)
            if acc is None:
                parent_acc[p] = [sc * k, sc * k * k]
            else:
                acc[0] += sc * k
                acc[1] += sc * k * k

        in_edges_removed = 0
        for p, (sp, sqp) in parent_acc.items():
            count_p = self.count[p]
            old_sq = 0.0
            old_dims = 0
            for t in (u, v):
                stats = self.out_stats[p].get(t)
                if stats is not None:
                    old_sq += stats[1] - (stats[0] * stats[0]) / count_p
                    old_dims += 1
            errd += (sqp - (sp * sp) / count_p) - old_sq
            in_edges_removed += old_dims - 1

        out_edges_old = len(out_u) + len(out_v)
        out_edges_new = len(merged) + (1 if has_self else 0)
        edges_removed = (out_edges_old - out_edges_new) + in_edges_removed
        sized = NODE_BYTES + EDGE_BYTES * edges_removed
        return MergeResult(errd, sized)

    # ------------------------------------------------------------------
    # Versioned score memoization
    # ------------------------------------------------------------------

    def enable_memo(self) -> None:
        """Start memoizing merge scores under the version stamps.

        A memo entry ``(u, v) -> (ver_u, ver_v, ratio, errd, sized)`` is
        valid while both operands keep the versions it was computed at —
        the exact invalidation discipline the TSBUILD heap already relies
        on (``apply_merge`` bumps the stamp of the merged cluster, its
        parents, and its children, which covers every input of
        ``_eval_raw``).  Stale entries are overwritten in place, so the
        memo is bounded by the number of distinct pairs ever scored.
        """
        if self.merge_memo is None:
            self.merge_memo = {}

    def scored_merge(self, u: int, v: int) -> ScoredMerge:
        """Memo-aware scoring: ``(ratio, errd, sized)`` for merging u, v.

        Falls back to plain scoring when the memo is disabled.  Hits are
        the "skipped rescores" TSBUILD reports as ``tsbuild.memo_hits``.
        """
        memo = self.merge_memo
        if memo is None:
            errd, sized = self._eval_raw(u, v)
            return errd / sized if sized > 0 else float("inf"), errd, sized
        version = self.version
        ver_u = version.get(u, 0)
        ver_v = version.get(v, 0)
        key = (u, v)
        entry = memo.get(key)
        if entry is not None and entry[0] == ver_u and entry[1] == ver_v:
            self.memo_hits += 1
            return entry[2], entry[3], entry[4]
        self.memo_misses += 1
        errd, sized = self._eval_raw(u, v)
        ratio = errd / sized if sized > 0 else float("inf")
        memo[key] = (ver_u, ver_v, ratio, errd, sized)
        return ratio, errd, sized

    def eval_block(self, pairs: List[Tuple[int, int]]) -> List[Tuple[float, int]]:
        """``(errd, sized)`` per pair: CREATEPOOL's batch scoring call."""
        raw = self._eval_raw
        return [raw(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # Applying a merge
    # ------------------------------------------------------------------

    def apply_merge(self, u: int, v: int) -> int:
        """Merge cluster ``v`` into cluster ``u``; returns the merged id."""
        if not (self.alive(u) and self.alive(v)) or u == v:
            raise ValueError(f"cannot merge {u} and {v}")

        # 1. Re-group stable adjacencies pointing into u or v.
        src_union = self.in_sources[u] | self.in_sources.pop(v)
        for s_id in src_union:
            gs = self.gs[s_id]
            k = gs.pop(u, 0.0) + gs.pop(v, 0.0)
            if k:
                gs[u] = k
        self.in_sources[u] = src_union

        # 2. Absorb v's members.
        src = self.src
        for s_id in self.members[v]:
            self.assign[s_id] = u
            src[s_id][1] = u
        self.members[u] |= self.members.pop(v)
        self.count[u] += self.count.pop(v)
        self.cluster_depth[u] = max(self.cluster_depth[u], self.cluster_depth.pop(v))
        self.cluster_label.pop(v)

        # 3. Rebuild u's out dimensions (additive except the self dim).
        out_u = self.out_stats[u]
        out_v = self.out_stats.pop(v)
        old_edges_out = len(out_u) + len(out_v)
        new_out: Dict[int, Tuple[float, float]] = {}
        for out in (out_u, out_v):
            for t, (s, sq) in out.items():
                if t == u or t == v:
                    continue
                acc = new_out.get(t)
                new_out[t] = (s + acc[0], sq + acc[1]) if acc else (s, sq)
        sum_w = sq_w = 0.0
        has_self = False
        mem_u = self.members[u]
        # Iterate the smaller of (sources, members) for the intersection.
        probe, other = (
            (src_union, mem_u) if len(src_union) <= len(mem_u) else (mem_u, src_union)
        )
        for s_id in probe:
            if s_id in other:
                k = self.gs[s_id].get(u, 0.0)
                if k:
                    sc = self.s_count[s_id]
                    sum_w += sc * k
                    sq_w += sc * k * k
                    has_self = True
        if has_self:
            new_out[u] = (sum_w, sq_w)
        self.out_stats[u] = new_out

        count_u = self.count[u]
        old_sq_u = self.cluster_sq[u] + self.cluster_sq.pop(v)
        new_sq_u = sum(sq - (s * s) / count_u for s, sq in new_out.values())
        self.cluster_sq[u] = new_sq_u
        self.total_sq += new_sq_u - old_sq_u
        self.num_edges += len(new_out) - old_edges_out

        # 4. Parents outside {u}: collapse their ->u / ->v dims into ->u.
        parent_acc: Dict[int, List[float]] = {}
        for s_id in src_union:
            p = self.assign[s_id]
            if p == u:
                continue
            k = self.gs[s_id].get(u, 0.0)
            if not k:
                continue
            sc = self.s_count[s_id]
            acc = parent_acc.get(p)
            if acc is None:
                parent_acc[p] = [sc * k, sc * k * k]
            else:
                acc[0] += sc * k
                acc[1] += sc * k * k
        for p, (sp, sqp) in parent_acc.items():
            out_p = self.out_stats[p]
            count_p = self.count[p]
            old_sq = 0.0
            old_dims = 0
            for t in (u, v):
                stats = out_p.pop(t, None)
                if stats is not None:
                    old_sq += stats[1] - (stats[0] * stats[0]) / count_p
                    old_dims += 1
            out_p[u] = (sp, sqp)
            new_sq = sqp - (sp * sp) / count_p
            self.cluster_sq[p] += new_sq - old_sq
            self.total_sq += new_sq - old_sq
            self.num_edges += 1 - old_dims
            self.version[p] = self.version.get(p, 0) + 1

        # 5. Invalidate heap entries touching u, its parents, its children.
        self.version[u] = self.version.get(u, 0) + 1
        self.version.pop(v, None)
        for child in self.out_stats[u]:
            if child != u:
                self.version[child] = self.version.get(child, 0) + 1
        return u

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_treesketch(self) -> TreeSketch:
        """Freeze the current partition into a TreeSketch synopsis.

        Nodes go in by ascending id and each node's edges by ascending
        target: the order the JSON and ``.tsb`` loaders rebuild.  The
        estimators sum floats in table order, so any other order lets the
        built sketch answer differently from its own saved copy.
        """
        sketch = TreeSketch()
        ids = sorted(self.cluster_label)
        for cid in ids:
            sketch.add_node(cid, self.cluster_label[cid], self.count[cid])
        for cid in ids:
            count = self.count[cid]
            out = self.out_stats[cid]
            for t in sorted(out):
                s, sq = out[t]
                sketch.add_edge(cid, t, s / count)
                sketch.stats[(cid, t)] = (s, sq)
        sketch.root_id = self.root_cluster()
        sketch.doc_height = self.doc_height()
        sketch.members = {cid: set(self.members[cid]) for cid in ids}
        return sketch

    def check_invariants(self) -> None:
        """Expensive consistency audit used by the test suite."""
        # Edge count bookkeeping.
        actual_edges = sum(len(out) for out in self.out_stats.values())
        assert actual_edges == self.num_edges, (actual_edges, self.num_edges)
        # Cluster counts vs. members.
        for cid, mem in self.members.items():
            assert self.count[cid] == sum(self.s_count[s] for s in mem)
            for s_id in mem:
                assert self.assign[s_id] == cid
        # gs grouping matches stable adjacency under current assignment.
        for s_id, grouped in self.gs.items():
            expected: Dict[int, float] = {}
            for dst, k in self.source_out(s_id).items():
                c = self.assign[dst]
                expected[c] = expected.get(c, 0.0) + float(k)
            assert grouped == expected, (s_id, grouped, expected)
        # Stats match a from-scratch recomputation.
        for cid, mem in self.members.items():
            fresh: Dict[int, List[float]] = {}
            for s_id in mem:
                sc = self.s_count[s_id]
                for t, k in self.gs[s_id].items():
                    acc = fresh.setdefault(t, [0.0, 0.0])
                    acc[0] += sc * k
                    acc[1] += sc * k * k
            stored = self.out_stats[cid]
            assert set(fresh) == set(stored), (cid, set(fresh), set(stored))
            for t, (a, b) in fresh.items():
                sa, sb = stored[t]
                assert abs(a - sa) < 1e-6 and abs(b - sb) < 1e-6
