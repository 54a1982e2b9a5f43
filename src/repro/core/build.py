"""TSBUILD: compressing the count-stable summary to a space budget (Fig. 5).

The builder maintains a min-heap of candidate merges ordered by the
marginal-gain ratio ``errd / sized`` (least squared-error increase per byte
saved).  It repeatedly applies the best merge, rewrites heap entries whose
operands were absorbed, and recomputes entries whose neighbourhood changed
(the paper's ``affected(h, m)`` set -- realized here with per-cluster
version stamps and lazy recomputation at pop time).  When the heap drains
below ``Lh`` the pool is regenerated via CREATEPOOL; the loop ends when the
synopsis fits the budget or no merges remain.

Heap entries are ordered by the *canonical* tuple ``(ratio, errd, sized,
u, v, ver_u, ver_v)`` -- no insertion-order tiebreak -- so the merge
sequence is a function of the candidate *set* alone.  That is what lets
the incremental pool generator (repro.core.pool), which may produce
candidates in a different order, build byte-identical sketches;
tests/test_build_equivalence.py holds it to that.

Every non-reference build scores through the partition's versioned merge
memo and keeps a :class:`~repro.core.pool.PoolState` across pool
regenerations (docs/PERFORMANCE.md); ``reference=True`` restores the seed
code paths end to end and serves as the benchmark baseline.
"""

from __future__ import annotations

import gc
import heapq
import logging
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.kernel import KernelPartition
from repro.core.partition import MergePartition
from repro.core.pool import PoolState, create_pool, create_pool_reference
from repro.core.stable import StableSummary, build_stable
from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics, get_tracer
from repro.xmltree.tree import XMLTree

logger = logging.getLogger(__name__)

#: Stable-summary edge density (edges per class) at and above which
#: ``kernel="auto"`` prefers the dict-backed partition.  Merged-dims-
#: dominated shapes (IMDB-like: densities 5-6.5) spend their time copying
#: and folding wide out-dimension maps, where CPython's C-level dict ops
#: beat the array kernel's per-slot loops by ~1.2x; child-light shapes
#: (XMark-like: densities 2.5-3.2) stay on the kernel.  Output is
#: bit-identical either way, so this is purely a speed heuristic.
AUTO_DICTS_DENSITY = 4.0


@dataclass
class TSBuildOptions:
    """Tuning knobs of TSBUILD.

    ``heap_upper`` / ``heap_lower`` are the paper's ``Uh`` / ``Lh`` (the
    experiments use 10000 / 100).  ``pair_window`` bounds candidate
    generation within large (label, depth) groups (``None`` = exhaustive,
    see CREATEPOOL).  ``drain_fraction`` regenerates the pool once this
    fraction of it remains: merges applied early change which candidates
    are worthwhile, and refreshing the pool before it runs dry measurably
    improves synopsis quality at negligible cost (see the pool ablation).
    ``stop_when_full`` restores Fig. 6's literal early termination of
    candidate generation.

    ``kernel`` picks the partition backend (output is bit-identical
    either way; docs/PERFORMANCE.md): ``"arrays"`` is the flat-array
    :class:`repro.core.kernel.KernelPartition`, ``"dicts"`` the
    dict-backed :class:`MergePartition`, and ``"auto"`` (default) picks
    dicts for merged-dims-dominated summaries (stable edge density of
    ``AUTO_DICTS_DENSITY`` or more -- the IMDB shape), otherwise arrays
    whenever the summary has dense ids (always true for ``build_stable``
    output), falling back to dicts for sparse ids.

    ``reference`` runs the seed scorer and from-scratch CREATEPOOL
    verbatim, without the merge memo or pool state (benchmark baseline
    and equivalence oracle; implies the dict-backed partition).
    """

    heap_upper: int = 10_000
    heap_lower: int = 100
    pair_window: Optional[int] = 32
    drain_fraction: float = 0.5
    stop_when_full: bool = False
    kernel: str = "auto"
    reference: bool = False


class TreeSketchBuilder:
    """Incrementally compresses one document's stable summary.

    Reusable across decreasing budgets: ``compress_to`` continues merging
    from the current state, so a sweep over budgets (as in the paper's
    figures) costs one construction pass.
    """

    def __init__(
        self,
        source: Union[XMLTree, StableSummary],
        options: Optional[TSBuildOptions] = None,
        *,
        partition: Optional[MergePartition] = None,
    ) -> None:
        stable = source if isinstance(source, StableSummary) else build_stable(source)
        self.stable = stable
        self.options = options or TSBuildOptions()
        # A pre-built partition (e.g. repro.core.live.LivePartition) lets a
        # caller keep mutating the state TSBUILD compressed; otherwise the
        # backend is chosen by ``options.kernel``.
        self.partition = partition if partition is not None \
            else self._make_partition(stable)
        self.merges_applied = 0
        #: Whether the most recent ``compress_to`` call met its budget.
        self.reached_budget = False
        # Forwarding chains for clusters absorbed by merges.
        self._merged_into: Dict[int, int] = {}
        self._pool_state: Optional[PoolState] = None
        if not self.options.reference:
            self.partition.enable_memo()

    def _make_partition(self, stable: StableSummary):
        """Instantiate the partition backend selected by ``options.kernel``."""
        opts = self.options
        kernel = opts.kernel
        if kernel not in ("auto", "arrays", "dicts"):
            raise ValueError(
                f"unknown kernel {kernel!r} "
                "(expected 'arrays', 'dicts' or 'auto')"
            )
        if opts.reference or kernel == "dicts":
            # The reference path scores through evaluate_merge_reference,
            # which lives on the dict-backed partition.
            return MergePartition(stable)
        if kernel == "arrays":
            return KernelPartition(stable)
        # auto: dicts for merged-dims-dominated shapes, else arrays when
        # the summary has dense ids, falling back to dicts otherwise.
        num_classes = max(1, len(stable.count))
        if stable.num_edges / num_classes >= AUTO_DICTS_DENSITY:
            return MergePartition(stable)
        try:
            return KernelPartition(stable)
        except ValueError:
            return MergePartition(stable)

    # ------------------------------------------------------------------

    def size_bytes(self) -> int:
        return self.partition.size_bytes()

    def squared_error(self) -> float:
        return self.partition.total_sq

    # ------------------------------------------------------------------
    # Merge-memo persistence (cache sidecars; docs/STORAGE.md)
    # ------------------------------------------------------------------

    def memo_signature(self) -> str:
        """Fingerprint of every option that shapes the merge sequence.

        A persisted memo entry is only sound if the build that reads it
        walks the same merge sequence that produced its version stamps,
        so sidecars key memo payloads on this signature.  ``kernel`` is
        deliberately excluded: the equivalence tests pin both backends
        bit-identical.
        """
        opts = self.options
        return ("v1:heap_upper={0},heap_lower={1},pair_window={2},"
                "drain_fraction={3!r},stop_when_full={4}").format(
            opts.heap_upper, opts.heap_lower, opts.pair_window,
            opts.drain_fraction, opts.stop_when_full)

    def export_memo(self) -> List[list]:
        """The merge-score memo as JSON-ready rows.

        Each row is ``[u, v, ver_u, ver_v, ratio, errd, sized]``; floats
        survive the JSON round trip exactly, so a seeded build scores --
        and therefore merges -- bit-identically to the build that
        exported the memo.
        """
        memo = self.partition.merge_memo
        if not memo:
            return []
        return [[u, v, e[0], e[1], e[2], e[3], e[4]]
                for (u, v), e in memo.items()]

    def seed_memo(self, rows: Iterable[Sequence]) -> int:
        """Warm the merge-score memo from :meth:`export_memo` rows.

        Entries whose version stamps never match the seeded build's
        state are simply overwritten on first rescore -- the same
        invalidation discipline live memoization uses -- so a wrong or
        partial memo can cost time, never correctness.  Callers must
        gate rows on :meth:`memo_signature`.  Returns the number of
        entries loaded.
        """
        self.partition.enable_memo()
        memo = self.partition.merge_memo
        loaded = 0
        for u, v, ver_u, ver_v, ratio, errd, sized in rows:
            memo[(u, v)] = (ver_u, ver_v, ratio, errd, sized)
            loaded += 1
        return loaded

    def _resolve(self, cid: int) -> int:
        """Follow forwarding pointers to the surviving cluster id."""
        seen = []
        while cid in self._merged_into:
            seen.append(cid)
            cid = self._merged_into[cid]
        for s in seen:  # path compression
            self._merged_into[s] = cid
        return cid

    def _generate_pool(self, part):
        opts = self.options
        if opts.reference:
            return create_pool_reference(
                part, opts.heap_upper, opts.pair_window, opts.stop_when_full
            )
        if self._pool_state is None:
            self._pool_state = PoolState(part)
        return create_pool(
            part, opts.heap_upper, opts.pair_window, opts.stop_when_full,
            state=self._pool_state,
        )

    def _apply_merge(self, part, u: int, v: int) -> None:
        """Apply one merge and keep the incremental pool state in step."""
        state = self._pool_state
        if state is not None:
            label_u = part.cluster_label[u]
            label_v = part.cluster_label[v]
            depth_u = part.cluster_depth[u]
            depth_v = part.cluster_depth[v]
            part.apply_merge(u, v)
            state.on_merge(
                label_u, label_v, u, v, depth_u, depth_v, part.cluster_depth[u]
            )
        else:
            part.apply_merge(u, v)
        self._merged_into[v] = u
        self.merges_applied += 1

    def compress_to(self, budget_bytes: int) -> TreeSketch:
        """Merge until ``size <= budget_bytes`` (or no merges remain).

        Returns the TreeSketch snapshot of the resulting partition.
        """
        opts = self.options
        part = self.partition
        metrics = get_metrics()
        pool_regens = metrics.counter("tsbuild.pool_regenerations")
        # Register the drain-loop counters up front so a build that never
        # merges (budget already met) still reports them at zero.
        metrics.counter("tsbuild.merges_applied")
        metrics.counter("tsbuild.heap_pops")
        metrics.counter("tsbuild.stale_recomputations")
        memo_hits = metrics.counter("tsbuild.memo_hits")
        memo_misses = metrics.counter("tsbuild.memo_misses")
        hits_before, misses_before = part.memo_hits, part.memo_misses
        # Which partition backend served this build (see options.kernel).
        if isinstance(part, KernelPartition):
            metrics.counter("tsbuild.kernel_arrays").inc()
        else:
            metrics.counter("tsbuild.kernel_dicts").inc()
        state = self._pool_state
        skey_hits_before = state.key_hits if state is not None else 0
        skey_recomputes_before = state.key_recomputes if state is not None else 0
        # The merge loop allocates millions of short-lived tuples and never
        # creates reference cycles, so cyclic GC passes are pure overhead
        # (~15-20% on large builds); suspend collection for the duration.
        manage_gc = not opts.reference and gc.isenabled()
        if manage_gc:
            gc.disable()
        try:
            self._compress_loop(part, budget_bytes, pool_regens)
        finally:
            if manage_gc:
                gc.enable()
        memo_hits.inc(part.memo_hits - hits_before)
        memo_misses.inc(part.memo_misses - misses_before)
        state = self._pool_state
        if state is not None:
            metrics.counter("tsbuild.skey_cache_hits").inc(
                state.key_hits - skey_hits_before
            )
            metrics.counter("tsbuild.skey_recomputes").inc(
                state.key_recomputes - skey_recomputes_before
            )
        logger.info(
            "tsbuild: %d bytes (budget %d), %d nodes, sq %.1f, %d merges total",
            part.size_bytes(), budget_bytes, part.num_nodes,
            part.total_sq, self.merges_applied,
        )
        return part.to_treesketch()

    def _compress_loop(self, part, budget_bytes: int,
                       pool_regens) -> None:
        opts = self.options
        merges_before = self.merges_applied
        version = part.version
        with get_tracer().span("tsbuild.compress_to",
                               budget_bytes=budget_bytes) as span:
            while part.size_bytes() > budget_bytes:
                pool = self._generate_pool(part)
                if not pool:
                    logger.debug(
                        "tsbuild: no candidates left at %d bytes (budget %d)",
                        part.size_bytes(), budget_bytes,
                    )
                    break  # nothing left to merge; budget unreachable
                pool_regens.inc()
                logger.debug(
                    "tsbuild: pool of %d candidates at %d bytes (budget %d, sq %.1f)",
                    len(pool), part.size_bytes(), budget_bytes, part.total_sq,
                )
                heap = [
                    (ratio, errd, sized, u, v,
                     version.get(u, 0), version.get(v, 0))
                    for ratio, errd, sized, u, v in pool
                ]
                heapq.heapify(heap)
                # Refresh the pool after draining (1 - drain_fraction) of it;
                # on small inputs the whole pool fits under Lh, so fall back to
                # draining fully rather than regenerating without progress.
                lower = int(len(heap) * opts.drain_fraction)
                if len(heap) > opts.heap_lower:
                    lower = max(lower, opts.heap_lower)
                progressed = self._drain_heap(heap, budget_bytes, lower)
                if not progressed:
                    break  # defensive: avoid spinning if the pool yields nothing
            self.reached_budget = part.size_bytes() <= budget_bytes
            span.annotate(
                size_bytes=part.size_bytes(),
                num_nodes=part.num_nodes,
                merges=self.merges_applied - merges_before,
                reached_budget=self.reached_budget,
            )

    def _drain_heap(self, heap: List, budget_bytes: int, lower: int) -> bool:
        """Apply merges from ``heap`` until budget met or heap low.

        Returns True iff at least one merge was applied.
        """
        part = self.partition
        reference = self.options.reference
        metrics = get_metrics()
        heap_pops = metrics.counter("tsbuild.heap_pops")
        stale = metrics.counter("tsbuild.stale_recomputations")
        merges = metrics.counter("tsbuild.merges_applied")
        version = part.version
        applied = 0
        # Partition size only changes when a merge is applied; track it
        # locally instead of recomputing per pop.
        size = part.size_bytes()
        while heap and len(heap) > lower and size > budget_bytes:
            ratio, errd, sized, u, v, ver_u, ver_v = heapq.heappop(heap)
            heap_pops.inc()
            u, v = self._resolve(u), self._resolve(v)
            if u == v:
                continue  # operands already merged together
            cur_u, cur_v = version.get(u, 0), version.get(v, 0)
            if (ver_u, ver_v) != (cur_u, cur_v):
                # Stale (operand rewritten or neighbourhood changed):
                # recompute the metrics and re-queue with fresh stamps.
                stale.inc()
                if reference:
                    result = part.evaluate_merge_reference(u, v)
                    if result.sized <= 0:
                        continue  # non-improving by definition: drop it
                    entry = (result.ratio, result.errd, result.sized,
                             u, v, cur_u, cur_v)
                else:
                    scored = part.scored_merge(u, v)
                    if scored[2] <= 0:
                        continue  # non-improving by definition: drop it
                    entry = scored + (u, v, cur_u, cur_v)
                heapq.heappush(heap, entry)
                continue
            self._apply_merge(part, u, v)
            size = part.size_bytes()
            merges.inc()
            applied += 1
        return applied > 0


def build_treesketch(
    source: Union[XMLTree, StableSummary],
    budget_bytes: int,
    options: Optional[TSBuildOptions] = None,
) -> TreeSketch:
    """One-shot TSBUILD: compress ``source`` to at most ``budget_bytes``.

    ``source`` may be a document tree (the stable summary is built first)
    or a pre-built :class:`StableSummary`.
    """
    return TreeSketchBuilder(source, options).compress_to(budget_bytes)


def compress_to_budgets(
    source: Union[XMLTree, StableSummary],
    budgets_bytes: Iterable[int],
    options: Optional[TSBuildOptions] = None,
) -> Dict[int, TreeSketch]:
    """Build TreeSketches for several budgets in one compression pass.

    Budgets are visited in decreasing order (merging is monotone), and the
    result maps each requested budget to its sketch.
    """
    builder = TreeSketchBuilder(source, options)
    sketches: Dict[int, TreeSketch] = {}
    for budget in sorted(set(budgets_bytes), reverse=True):
        sketches[budget] = builder.compress_to(budget)
    return sketches
