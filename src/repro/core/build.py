"""TSBUILD: compressing the count-stable summary to a space budget (Fig. 5).

The builder maintains a min-heap of candidate merges ordered by the
marginal-gain ratio ``errd / sized`` (least squared-error increase per byte
saved).  It repeatedly applies the best merge, rewrites heap entries whose
operands were absorbed, and recomputes entries whose neighbourhood changed
(the paper's ``affected(h, m)`` set -- realized here with per-cluster
version stamps and lazy recomputation at pop time).  When the heap drains
below ``Lh`` the pool is regenerated via CREATEPOOL; the loop ends when the
synopsis fits the budget or no merges remain.  Live maintenance's local
re-merges run the same CREATEPOOL and drain over one cluster region
(:meth:`TreeSketchBuilder.merge_region`).

Heap entries are ordered by the *canonical* tuple ``(ratio, errd, sized,
u, v, ver_u, ver_v)`` -- no insertion-order tiebreak -- so the merge
sequence is a function of the candidate *set* alone.  That is what lets
the optimized pool generator (repro.core.pool), which may produce
candidates in a different order, build byte-identical sketches;
tests/test_build_equivalence.py holds it to that.

Every non-reference build scores through the partition's versioned merge
memo (docs/PERFORMANCE.md); ``reference=True`` restores the seed code
paths end to end and serves as the benchmark baseline.
"""

from __future__ import annotations

import gc
import heapq
import logging
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Optional, Union

from repro.core.kernel import KernelPartition
from repro.core.partition import MergePartition
from repro.core.pool import create_pool, create_pool_reference
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

    ``reference`` runs the seed scorer and CREATEPOOL verbatim, without
    the merge memo (benchmark baseline and equivalence oracle; implies the
    dict-backed partition).

    Values that would crash or silently stop a build raise ValueError
    here: ``heap_upper < 1``, ``heap_lower < 0``, ``drain_fraction``
    outside ``[0, 1)``, ``pair_window < 1`` and an unknown ``kernel``.
    """

    heap_upper: int = 10_000
    heap_lower: int = 100
    pair_window: Optional[int] = 32
    drain_fraction: float = 0.5
    stop_when_full: bool = False
    kernel: str = "auto"
    reference: bool = False

    def __post_init__(self) -> None:
        if self.heap_upper < 1:
            raise ValueError(f"heap_upper must be >= 1, got {self.heap_upper!r}")
        if self.heap_lower < 0:
            raise ValueError(f"heap_lower must be >= 0, got {self.heap_lower!r}")
        if not 0.0 <= self.drain_fraction < 1.0:
            raise ValueError(
                f"drain_fraction must be in [0, 1), got {self.drain_fraction!r}")
        if self.pair_window is not None and self.pair_window < 1:
            raise ValueError(
                f"pair_window must be None or >= 1, got {self.pair_window!r}")
        if self.kernel not in ("auto", "arrays", "dicts"):
            raise ValueError(
                f"unknown kernel {self.kernel!r} "
                "(expected 'arrays', 'dicts' or 'auto')"
            )


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
        if not self.options.reference:
            self.partition.enable_memo()

    def _make_partition(self, stable: StableSummary):
        """Instantiate the partition backend selected by ``options.kernel``."""
        opts = self.options
        kernel = opts.kernel
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

    def _resolve(self, cid: int) -> int:
        """Follow forwarding pointers to the surviving cluster id."""
        merged_into = self._merged_into
        root = cid
        while root in merged_into:
            root = merged_into[root]
        while cid != root:  # path compression
            merged_into[cid], cid = root, merged_into[cid]
        return root

    def _generate_pool(self, part):
        opts = self.options
        generate = create_pool_reference if opts.reference else create_pool
        return generate(
            part, opts.heap_upper, opts.pair_window, opts.stop_when_full
        )

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

    def merge_region(self, region: Collection[int], budget_bytes: int) -> None:
        """A local re-merge: CREATEPOOL over the live clusters in
        ``region`` only, exhaustive and uncapped (every same-label pair),
        drained once; under budget the drain keeps applying merges that do
        not raise the error (ratio <= 0)."""
        part = self.partition
        hits, misses = part.memo_hits, part.memo_misses
        version = part.version
        heap = [(ratio, errd, sized, u, v, version.get(u, 0), version.get(v, 0))
                for ratio, errd, sized, u, v in create_pool(
                    part, len(region) ** 2, None, clusters=region)]
        heapq.heapify(heap)
        self._drain_heap(heap, budget_bytes, 0, free_merges=True)
        metrics = get_metrics()
        metrics.counter("tsbuild.memo_hits").inc(part.memo_hits - hits)
        metrics.counter("tsbuild.memo_misses").inc(part.memo_misses - misses)

    def _drain_heap(self, heap: List, budget_bytes: int, lower: int,
                    free_merges: bool = False) -> bool:
        """Apply merges from ``heap`` until budget met or heap low.

        With ``free_merges`` the drain goes on under budget while the best
        candidate does not raise the error (ratio <= 0).  Returns True iff
        at least one merge was applied.
        """
        part = self.partition
        reference = self.options.reference
        version = part.version
        merged_into = self._merged_into
        heappop, heappush = heapq.heappop, heapq.heappush
        pops = stale = applied = 0
        # Partition size only changes when a merge is applied; track it
        # locally instead of recomputing per pop.
        size = part.size_bytes()
        while heap and len(heap) > lower and (
                size > budget_bytes or (free_merges and heap[0][0] <= 0)):
            ratio, errd, sized, u, v, ver_u, ver_v = heappop(heap)
            pops += 1
            if u in merged_into:
                u = self._resolve(u)
            if v in merged_into:
                v = self._resolve(v)
            if u == v:
                continue  # operands already merged together
            cur_u, cur_v = version.get(u, 0), version.get(v, 0)
            if ver_u != cur_u or ver_v != cur_v:
                # Stale (operand rewritten or neighbourhood changed):
                # recompute the metrics and re-queue with fresh stamps.
                stale += 1
                if reference:
                    result = part.evaluate_merge_reference(u, v)
                    ratio, errd, sized = result.ratio, result.errd, result.sized
                else:
                    ratio, errd, sized = part.scored_merge(u, v)
                if sized <= 0:
                    continue  # non-improving by definition: drop it
                heappush(heap, (ratio, errd, sized, u, v, cur_u, cur_v))
                continue
            part.apply_merge(u, v)
            merged_into[v] = u
            size = part.size_bytes()
            applied += 1
        self.merges_applied += applied
        metrics = get_metrics()
        metrics.counter("tsbuild.heap_pops").inc(pops)
        metrics.counter("tsbuild.stale_recomputations").inc(stale)
        metrics.counter("tsbuild.merges_applied").inc(applied)
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
