"""Running synopses against workloads and scoring them.

Two quality measures, matching the paper's two experiments:

* :func:`run_answer_quality` -- average ESD between true and approximate
  nesting trees (Fig. 11);
* :func:`run_selectivity` -- average sanity-bounded relative selectivity
  error (Figs. 12-13).

Both accept any synopsis with the TreeSketch evaluation interface
(TreeSketch itself, or a TwigXSketch via its answer/estimation functions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.expand import ExpansionLimitError, expand_result
from repro.core.qcache import QueryCache, resolve_cache
from repro.core.treesketch import TreeSketch
from repro.engine.nesting import NestingTree
from repro.metrics.esd import ESDCalculator, esd_nesting_trees
from repro.obs import get_clock, get_metrics, get_tracer
from repro.query.twig import TwigQuery
from repro.workload.workload import Workload
from repro.xsketch.answers import sampled_answer
from repro.xsketch.synopsis import TwigXSketch, xsketch_selectivity


@dataclass
class SelectivityQuality:
    """Result of a selectivity run: average error and timing."""

    avg_error: float
    per_query: List[float]
    seconds: float


@dataclass
class AnswerQuality:
    """Result of an answer-quality run: average ESD and timing."""

    avg_esd: float
    per_query: List[float]
    failures: int
    seconds: float


def _estimator_for(
    synopsis, cache: Optional[QueryCache] = None
) -> Callable[[TwigQuery], float]:
    if isinstance(synopsis, TwigXSketch):
        return lambda q: xsketch_selectivity(synopsis, q)
    if isinstance(synopsis, TreeSketch):
        if cache is not None:
            return cache.selectivity
        return lambda q: estimate_selectivity(eval_query(synopsis, q))
    raise TypeError(f"unsupported synopsis type {type(synopsis).__name__}")


def _answerer_for(synopsis, seed: int, max_nodes: int,
                  cache: Optional[QueryCache] = None):
    if isinstance(synopsis, TwigXSketch):
        return lambda q: sampled_answer(synopsis, q, seed=seed, max_nodes=max_nodes)
    if isinstance(synopsis, TreeSketch):
        # Variance-aware expansion: the synopsis' sufficient statistics
        # shape per-occurrence counts (see repro.core.expand).  Cached
        # result sketches are read-only inputs to the expansion.
        if cache is not None:
            return lambda q: expand_result(
                cache.result(q), max_nodes=max_nodes, sketch=synopsis
            )
        return lambda q: expand_result(
            eval_query(synopsis, q), max_nodes=max_nodes, sketch=synopsis
        )
    raise TypeError(f"unsupported synopsis type {type(synopsis).__name__}")


def _score_selectivity(
    estimator: Callable[[TwigQuery], float],
    workload: Workload,
    queries: Optional[Sequence[int]],
) -> SelectivityQuality:
    """The timed selectivity-scoring loop shared by local and remote runs."""
    indices = list(queries) if queries is not None else list(range(len(workload)))
    clock = get_clock()
    latencies = get_metrics().histogram("workload.selectivity.query_seconds")
    truths = workload.truths  # force ground truth outside the timed region
    pairs: List[tuple] = []
    with get_tracer().span("workload.run_selectivity", queries=len(indices)):
        start = clock.now()
        for i in indices:
            q_start = clock.now()
            estimate = estimator(workload.queries[i])
            latencies.observe(clock.now() - q_start)
            pairs.append((float(truths[i]), estimate))
        seconds = clock.now() - start
    get_metrics().counter("workload.selectivity.queries").inc(len(indices))
    from repro.metrics.error import workload_errors

    per_query = workload_errors(pairs)
    return SelectivityQuality(
        avg_error=sum(per_query) / len(per_query),
        per_query=per_query,
        seconds=seconds,
    )


def run_selectivity(
    synopsis,
    workload: Workload,
    queries: Optional[Sequence[int]] = None,
    cache: Optional[Union[QueryCache, int]] = None,
) -> SelectivityQuality:
    """Average sanity-bounded relative error over (a slice of) a workload.

    ``cache`` enables canonical-query LRU caching on TreeSketch synopses:
    pass an int capacity for a fresh :class:`QueryCache` or an existing
    cache to share across runs (ignored for other synopsis types).
    """
    qcache = resolve_cache(synopsis, cache)
    estimator = _estimator_for(synopsis, qcache)
    return _score_selectivity(estimator, workload, queries)


def run_selectivity_remote(
    client,
    workload: Workload,
    sketch: Optional[str] = None,
    queries: Optional[Sequence[int]] = None,
    deadline_ms: Optional[float] = None,
    request_id_prefix: Optional[str] = None,
) -> SelectivityQuality:
    """Replay a workload against a running serving daemon.

    ``client`` is a :class:`repro.serve.client.ServeClient`; each query
    is sent as an ``estimate`` request (its canonical text form), so the
    scored numbers are exactly what a network caller would see --
    per-query latencies include the wire.  Ground truth is still computed
    locally from the workload's document.  Server-side errors
    (``overloaded``, ``deadline_exceeded``, ...) propagate as
    :class:`repro.serve.client.ServerError`.

    ``request_id_prefix`` tags the replay for end-to-end correlation:
    the n-th request goes out as ``request_id="<prefix>-<n>"``, so the
    matching ``serve.request``/``serve.execute`` spans in the server's
    trace file can be joined back to workload positions.
    """
    sent = itertools.count()

    def estimator(q: TwigQuery) -> float:
        request_id = (f"{request_id_prefix}-{next(sent)}"
                      if request_id_prefix is not None else None)
        return client.estimate(str(q), sketch=sketch,
                               deadline_ms=deadline_ms,
                               request_id=request_id)

    return _score_selectivity(estimator, workload, queries)


def run_answer_quality(
    synopsis,
    workload: Workload,
    queries: Optional[Sequence[int]] = None,
    calculator: Optional[ESDCalculator] = None,
    seed: int = 0,
    max_nodes: int = 3_000_000,
    cache: Optional[Union[QueryCache, int]] = None,
) -> AnswerQuality:
    """Average ESD between true and approximate nesting trees.

    Queries whose approximate answer exceeds ``max_nodes`` are counted in
    ``failures`` and skipped (this parallels the practical cut-off any
    interactive system applies to runaway previews).  ``cache`` is as in
    :func:`run_selectivity` (result sketches cached; expansion still runs
    per call, as it is seed-dependent).
    """
    answerer = _answerer_for(synopsis, seed, max_nodes,
                             resolve_cache(synopsis, cache))
    calc = calculator or ESDCalculator()
    indices = list(queries) if queries is not None else list(range(len(workload)))
    clock = get_clock()
    metrics = get_metrics()
    latencies = metrics.histogram("workload.answer_quality.query_seconds")
    esds: List[float] = []
    failures = 0
    with get_tracer().span("workload.run_answer_quality", queries=len(indices)):
        start = clock.now()
        for i in indices:
            truth: NestingTree = workload.evaluator.evaluate(workload.queries[i])
            q_start = clock.now()
            try:
                approx = answerer(workload.queries[i])
            except ExpansionLimitError:
                failures += 1
                latencies.observe(clock.now() - q_start)
                continue
            # The histogram times answer production only; ESD scoring is
            # harness overhead, not part of the measured system.
            latencies.observe(clock.now() - q_start)
            esds.append(esd_nesting_trees(truth, approx, calculator=calc))
        seconds = clock.now() - start
    metrics.counter("workload.answer_quality.queries").inc(len(indices))
    metrics.counter("workload.answer_quality.failures").inc(failures)
    avg = sum(esds) / len(esds) if esds else float("nan")
    return AnswerQuality(avg_esd=avg, per_query=esds, failures=failures, seconds=seconds)
