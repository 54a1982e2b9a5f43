"""Online approximation-quality telemetry: the shadow accuracy sampler.

The daemon trades exactness for speed -- that is the paper's whole
bargain -- but until now nothing measured how good the shipped answers
actually are under live traffic.  The sampler closes that loop: for a
configurable fraction of served ``estimate``/``eval`` answers it replays
the query against a designated *reference* (the exact engine over a held
copy of the document, or a lossless stable summary) and records the
relative selectivity error -- the paper's workload error metric,
observed online.

Everything happens off the hot path.  :meth:`ShadowSampler.offer` runs
on the event loop after the response is already computed: it flips a
deterministic sampling accumulator and, on a sampled request, enqueues
``(sketch, query, estimate)`` on a bounded queue -- O(1), no locks
shared with the data plane, no admission slot.  A dedicated daemon
thread drains the queue and runs the (possibly expensive) reference
evaluation; when the queue is full the sample is dropped and counted,
never blocked on.  A slow or wedged reference therefore degrades the
*telemetry*, not the serving.

Samples carry the answering entry's query cache and its **epoch** read
before the answer.  A live ``update`` (or a forced re-merge) publishes a
new snapshot and bumps that epoch; a queued sample scored after it would
compare a pre-mutation estimate against the post-mutation reference and
report bogus drift.  The drain thread therefore drops any sample whose
cache epoch has moved (``serve.accuracy.stale_dropped``) instead of
scoring it, whatever bumped the epoch.

Metrics: ``serve.accuracy.sampled`` / ``.evaluated`` / ``.dropped`` /
``.stale_dropped`` / ``.failed`` counters and the
``serve.accuracy.rel_error`` histogram (plus windowed
``serve.accuracy.rel_error.window``).  The sampler also keeps plain-int
mirrors of its tallies so ``/statusz`` can report them even when the obs
registry is disabled.  When an :class:`repro.obs.accuracy.AccuracyLedger`
is attached, every scored sample is folded into the sketch's error
budget as well.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Optional

from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.qcache import QueryCache
from repro.core.stable import StableSummary
from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics
from repro.query.twig import TwigQuery

__all__ = ["ShadowSampler", "load_reference", "relative_error"]


def relative_error(estimate: float, truth: float) -> float:
    """The paper's sanity-bounded relative selectivity error."""
    return abs(float(estimate) - float(truth)) / max(abs(float(truth)), 1.0)


def load_reference(path: str) -> Callable[[TwigQuery], float]:
    """Build a reference estimator from a file path.

    ``*.xml`` loads the document and answers with the exact engine
    (ground truth); anything else is loaded as a synopsis -- a stable
    summary is promoted to its zero-error sketch, so pointing at the
    build-time stable summary measures pure compression error.
    """
    if path.endswith(".xml"):
        from repro.engine.exact import ExactEvaluator
        from repro.xmltree.parser import parse_xml_file

        evaluator = ExactEvaluator(parse_xml_file(path))
        return lambda query: float(evaluator.selectivity(query))
    from repro.core.io import load_synopsis

    synopsis = load_synopsis(path)
    if isinstance(synopsis, StableSummary):
        synopsis = TreeSketch.from_stable(synopsis)
    if not isinstance(synopsis, TreeSketch):
        raise TypeError(
            f"unsupported reference synopsis type {type(synopsis).__name__}")
    return lambda query: estimate_selectivity(eval_query(synopsis, query))


class ShadowSampler:
    """Samples served answers and scores them against a reference.

    ``fraction`` in ``[0, 1]`` selects every ``1/fraction``-th offered
    answer via a deterministic accumulator (no RNG: a 10% fraction
    samples exactly every 10th answer, which tests can pin).  ``0``
    disables sampling entirely -- the default posture; the daemon only
    constructs a sampler when explicitly configured.
    """

    def __init__(self, reference: Callable[[TwigQuery], float],
                 fraction: float, max_queue: int = 256,
                 window_s: float = 300.0, ledger=None,
                 eval_delay_s: float = 0.0) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.reference = reference
        self.fraction = float(fraction)
        self.window_s = float(window_s)
        self.ledger = ledger
        # Test-only knob (cf. handler_delay_s): holds each drained sample
        # before scoring so staleness races are deterministic in CI.
        self.eval_delay_s = float(eval_delay_s)
        self._accumulator = 0.0
        self._queue: "queue.Queue[Optional[tuple]]" = queue.Queue(max_queue)
        self._thread: Optional[threading.Thread] = None
        # Plain-int mirrors so /statusz reports even with obs disabled.
        self.sampled_total = 0
        self.evaluated_total = 0
        self.dropped_total = 0
        self.stale_dropped_total = 0
        self.failed_total = 0
        self.error_sum = 0.0
        self.error_max = 0.0
        self.last_error: Optional[float] = None

    # ------------------------------------------------------------- hot path

    def offer(self, sketch_name: str, query: TwigQuery, estimate: float,
              cache: Optional[QueryCache] = None,
              epoch: Optional[int] = None) -> bool:
        """Maybe enqueue one served answer for shadow scoring.

        Called on the event loop after the response is finalized: a
        deterministic accumulator decides sampling, and the enqueue is
        non-blocking -- a full queue drops the sample (counted) rather
        than slowing the request path.  ``cache`` is the answering
        entry's query cache and ``epoch`` its epoch read before the
        answer; the sample is dropped as stale if that epoch has moved
        when it is scored.  Returns whether the answer was enqueued.
        """
        self._accumulator += self.fraction
        if self._accumulator < 1.0:
            return False
        self._accumulator -= 1.0
        self.sampled_total += 1
        get_metrics().counter("serve.accuracy.sampled").inc()
        try:
            self._queue.put_nowait(
                (sketch_name, query, float(estimate), cache, epoch))
        except queue.Full:
            self.dropped_total += 1
            get_metrics().counter("serve.accuracy.dropped").inc()
            return False
        return True

    # -------------------------------------------------------- shadow thread

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            sketch_name, query, estimate, cache, epoch = item
            metrics = get_metrics()
            if self.eval_delay_s > 0.0:
                time.sleep(self.eval_delay_s)
            if cache is not None and cache.epoch != epoch:
                self.stale_dropped_total += 1
                metrics.counter("serve.accuracy.stale_dropped").inc()
                continue
            try:
                truth = self.reference(query)
            except Exception:  # noqa: BLE001 - telemetry must not die
                self.failed_total += 1
                metrics.counter("serve.accuracy.failed").inc()
                continue
            error = relative_error(estimate, truth)
            self.evaluated_total += 1
            self.error_sum += error
            self.error_max = max(self.error_max, error)
            self.last_error = error
            metrics.counter("serve.accuracy.evaluated").inc()
            metrics.histogram("serve.accuracy.rel_error").observe(error)
            metrics.windowed("serve.accuracy.rel_error.window",
                             window_s=self.window_s).observe(error)
            if self.ledger is not None:
                self.ledger.record(sketch_name, error)

    def start(self) -> "ShadowSampler":
        if self._thread is not None:
            raise RuntimeError("shadow sampler is already started")
        self._thread = threading.Thread(
            target=self._drain, name="repro-serve-shadow", daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is None:
            return
        self._queue.put(None)  # sentinel: drain what is queued, then exit
        self._thread.join(timeout)
        self._thread = None

    # ------------------------------------------------------------ reporting

    def info(self) -> Dict[str, Any]:
        """Tallies and error aggregates for ``/statusz`` and ``stats``."""
        evaluated = self.evaluated_total
        return {
            "fraction": self.fraction,
            "sampled": self.sampled_total,
            "evaluated": evaluated,
            "dropped": self.dropped_total,
            "stale_dropped": self.stale_dropped_total,
            "failed": self.failed_total,
            "pending": self._queue.qsize(),
            "rel_error_mean": (self.error_sum / evaluated) if evaluated else None,
            "rel_error_max": self.error_max if evaluated else None,
            "rel_error_last": self.last_error,
        }
