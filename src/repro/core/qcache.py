"""Canonical-query LRU caching for serving approximate answers.

Interactive workloads repeat queries (dashboards, refinement loops), and a
TreeSketch is frozen once built: ``eval_query`` / ``estimate_selectivity``
are pure functions of ``(sketch, query)``.  :class:`QueryCache` therefore
memoizes both behind the query's *canonical text form* -- ``str(query)``
renders the twig deterministically, so structurally identical queries
parsed from different strings share one entry.

Result sketches are returned by reference: every consumer in this codebase
(:func:`repro.core.estimate.estimate_selectivity`,
:func:`repro.core.expand.expand_result`) treats them as read-only, so a
cached :class:`ResultSketch` is safely shared across calls.

Cache traffic is reported through the :mod:`repro.obs` registry as
``eval.cache.hits`` / ``eval.cache.misses`` / ``eval.cache.evictions``, and
``eval.cache.busy_declines`` for lock-free lookups that found the lock held.
See docs/PERFORMANCE.md for sizing guidance.

The cache is **concurrency-safe**: the serving daemon
(:mod:`repro.serve`) hits one instance from its worker pool, so every
lookup/insert runs under an internal lock.  The lock is held across the
underlying ``eval_query`` too -- single-flight semantics: concurrent
requests for the same (or different) queries serialize rather than
duplicating evaluation work, which is the right trade on the single-core
hosts this targets.  Two readers deliberately sidestep that lock:
:meth:`QueryCache.info` falls back to a lock-free (GIL-atomic) snapshot
so the server's control plane never blocks behind a slow query, and
:meth:`QueryCache.peek_selectivity` answers from cache only and declines
when the lock is busy -- the daemon's event loop uses it to answer cache
hits (degraded evals included) without evaluating and without waiting
for a worker, handing everything it declines to the pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.estimate import estimate_selectivity, estimate_selectivity_batch
from repro.core.evaluate import ResultSketch, eval_query
from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics
from repro.query.twig import TwigQuery


class QueryCache:
    """LRU cache of query results over one frozen :class:`TreeSketch`.

    ``maxsize`` bounds the number of distinct canonical queries retained
    (least recently used evicted first); ``maxsize=None`` is unbounded.
    The sketch must not change out from under live entries: when the
    underlying synopsis is mutated or swapped (live maintenance,
    hot-reload), call :meth:`invalidate` -- it atomically drops every
    cached and seeded answer, rebinds the sketch, and bumps ``epoch`` so
    stale answers are never served.
    """

    def __init__(self, sketch: TreeSketch, maxsize: Optional[int] = 256) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 (or None for unbounded)")
        self.sketch = sketch
        self.maxsize = maxsize
        # canonical text -> [ResultSketch, Optional[float] selectivity]
        self._entries: "OrderedDict[str, list]" = OrderedDict()
        # canonical text -> selectivity restored from a cache sidecar
        # (docs/STORAGE.md).  Seeded values answer selectivity lookups
        # without evaluation until the query is evaluated for real; they
        # never satisfy result(), which needs an actual ResultSketch.
        self._seeded: Dict[str, float] = {}
        # Guards entries *and* the hit/miss/eviction tallies; reentrant so
        # selectivity() can call _entry() while holding it.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Bumped by invalidate(); consumers (serve registry) use it to
        # tell pre- from post-mutation answers.
        self.epoch = 0
        self.invalidations = 0

    # ------------------------------------------------------------------

    def _entry(self, query: TwigQuery, key: str) -> list:
        """The LRU entry of ``query`` (canonical text ``key``), evaluated
        on a miss.  Callers render ``key`` once and pass it down."""
        metrics = get_metrics()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                metrics.counter("eval.cache.hits").inc()
                return entry
            self.misses += 1
            metrics.counter("eval.cache.misses").inc()
            entry = [eval_query(self.sketch, query), None]
            self._entries[key] = entry
            if self.maxsize is not None and len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                metrics.counter("eval.cache.evictions").inc()
            return entry

    def result(self, query: TwigQuery) -> ResultSketch:
        """The (cached) result sketch of ``query``; treat as read-only."""
        return self._entry(query, str(query))[0]

    def _seeded_lookup(self, key: str) -> Optional[float]:
        """A sidecar-seeded selectivity for ``key``, counted as a hit.

        Caller must hold the lock and must have already missed in
        ``_entries`` -- live entries win over seeded values (they are
        equal anyway: both are the pure function of (sketch, query)
        computed by the same estimator).
        """
        value = self._seeded.get(key)
        if value is not None:
            self.hits += 1
            get_metrics().counter("eval.cache.hits").inc()
        return value

    def selectivity(self, query: TwigQuery) -> float:
        """The (cached) estimated binding-tuple count of ``query``."""
        key = str(query)
        with self._lock:
            if key not in self._entries:
                seeded = self._seeded_lookup(key)
                if seeded is not None:
                    return seeded
            entry = self._entry(query, key)
            if entry[1] is None:
                entry[1] = estimate_selectivity(entry[0])
            return entry[1]

    def selectivity_batch(self, queries: "Sequence[TwigQuery]") -> "List[float]":
        """Selectivities for many queries under one hold of the lock.

        Result sketches come from the same LRU entries the scalar path
        uses, and the uncached selectivities are filled by
        :func:`repro.core.estimate.estimate_selectivity_batch` -- the
        scalar estimator per entry, so mixing scalar and batch calls over
        one cache can never yield two answers for one query.  Duplicate
        queries in ``queries`` share one cache entry and are estimated
        once.
        """
        with self._lock:
            seeded: Dict[int, float] = {}
            entries: list = []
            for i, query in enumerate(queries):
                key = str(query)
                if key not in self._entries:
                    value = self._seeded_lookup(key)
                    if value is not None:
                        seeded[i] = value
                        entries.append(None)
                        continue
                entries.append(self._entry(query, key))
            missing = []
            for entry in entries:
                if (entry is not None and entry[1] is None
                        and all(e is not entry for e in missing)):
                    missing.append(entry)
            if missing:
                values = estimate_selectivity_batch(
                    [entry[0] for entry in missing])
                for entry, value in zip(missing, values):
                    entry[1] = value
            return [seeded[i] if entry is None else entry[1]
                    for i, entry in enumerate(entries)]

    def peek_selectivity(
        self, query: TwigQuery, with_result: bool = False,
    ) -> "Optional[Union[float, Tuple[float, ResultSketch]]]":
        """Cached-only answer: ``None`` on a miss or lock contention.

        Never calls ``eval_query`` and never waits for the lock: the
        serving daemon answers cache hits with it on its event loop, which
        must neither evaluate nor stall behind a worker's single-flight
        ``eval_query``.  Returns the selectivity, or with ``with_result``
        the pair ``(selectivity, result sketch)`` -- which a sidecar-seeded
        selectivity cannot answer, having no result sketch.  A hit
        memoizes the (cheap) selectivity over the cached result sketch and
        tallies one hit per value returned, as ``selectivity()`` alone or
        ``result()`` then ``selectivity()`` would, so the hit ratio does
        not depend on which path answered.  A miss leaves the miss tally
        untouched because nothing was evaluated.  A lock found held counts
        one ``eval.cache.busy_declines``: the daemon then hands the request
        to its pool whether or not the cache holds the answer.
        """
        key = str(query)
        if not self._lock.acquire(blocking=False):
            get_metrics().counter("eval.cache.busy_declines").inc()
            return None
        try:
            entry = self._entries.get(key)
            if entry is None:
                return None if with_result else self._seeded_lookup(key)
            self._entries.move_to_end(key)
            lookups = 2 if with_result else 1
            self.hits += lookups
            get_metrics().counter("eval.cache.hits").inc(lookups)
            if entry[1] is None:
                entry[1] = estimate_selectivity(entry[0])
            return (entry[1], entry[0]) if with_result else entry[1]
        finally:
            self._lock.release()

    # ------------------------------------------------------------------

    def seed_selectivities(self, entries: "Mapping[str, float]") -> int:
        """Warm the cache with canonical-text -> selectivity pairs.

        Used on daemon restart to restore the selectivities a previous
        process persisted to a ``.tsb.cache`` sidecar (docs/STORAGE.md).
        Seeded pairs are held outside the LRU (they cost a float each,
        not a result sketch) and answer ``selectivity`` /
        ``peek_selectivity`` / ``selectivity_batch`` lookups as cache
        hits until the query is evaluated for real.  Returns the number
        of pairs accepted.
        """
        accepted = {str(k): float(v) for k, v in entries.items()}
        with self._lock:
            self._seeded.update(accepted)
        return len(accepted)

    def export_selectivities(self) -> Dict[str, float]:
        """Every selectivity this cache can answer without evaluating.

        The persistable warm state: live LRU entries with a computed
        selectivity, plus any still-unevaluated seeded pairs.  Result
        sketches are deliberately not exported -- they are cheap to
        recompute and expensive to store.
        """
        with self._lock:
            out = dict(self._seeded)
            for key, entry in self._entries.items():
                if entry[1] is not None:
                    out[key] = entry[1]
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def invalidate(self, sketch: Optional[TreeSketch] = None) -> int:
        """Drop every cached answer; the epoch-bump mutation barrier.

        Called when the underlying synopsis changed (a live registry
        entry published the snapshot after an update or a re-merge).
        Clears both the LRU entries *and* the sidecar-seeded
        selectivities -- seeded values were computed against the old
        synopsis too -- and rebinds ``self.sketch`` when a replacement is
        given, all under the single-flight lock so no in-flight request
        can observe the new sketch with an old answer.  Returns the new
        epoch.
        """
        with self._lock:
            self._entries.clear()
            self._seeded.clear()
            if sketch is not None:
                self.sketch = sketch
            self.epoch += 1
            self.invalidations += 1
            get_metrics().counter("eval.cache.invalidations").inc()
            return self.epoch

    def info(self) -> dict:
        """Hit/miss/eviction totals and current occupancy, for reporting.

        Never blocks: the single-flight lock is held across whole
        ``eval_query`` calls, so a blocking read here would stall the
        serving daemon's control plane (``stats``/``list_sketches``)
        behind a slow query.  If the lock is busy the tallies are read
        without it -- int and ``len`` reads are atomic under the GIL, so
        the worst case is a snapshot one update stale.
        """
        acquired = self._lock.acquire(blocking=False)
        try:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "seeded": len(self._seeded),
                "epoch": self.epoch,
                "invalidations": self.invalidations,
            }
        finally:
            if acquired:
                self._lock.release()


def resolve_cache(
    synopsis, cache: "Optional[QueryCache | int]"
) -> Optional[QueryCache]:
    """Normalize a ``cache`` argument: pass through, build, or disable.

    Accepts an existing :class:`QueryCache`, an int size (a fresh cache of
    that capacity), or None.  Returns None for synopses without the
    TreeSketch evaluation interface (the XSketch baseline estimates
    through its own code path).
    """
    if cache is None:
        return None
    if isinstance(cache, QueryCache):
        return cache
    if not isinstance(synopsis, TreeSketch):
        return None
    return QueryCache(synopsis, maxsize=int(cache))
