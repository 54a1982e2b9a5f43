"""Request coalescing: batched estimates bitwise-equal to the scalar path.

The serving workers group concurrent ``estimate`` ops against the same
sketch into one ``estimate_selectivity_batch`` call (cache hits never get
that far: the event loop answers them).  That is only an optimization if
it is *invisible*: every coalesced answer must be bitwise-identical to
what the scalar path returns, with or without numpy, and the
``serve.batch.*`` counters must prove the batch path actually ran
(otherwise this file would happily pass against a server that silently
fell back to scalar).
"""

import struct
import threading

import pytest

from repro import obs
from repro.core.build import build_treesketch
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.qcache import QueryCache
from repro.core.stable import build_stable
from repro.query.parser import parse_twig
from repro.serve import (
    ServeClient,
    ServeConfig,
    SketchRegistry,
    start_server_thread,
)
from repro.xmltree.tree import XMLTree

QUERIES = ["//a", "//a (//p)", "//a[//b] (//p ?)",
           "//a (//p (//k ?), //n ?)", "//p"]


def _tree() -> XMLTree:
    return XMLTree.from_nested(
        (
            "r",
            [
                ("a", [("p", ["k", "k"]), "n"]),
                ("a", [("p", ["k"]), "n", "n"]),
                ("a", [("b", ["t"])]),
            ],
        )
    )


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.fixture(scope="module")
def sketch():
    # A lossy sketch, so the estimates are non-trivial floats -- exactly
    # the values where a subtly different batch kernel would diverge.
    return build_treesketch(build_stable(_tree()), 220)


@pytest.fixture(scope="module")
def expected(sketch):
    return {query: estimate_selectivity(eval_query(sketch, parse_twig(query)))
            for query in QUERIES}


def _run_concurrent_estimates(port, clients=6):
    """``clients`` threads fire the query list at once; returns answers."""
    barrier = threading.Barrier(clients)
    results, errors = {}, []

    def worker(i):
        try:
            with ServeClient("127.0.0.1", port, retries=5) as client:
                barrier.wait(timeout=10)
                results[i] = [client.estimate(q) for q in QUERIES]
        except Exception as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert not errors, errors
    return results


class TestCoalescedEqualsScalar:
    def test_concurrent_estimates_bitwise_equal_with_batch_counters(
            self, sketch, expected):
        with obs.observed() as metrics:
            registry = SketchRegistry()
            registry.register("x", sketch)
            handle = start_server_thread(registry, ServeConfig(
                port=0, coalesce_window_s=0.05, coalesce_max=32))
            try:
                results = _run_concurrent_estimates(handle.port)
            finally:
                handle.stop()
            truth = [_bits(expected[q]) for q in QUERIES]
            for answers in results.values():
                assert [_bits(v) for v in answers] == truth
            snapshot = metrics.snapshot()
            counters = snapshot["counters"]
            # The batch path really ran, and every estimate was either
            # batched or -- a client that fell behind its batch finds the
            # answer cached -- answered on the event loop.
            assert counters["serve.batch.flushes"] >= 1
            assert (counters["serve.batch.coalesced"]
                    + counters.get("serve.cached_answers", 0)
                    == counters["serve.requests.estimate"]
                    == 6 * len(QUERIES))
            # And it actually coalesced: at least one batch had > 1 member
            # (six clients released by a barrier into a 50 ms window).
            assert snapshot["histograms"]["serve.batch.size"]["max"] >= 2

    def test_concurrent_estimates_without_numpy(self, sketch, expected,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        with obs.observed() as metrics:
            registry = SketchRegistry()
            registry.register("x", sketch)
            handle = start_server_thread(registry, ServeConfig(
                port=0, coalesce_window_s=0.05, coalesce_max=32))
            try:
                results = _run_concurrent_estimates(handle.port, clients=4)
            finally:
                handle.stop()
            truth = [_bits(expected[q]) for q in QUERIES]
            for answers in results.values():
                assert [_bits(v) for v in answers] == truth
            counters = metrics.snapshot()["counters"]
            assert counters["serve.batch.flushes"] >= 1
            assert (counters["serve.batch.coalesced"]
                    + counters.get("serve.cached_answers", 0)
                    == counters["serve.requests.estimate"]
                    == 4 * len(QUERIES))

    def test_coalescing_disabled_still_answers_identically(
            self, sketch, expected):
        with obs.observed() as metrics:
            registry = SketchRegistry()
            registry.register("x", sketch)
            handle = start_server_thread(
                registry, ServeConfig(port=0, coalesce=False))
            try:
                results = _run_concurrent_estimates(handle.port, clients=3)
            finally:
                handle.stop()
            truth = [_bits(expected[q]) for q in QUERIES]
            for answers in results.values():
                assert [_bits(v) for v in answers] == truth
            counters = metrics.snapshot()["counters"]
            assert "serve.batch.flushes" not in counters
            assert "serve.batch.coalesced" not in counters


class TestQueryCacheBatch:
    def test_selectivity_batch_matches_scalar(self, sketch):
        scalar_cache = QueryCache(sketch)
        batch_cache = QueryCache(sketch)
        queries = [parse_twig(q) for q in QUERIES]
        scalar = [scalar_cache.selectivity(q) for q in queries]
        batch = batch_cache.selectivity_batch(queries)
        assert [_bits(v) for v in batch] == [_bits(v) for v in scalar]

    def test_selectivity_batch_matches_scalar_without_numpy(
            self, sketch, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        cache = QueryCache(sketch)
        queries = [parse_twig(q) for q in QUERIES]
        batch = cache.selectivity_batch(queries)
        scalar = [estimate_selectivity(eval_query(sketch, parse_twig(q)))
                  for q in QUERIES]
        assert [_bits(v) for v in batch] == [_bits(v) for v in scalar]

    def test_duplicates_share_one_entry_and_one_estimate(self, sketch):
        cache = QueryCache(sketch)
        queries = [parse_twig("//a"), parse_twig("//p"), parse_twig("//a")]
        values = cache.selectivity_batch(queries)
        assert _bits(values[0]) == _bits(values[2])
        assert cache.misses == 2  # the duplicate hit the same LRU entry
        # Mixing in the scalar path afterwards returns the same bits.
        assert _bits(cache.selectivity(parse_twig("//a"))) == _bits(values[0])
