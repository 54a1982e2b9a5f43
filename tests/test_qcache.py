"""Tests for the canonical-query LRU cache (repro.core.qcache)."""

import struct

import pytest

from repro import obs
from repro.core.build import build_treesketch
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.qcache import QueryCache, resolve_cache
from repro.core.stable import build_stable
from repro.query.parser import parse_twig
from repro.workload.runner import run_selectivity
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


@pytest.fixture
def sketch():
    return build_treesketch(build_stable(_tree()), 100 * 1024)


def test_cached_results_match_uncached(sketch):
    cache = QueryCache(sketch)
    for text in ["//a (//p)", "//a[//b] (//p ?)", "//a (//p (//k ?), //n ?)"]:
        query = parse_twig(text)
        direct = estimate_selectivity(eval_query(sketch, query))
        assert cache.selectivity(query) == direct
        assert cache.selectivity(query) == direct  # served from cache


def test_hit_miss_accounting(sketch):
    cache = QueryCache(sketch)
    q = parse_twig("//a (//p)")
    cache.result(q)
    cache.result(q)
    cache.selectivity(q)
    assert cache.misses == 1
    assert cache.hits == 2
    assert len(cache) == 1


def test_canonical_text_shares_entries(sketch):
    """Structurally identical queries parsed from different text share."""
    cache = QueryCache(sketch)
    a = parse_twig("//a (//p)")
    b = parse_twig(str(parse_twig("//a (//p)")))
    assert str(a) == str(b)
    cache.result(a)
    cache.result(b)
    assert cache.misses == 1 and cache.hits == 1


def test_lru_eviction_order(sketch):
    cache = QueryCache(sketch, maxsize=2)
    q1, q2, q3 = (parse_twig(t) for t in ["//a", "//p", "//k"])
    cache.result(q1)
    cache.result(q2)
    cache.result(q1)  # q1 now most recent
    cache.result(q3)  # evicts q2
    assert cache.evictions == 1
    cache.result(q2)
    assert cache.misses == 4  # q2 was re-computed


def test_maxsize_validation(sketch):
    with pytest.raises(ValueError):
        QueryCache(sketch, maxsize=0)
    unbounded = QueryCache(sketch, maxsize=None)
    for text in ["//a", "//p", "//k", "//n", "//b"]:
        unbounded.result(parse_twig(text))
    assert unbounded.evictions == 0


def test_obs_counters(sketch):
    with obs.observed() as registry:
        cache = QueryCache(sketch, maxsize=1)
        q1, q2 = parse_twig("//a"), parse_twig("//p")
        cache.result(q1)
        cache.result(q1)
        cache.result(q2)
    flat = obs.report.flatten_snapshot(registry.snapshot())
    assert flat["counters.eval.cache.hits"] == 1
    assert flat["counters.eval.cache.misses"] == 2
    assert flat["counters.eval.cache.evictions"] == 1


def test_resolve_cache(sketch):
    cache = QueryCache(sketch)
    assert resolve_cache(sketch, cache) is cache
    built = resolve_cache(sketch, 16)
    assert isinstance(built, QueryCache) and built.maxsize == 16
    assert resolve_cache(sketch, None) is None
    assert resolve_cache(object(), 16) is None


def test_concurrent_access_stress(sketch):
    """Hammer one cache from many threads; accounting must stay exact.

    The serve daemon shares a QueryCache across its worker pool, so the
    LRU must survive concurrent result/selectivity traffic: no lost
    updates in the hit/miss tallies (they are guarded by the same lock as
    the OrderedDict), no over-capacity growth, and every answer identical
    to the uncached computation.
    """
    import threading

    texts = ["//a", "//p", "//k", "//n", "//b", "//a (//p)"]
    queries = [parse_twig(t) for t in texts]
    expected = {
        str(q): estimate_selectivity(eval_query(sketch, q)) for q in queries
    }
    cache = QueryCache(sketch, maxsize=3)  # smaller than the query set: evicts
    n_threads, n_rounds = 8, 40
    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(offset: int) -> None:
        barrier.wait()
        try:
            for i in range(n_rounds):
                query = queries[(offset + i) % len(queries)]
                if cache.selectivity(query) != expected[str(query)]:
                    errors.append(str(query))
                cache.result(query)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors
    total_lookups = n_threads * n_rounds * 2  # selectivity + result per round
    assert cache.hits + cache.misses == total_lookups
    assert len(cache) <= 3
    info = cache.info()
    assert info["hits"] == cache.hits and info["misses"] == cache.misses


def test_peek_selectivity_is_cache_only(sketch):
    """peek never evaluates: the serving daemon's degraded path relies on
    a miss costing nothing (no eval_query, no miss-tally churn)."""
    cache = QueryCache(sketch)
    q = parse_twig("//a (//p)")
    assert cache.peek_selectivity(q) is None
    assert cache.misses == 0 and len(cache) == 0  # nothing was evaluated
    direct = estimate_selectivity(eval_query(sketch, q))
    cache.result(q)  # prime the entry (selectivity not yet memoized)
    assert cache.peek_selectivity(q) == direct
    assert cache.hits == 1
    assert cache.peek_selectivity(q) == direct  # memoized now
    assert cache.misses == 1  # only the priming result() missed


def test_peek_with_result_is_cache_only(sketch):
    """The serving daemon's event loop answers full evals through
    ``peek_selectivity(with_result=True)``: a cold lookup must evaluate
    nothing, a seeded selectivity (no result sketch) must decline, and a
    hit must tally as the ``result()`` + ``selectivity()`` pair would."""
    cache = QueryCache(sketch)
    q = parse_twig("//a (//p)")
    with obs.observed() as registry:
        assert cache.peek_selectivity(q, with_result=True) is None
    assert cache.misses == 0 and len(cache) == 0
    assert "eval.queries" not in registry.snapshot()["counters"]
    cache.seed_selectivities({str(q): 7.0})
    assert cache.peek_selectivity(q, with_result=True) is None
    assert cache.hits == 0  # declined, so not a hit
    assert cache.peek_selectivity(q) == 7.0  # the plain form answers
    assert cache.hits == 1
    cache.invalidate()

    result = cache.result(q)  # prime the entry (selectivity not memoized)
    selectivity, peeked = cache.peek_selectivity(q, with_result=True)
    assert peeked is result
    assert selectivity == estimate_selectivity(eval_query(sketch, q))
    assert cache.hits == 1 + 2 and cache.misses == 1
    assert cache.peek_selectivity(q) == selectivity  # memoized
    assert cache.hits == 1 + 2 + 1


def test_peek_and_info_never_block_on_a_busy_lock(sketch):
    """While a worker holds the single-flight lock (mid eval_query), the
    control plane must still get answers: info() falls back to a
    lock-free snapshot and peek_selectivity declines with None."""
    import threading

    cache = QueryCache(sketch)
    q = parse_twig("//a")
    value = cache.selectivity(q)
    acquired, release = threading.Event(), threading.Event()

    def hold():
        with cache._lock:
            acquired.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    assert acquired.wait(10)
    try:
        assert cache.peek_selectivity(q) is None  # contended: decline
        assert cache.peek_selectivity(q, with_result=True) is None
        info = cache.info()  # must return promptly, not deadlock
        assert info["size"] == 1 and info["misses"] == 1
    finally:
        release.set()
        holder.join(10)
    assert cache.peek_selectivity(q) == value  # uncontended again


def test_invalidate_drops_everything_and_bumps_epoch(sketch):
    """The live-maintenance barrier: invalidate() must leave no answer --
    cached or sidecar-seeded -- computed against the old synopsis, and
    must rebind the replacement sketch under the same lock."""
    cache = QueryCache(sketch)
    q = parse_twig("//a (//p)")
    value = cache.selectivity(q)
    cache.seed_selectivities({"//zz": 123.0})
    assert cache.epoch == 0 and len(cache) == 1

    replacement = build_treesketch(build_stable(XMLTree.from_nested(
        ("r", [("a", [("p", ["k"])])]))), 100 * 1024)
    with obs.observed() as registry:
        assert cache.invalidate(sketch=replacement) == 1
    assert cache.epoch == 1 and cache.invalidations == 1
    assert len(cache) == 0
    assert cache.sketch is replacement
    assert cache.peek_selectivity(parse_twig("//zz")) is None  # seeded gone
    fresh = cache.selectivity(q)  # re-evaluated against the new sketch
    assert fresh != value
    assert fresh == estimate_selectivity(eval_query(replacement, q))
    assert cache.invalidate() == 2  # sketch=None keeps the binding
    assert cache.sketch is replacement
    flat = obs.report.flatten_snapshot(registry.snapshot())
    assert flat["counters.eval.cache.invalidations"] == 1
    assert cache.info()["epoch"] == 2


def test_runner_with_cache_matches_uncached(sketch):
    from repro.workload.workload import make_workload

    spec = (
        "r",
        [
            ("a", [("p", ["k", "k"]), "n"]),
            ("a", [("p", ["k"]), "n", "n"]),
            ("a", [("b", ["t"])]),
        ],
    )
    tree = XMLTree.from_nested(spec)
    stable = build_stable(tree)
    workload = make_workload(tree, num_queries=6, seed=1, stable=stable)
    plain = run_selectivity(sketch, workload)
    cache = QueryCache(sketch)
    # Two passes through the same workload: second is all cache hits.
    cached_first = run_selectivity(sketch, workload, cache=cache)
    cached_again = run_selectivity(sketch, workload, cache=cache)
    assert cached_first.per_query == plain.per_query
    assert cached_again.per_query == plain.per_query
    assert cache.hits >= len(workload)


class TestQueryCacheBatch:
    @pytest.fixture
    def sketch(self):
        # A lossy sketch, so the estimates are non-trivial floats -- exactly
        # the values where a subtly different batch kernel would diverge.
        return build_treesketch(build_stable(_tree()), 220)

    def test_selectivity_batch_matches_scalar(self, sketch):
        scalar_cache = QueryCache(sketch)
        batch_cache = QueryCache(sketch)
        queries = [parse_twig(q) for q in QUERIES]
        scalar = [scalar_cache.selectivity(q) for q in queries]
        batch = batch_cache.selectivity_batch(queries)
        assert [_bits(v) for v in batch] == [_bits(v) for v in scalar]

    def test_duplicates_share_one_entry_and_one_estimate(self, sketch):
        cache = QueryCache(sketch)
        queries = [parse_twig("//a"), parse_twig("//p"), parse_twig("//a")]
        values = cache.selectivity_batch(queries)
        assert _bits(values[0]) == _bits(values[2])
        assert cache.misses == 2  # the duplicate hit the same LRU entry
        # Mixing in the scalar path afterwards returns the same bits.
        assert _bits(cache.selectivity(parse_twig("//a"))) == _bits(values[0])
