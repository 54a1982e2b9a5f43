"""Equivalence proofs for the optimized TSBUILD paths (docs/PERFORMANCE.md).

The perf machinery (versioned score memoization, the single-pass scorer,
the array kernel) must be
*output-preserving*: every optimized builder configuration has to emit a
sketch identical to the seed implementation -- same nodes, counts, edge
statistics, and total squared error.  These tests are the contract that
lets future perf work touch the hot paths safely.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.build import TSBuildOptions, TreeSketchBuilder
from repro.core.kernel import KernelPartition
from repro.core.partition import MergePartition
from repro.core.pool import create_pool, create_pool_reference
from repro.core.stable import StableSummary, build_stable
from repro.datagen.datasets import TX_DATASETS
from tests.conftest import make_random_tree


def _sketch_state(sketch):
    """Everything that defines a sketch, in comparable form."""
    return (
        dict(sketch.label),
        dict(sketch.count),
        dict(sketch.stats),
        {k: dict(v) for k, v in sketch.out.items()},
        sketch.root_id,
    )


def _assert_same_sketch(a, b):
    assert _sketch_state(a) == _sketch_state(b)


OPTIMIZED_VARIANTS = {
    "default": TSBuildOptions(),
    "dicts": TSBuildOptions(kernel="dicts"),
    "kernel": TSBuildOptions(kernel="arrays"),
}


@pytest.mark.parametrize("variant", sorted(OPTIMIZED_VARIANTS))
@pytest.mark.parametrize("seed,budget_kb", [(7, 6), (21, 3), (99, 10)])
def test_optimized_builders_match_reference(variant, seed, budget_kb):
    rng = random.Random(seed)
    stable = build_stable(make_random_tree(rng, 600))
    budget = budget_kb * 1024
    ref = TreeSketchBuilder(stable, TSBuildOptions(reference=True)).compress_to(budget)
    opt = TreeSketchBuilder(stable, OPTIMIZED_VARIANTS[variant]).compress_to(budget)
    _assert_same_sketch(ref, opt)


@pytest.mark.parametrize("name", sorted(TX_DATASETS))
def test_optimized_builders_match_reference_on_datasets(name):
    stable = build_stable(TX_DATASETS[name]())
    for budget in (12 * 1024, 5 * 1024):
        ref = TreeSketchBuilder(
            stable, TSBuildOptions(reference=True)
        ).compress_to(budget)
        opt = TreeSketchBuilder(stable, TSBuildOptions()).compress_to(budget)
        _assert_same_sketch(ref, opt)


def _traced_build(stable, options, budget):
    """Build and record the exact merge sequence the drain loop applied."""
    builder = TreeSketchBuilder(stable, options)
    part = builder.partition
    seq = []
    orig = part.apply_merge

    def tracer(u, v):
        seq.append((u, v))
        return orig(u, v)

    part.apply_merge = tracer
    sketch = builder.compress_to(budget)
    return sketch, seq


@pytest.mark.parametrize("seed,budget_kb", [(7, 2), (21, 3), (99, 2)])
def test_merge_sequence_identical_across_kernels(seed, budget_kb):
    """Same merges, same order, same sketch -- on both partition backends.

    The merge sequence is the strongest observable: two builds that merge
    the same pairs in the same order are the same build.
    """
    rng = random.Random(seed)
    stable = build_stable(make_random_tree(rng, 600))
    budget = budget_kb * 1024
    dicts_sketch, dicts_seq = _traced_build(
        stable, TSBuildOptions(kernel="dicts"), budget)
    arrays_sketch, arrays_seq = _traced_build(
        stable, TSBuildOptions(kernel="arrays"), budget)
    assert dicts_seq, "build applied no merges; test is vacuous"
    assert arrays_seq == dicts_seq, "arrays merge sequence diverged"
    _assert_same_sketch(arrays_sketch, dicts_sketch)


def test_budget_sweep_matches_reference():
    # Reused builders (decreasing budgets) carry their forwarding map and
    # merge memo across compress_to calls, not just within one.
    rng = random.Random(5)
    stable = build_stable(make_random_tree(rng, 500))
    ref_builder = TreeSketchBuilder(stable, TSBuildOptions(reference=True))
    opt_builder = TreeSketchBuilder(stable, TSBuildOptions())
    for budget_kb in (10, 6, 3):
        ref = ref_builder.compress_to(budget_kb * 1024)
        opt = opt_builder.compress_to(budget_kb * 1024)
        _assert_same_sketch(ref, opt)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 200))
def test_fast_scorer_is_bitwise_identical(seed, size):
    """_eval_raw must equal the seed scorer *bitwise* on every pair.

    Bit-equality (not approximate equality) is what makes the memoized
    and parallel builders emit identical sketches: any rounding drift
    could flip a heap comparison and change the merge sequence.
    """
    rng = random.Random(seed)
    part = MergePartition(build_stable(make_random_tree(rng, size)))
    pool = create_pool_reference(part, heap_upper=50, pair_window=None)
    # Walk a few merges so scoring also covers post-merge states.
    for _ in range(3):
        if not pool:
            break
        _ratio, _errd, _sized, u, v = pool[0]
        for a, b in [(u, v), (v, u)]:
            ref = part.evaluate_merge_reference(a, b)
            errd, sized = part._eval_raw(a, b)
            assert (errd, sized) == (ref.errd, ref.sized)
        part.apply_merge(u, v)
        pool = create_pool_reference(part, heap_upper=50, pair_window=None)


class _Restricted:
    """The partition ``part`` as the seed CREATEPOOL sees it when only the
    clusters of ``region`` exist."""

    def __init__(self, part, region):
        self.cluster_label = {c: part.cluster_label[c] for c in region}
        self.cluster_depth = part.cluster_depth
        self.structural_key = part.structural_key
        self.evaluate_merge_reference = part.evaluate_merge_reference


def _merge_random_same_label_pair(part, rng):
    """One merge straight through ``apply_merge``, no builder involved."""
    by_label = {}
    for cid in sorted(part.members):
        by_label.setdefault(part.cluster_label[cid], []).append(cid)
    groups = [g for _label, g in sorted(by_label.items()) if len(g) >= 2]
    if groups:
        u, v = rng.sample(rng.choice(groups), 2)
        part.apply_merge(u, v)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_create_pool_variants_agree(seed):
    """CREATEPOOL is a function of the partition it is given.  Between
    calls a few merges go straight through ``apply_merge``; every call,
    cold or memo-served, over all clusters or over ``clusters=``, proposes
    the seed CREATEPOOL's candidates (restricted to those clusters)."""
    rng = random.Random(seed)
    part = MergePartition(build_stable(make_random_tree(rng, 300)))
    for pair_window in (None, 8):
        for _round in range(3):
            ref = sorted(create_pool_reference(part, 60, pair_window))
            assert sorted(create_pool(part, 60, pair_window)) == ref
            assert sorted(create_pool(part, 60, pair_window)) == ref
            live = sorted(part.members)
            region = rng.sample(live, rng.randint(0, len(live)))
            ref_region = create_pool_reference(
                _Restricted(part, region), 60, pair_window)
            got = create_pool(part, 60, pair_window, clusters=region)
            assert sorted(got) == sorted(ref_region)
            for _ in range(rng.randint(1, 3)):
                _merge_random_same_label_pair(part, rng)
        assert part.memo_hits > 0  # later passes served from the memo
        part.merge_memo = None
        part.memo_hits = part.memo_misses = 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 200))
def test_region_pool_is_every_improving_same_label_pair(seed, size):
    """CREATEPOOL over a cluster subset R, exhaustive and uncapped (the
    pool of ``TreeSketchBuilder.merge_region``), proposes exactly the
    pairs ``u < v`` of R with one label and ``sized > 0``, each with the
    score ``scored_merge`` gives; the candidate set alone fixes the
    drain's pops, so a local re-merge applies the merges a drain over
    every same-label pair of R would."""
    rng = random.Random(seed)
    part = MergePartition(build_stable(make_random_tree(rng, size)))
    for _ in range(rng.randint(0, 6)):
        pool = create_pool_reference(part, 20, None)
        if not pool:
            break
        _ratio, _errd, _sized, u, v = min(pool)
        part.apply_merge(u, v)
    live = sorted(part.members)
    region = rng.sample(live, rng.randint(0, len(live)))

    assert part.merge_memo is None  # expected scores come from a cold scorer
    expected = {}
    for i, u in enumerate(sorted(region)):
        for v in sorted(region)[i + 1:]:
            if part.cluster_label[u] == part.cluster_label[v]:
                ratio, errd, sized = part.scored_merge(u, v)
                if sized > 0:
                    expected[(u, v)] = (ratio, errd, sized)
    uncapped = max(1, len(region) ** 2)
    for _pass in range(2):  # cold memo, then served from the memo
        pool = create_pool(part, uncapped, None, clusters=region)
        got = {(u, v): (ratio, errd, sized)
               for ratio, errd, sized, u, v in pool}
        assert len(got) == len(pool)
        assert got == expected
    assert part.memo_hits >= len(expected)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 150))
def test_three_scorers_bitwise_identical(seed, size):
    """Reference, dict fast path, and array kernel agree on every pair.

    The array kernel is only admissible if its ``(errd, sized)`` equals
    the seed scorer's *bitwise* -- any rounding drift could flip a heap
    comparison and change the merge sequence.  Both orientations of every
    candidate pair are cross-checked on evolving (post-merge) states.
    """
    rng = random.Random(seed)
    stable = build_stable(make_random_tree(rng, size))
    dicts = MergePartition(stable)
    kern = KernelPartition(stable)
    pool = create_pool_reference(dicts, heap_upper=50, pair_window=None)
    for _ in range(3):
        if not pool:
            break
        _ratio, _errd, _sized, u, v = pool[0]
        for a, b in [(u, v), (v, u)]:
            ref = dicts.evaluate_merge_reference(a, b)
            d_score = dicts._eval_raw(a, b)
            k_score = kern._eval_raw(a, b)
            assert d_score == (ref.errd, ref.sized) == k_score
        dicts.apply_merge(u, v)
        kern.apply_merge(u, v)
        pool = create_pool_reference(dicts, heap_upper=50, pair_window=None)


def test_kernel_full_build_matches_reference():
    """End-to-end: the arrays kernel emits the seed sketch."""
    rng = random.Random(42)
    stable = build_stable(make_random_tree(rng, 600))
    for budget_kb in (6, 3):
        ref = TreeSketchBuilder(
            stable, TSBuildOptions(reference=True)
        ).compress_to(budget_kb * 1024)
        arr = TreeSketchBuilder(
            stable, TSBuildOptions(kernel="arrays")
        ).compress_to(budget_kb * 1024)
        _assert_same_sketch(ref, arr)


def test_kernel_and_dicts_do_identical_work():
    """Bit-identical scoring implies identical heap/memo traffic."""
    rng = random.Random(8)
    stable = build_stable(make_random_tree(rng, 500))

    def counters(kernel):
        with obs.observed() as registry:
            TreeSketchBuilder(
                stable, TSBuildOptions(kernel=kernel)
            ).compress_to(1024)
        flat = obs.report.flatten_snapshot(registry.snapshot())
        return {
            k: v for k, v in flat.items()
            if k.startswith("counters.tsbuild.")
            and "kernel" not in k
        }

    arrays = counters("arrays")
    dicts = counters("dicts")
    assert arrays == dicts
    assert arrays["counters.tsbuild.merges_applied"] > 0


def test_kernel_selection_and_sparse_fallback():
    """kernel= option routing, including auto's dense-id fallback."""
    sparse = StableSummary()
    sparse.add_node(0, "r", 1)
    sparse.add_node(5, "a", 3)  # gap: ids are not dense
    sparse.add_edge(0, 5, 3)
    sparse.depth = {0: 1, 5: 0}
    sparse.root_id = 0

    with pytest.raises(ValueError):
        KernelPartition(sparse)
    with pytest.raises(ValueError):
        TreeSketchBuilder(sparse, TSBuildOptions(kernel="arrays"))
    auto = TreeSketchBuilder(sparse, TSBuildOptions(kernel="auto"))
    assert isinstance(auto.partition, MergePartition)
    for unknown in ("simd", "numpy"):
        with pytest.raises(ValueError, match=unknown):
            TreeSketchBuilder(sparse, TSBuildOptions(kernel=unknown))

    dense = build_stable(make_random_tree(random.Random(1), 80))
    assert isinstance(
        TreeSketchBuilder(dense, TSBuildOptions(kernel="auto")).partition,
        KernelPartition,
    )
    assert isinstance(
        TreeSketchBuilder(dense, TSBuildOptions(reference=True)).partition,
        MergePartition,
    )


def test_memo_invalidated_by_version_bumps():
    """A merge must invalidate memo entries touching its neighbourhood."""
    rng = random.Random(17)
    part = MergePartition(build_stable(make_random_tree(rng, 300)))
    part.enable_memo()
    pool = create_pool_reference(part, 200, None)
    assert pool
    scored = {}
    for _ratio, _errd, _sized, u, v in pool:
        scored[(u, v)] = part.scored_merge(u, v)
    _ratio, _errd, _sized, mu, mv = min(pool)
    part.apply_merge(mu, mv)
    bumped = {mu} | part.parents_of(mu) | set(part.out_stats[mu])
    for (u, v), before in scored.items():
        if u == mv or v == mv or mu in (u, v):
            continue
        if not part.alive(u) or not part.alive(v):
            continue
        after = part.scored_merge(u, v)
        fresh = part._eval_raw(u, v)
        assert after[1] == fresh[0] and after[2] == fresh[1]
        if u not in bumped and v not in bumped:
            # Untouched neighbourhood: the memo may (and does) serve the
            # old entry, which must still equal a fresh computation.
            assert after == before
