"""State-sync oracle for the array kernel (docs/PERFORMANCE.md).

:class:`repro.core.kernel.KernelPartition` re-represents the dict path's
partition state as flat CSR / slot-table buffers.  Bit-identical *scores*
(tests/test_build_equivalence.py) are necessary but not sufficient: a
drifted internal table could score correctly today and corrupt a later
merge.  These tests drive both backends through identical randomized
merge sequences and require every piece of state to stay bitwise equal
-- including dict/slot *ordering*, which fixes downstream floating-point
summation orders -- plus the kernel's own structural invariants
(``check_invariants``: CSR vs. stable adjacency, slot-table bijection,
transpose consistency, stats recomputation).

The ``perf``-marked smoke pins the kernel-path work counters on a fixed
dataset: because the kernel is bit-identical, its heap/memo traffic must
match the dict path's exactly, and the backend marker counter must
report the arrays kernel actually served the build.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.build import TSBuildOptions, build_treesketch
from repro.core.kernel import KernelPartition
from repro.core.partition import MergePartition
from repro.core.stable import build_stable
from repro.datagen.datasets import TX_DATASETS
from tests.conftest import make_random_tree


def assert_states_match(kern: KernelPartition, dicts: MergePartition):
    """Every observable table bitwise-equal, *including iteration order*."""
    assert set(kern.members) == set(dicts.members)
    assert kern.num_edges == dicts.num_edges
    assert kern.total_sq == dicts.total_sq
    assert kern.assign == dicts.assign
    assert list(kern.cluster_label.items()) == list(dicts.cluster_label.items())
    assert kern.cluster_depth == dicts.cluster_depth
    assert kern.version == dicts.version
    for cid in dicts.members:
        assert kern.members[cid] == dicts.members[cid]
        assert kern.count[cid] == dicts.count[cid]
        assert kern.cluster_sq[cid] == dicts.cluster_sq[cid]
        assert kern.in_sources[cid] == dicts.in_sources[cid]
        # Dimension order is load-bearing (it fixes FP summation order):
        # compare as ordered item lists, not just as mappings.
        assert (
            list(kern.out_dims(cid).items())
            == list(dicts.out_stats[cid].items())
        )
        assert kern.structural_key(cid) == dicts.structural_key(cid)
    for s_id in range(kern._n):
        assert kern.gs_row(s_id) == dicts.gs[s_id]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 120))
def test_randomized_merge_sequences_stay_in_sync(seed, size):
    rng = random.Random(seed)
    stable = build_stable(make_random_tree(rng, size))
    kern = KernelPartition(stable)
    dicts = MergePartition(stable)
    assert_states_match(kern, dicts)
    merges = 0
    while dicts.num_nodes > 2 and merges < 12:
        u, v = rng.sample(sorted(dicts.members), 2)
        # Scores must agree *before* the merge corrupting anything would
        # be observable, and state after it.
        assert kern._eval_raw(u, v) == dicts._eval_raw(u, v)
        assert kern.apply_merge(u, v) == dicts.apply_merge(u, v)
        merges += 1
        assert_states_match(kern, dicts)
    kern.check_invariants()


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_kernel_invariants_hold_under_adversarial_merges(seed):
    """check_invariants() passes mid-sequence, not only at the end."""
    rng = random.Random(seed)
    stable = build_stable(make_random_tree(rng, 60))
    kern = KernelPartition(stable)
    for _ in range(8):
        live = sorted(kern.members)
        if len(live) < 3:
            break
        u, v = rng.sample(live, 2)
        kern.apply_merge(u, v)
        kern.check_invariants()


@pytest.mark.parametrize("damage", ["row_length", "column", "weight"])
def test_invariants_reject_bad_csr_entries_anywhere(damage):
    """The bounds/positivity audit covers the whole CSR buffers: the
    length of an empty row and the dead tail of a shrunk row, which no
    per-row comparison reads."""
    stable = build_stable(make_random_tree(random.Random(5), 80))
    kern = KernelPartition(stable)
    indptr = kern._gs_indptr
    # Merging two targets of one row shrinks it, leaving a dead slot.
    s = next(s for s in range(kern._n) if indptr[s + 1] - indptr[s] >= 2)
    kern.apply_merge(kern._gs_col[indptr[s]], kern._gs_col[indptr[s] + 1])
    kern.check_invariants()
    dead = indptr[s + 1] - 1
    assert kern._gs_len[s] == indptr[s + 1] - indptr[s] - 1
    if damage == "row_length":
        leaf = next(s for s in range(kern._n) if indptr[s + 1] == indptr[s])
        kern._gs_len[leaf] = -1
    elif damage == "column":
        kern._gs_col[dead] = kern._n
    else:
        kern._gs_val[dead] = 0.0
    with pytest.raises(AssertionError):
        kern.check_invariants()


def test_scored_merge_memo_matches_dict_path():
    rng = random.Random(4)
    stable = build_stable(make_random_tree(rng, 150))
    kern = KernelPartition(stable)
    dicts = MergePartition(stable)
    kern.enable_memo()
    dicts.enable_memo()
    live = sorted(dicts.members)
    pairs = [tuple(rng.sample(live, 2)) for _ in range(30)]
    for u, v in pairs + pairs:  # second pass exercises the memo-hit path
        assert kern.scored_merge(u, v) == dicts.scored_merge(u, v)
    assert (kern.memo_hits, kern.memo_misses) == (
        dicts.memo_hits,
        dicts.memo_misses,
    )
    assert kern.memo_hits == 30


# --- perf smoke: the kernel path's work counters on a fixed dataset. ----

BUDGET_BYTES = 8 * 1024

# The arrays kernel is bit-identical to the dict path, so it must do
# exactly the dict path's heap/memo work (ceilings as in
# tests/test_perf_smoke.py: measured values plus ~25% headroom).
KERNEL_CEILINGS = {
    "counters.tsbuild.heap_pops": 30_000,
    "counters.tsbuild.stale_recomputations": 24_000,
    "counters.tsbuild.memo_misses": 62_000,
    "counters.tsbuild.merges_applied": 1_800,
    "counters.tsbuild.pool_regenerations": 4,
}


@pytest.fixture(scope="module")
def kernel_measured():
    stable = build_stable(TX_DATASETS["IMDB-TX"]())
    with obs.observed() as registry:
        build_treesketch(
            stable, BUDGET_BYTES, options=TSBuildOptions(kernel="arrays")
        )
    return obs.report.flatten_snapshot(registry.snapshot())


@pytest.mark.perf
def test_kernel_build_served_by_arrays_backend(kernel_measured):
    assert kernel_measured["counters.tsbuild.kernel_arrays"] == 1
    assert "counters.tsbuild.kernel_dicts" not in kernel_measured


@pytest.mark.perf
@pytest.mark.parametrize("counter", sorted(KERNEL_CEILINGS))
def test_kernel_counter_ceiling(kernel_measured, counter):
    assert kernel_measured[counter] <= KERNEL_CEILINGS[counter], (
        f"{counter} = {kernel_measured[counter]} exceeds its perf budget "
        f"{KERNEL_CEILINGS[counter]}; the arrays kernel no longer does "
        f"the dict path's (bit-identical) amount of work"
    )

