"""Error-provenance oracle for :mod:`repro.core.explain`.

The load-bearing invariant: with explain enabled, the per-cluster
contribution terms sum (left-associated, in the order returned) to the
plain estimator's answer *bitwise* — these tests assert ``==`` on the
floats, never approximate closeness.  With explain disabled, the plain
estimate path does zero extra work, pinned by the module's activity
probes.
"""

import random

import pytest

from repro.core.build import build_treesketch
from repro.core.estimate import estimate_selectivity, estimate_selectivity_batch
from repro.core.evaluate import eval_query
from repro.core.explain import (
    PROBES,
    EstimateExplanation,
    explain_estimate,
    explain_query,
    reset_probes,
)
from repro.core.stable import build_stable
from repro.query.parser import parse_twig
from repro.workload.workload import make_workload
from tests.conftest import make_random_tree


def _workload_results(seed, size=300, queries=25, budget_kb=4):
    rng = random.Random(seed)
    tree = make_random_tree(rng, size)
    stable = build_stable(tree)
    sketch = build_treesketch(stable, budget_kb * 1024)
    wl = make_workload(tree, num_queries=queries, seed=seed, stable=stable)
    return sketch, wl, [eval_query(sketch, q) for q in wl.queries]


def _fold(contributions):
    total = 0.0
    for _cluster, term in contributions:
        total += term
    return total


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_contributions_sum_bitwise(seed):
    """Left-associated fold of the terms == the plain estimate, exactly."""
    _sketch, _wl, results = _workload_results(seed)
    batch = estimate_selectivity_batch(results)
    assert any(not r.empty for r in results)
    for result, batched in zip(results, batch):
        expl = explain_estimate(result)
        plain = estimate_selectivity(result)
        assert expl.estimate == plain
        assert expl.exact_split or result.empty or not expl.contributions
        assert _fold(expl.contributions) == plain
        assert expl.estimate == batched


def test_disabled_path_does_no_explain_work():
    """Plain eval/estimate must never touch the explain machinery."""
    reset_probes()
    _sketch, _wl, results = _workload_results(3, queries=15)
    for result in results:
        estimate_selectivity(result)
    estimate_selectivity_batch(results)
    assert PROBES == {"explain_calls": 0, "dp_keys": 0}
    explain_estimate(results[0])
    assert PROBES["explain_calls"] == 1
    reset_probes()


def test_empty_result(paper_document):
    stable = build_stable(paper_document)
    sketch = build_treesketch(stable, 64 * 1024)
    empty = eval_query(sketch, parse_twig("//p (//zzz)"))
    assert empty.empty
    expl = explain_estimate(empty)
    assert expl.estimate == 0.0
    assert expl.contributions == []
    assert expl.clusters == []
    assert expl.touched == 0


def test_multi_branch_root_falls_back(paper_document):
    """``q0`` with several child groups has no additive split; the whole
    estimate is attributed to the root cluster and still sums exactly."""
    stable = build_stable(paper_document)
    sketch = build_treesketch(stable, 64 * 1024)
    result = eval_query(sketch, parse_twig("//a, //p"))
    expl = explain_estimate(result)
    plain = estimate_selectivity(result)
    assert not expl.exact_split
    assert expl.contributions == [(result.root_key[0], plain)]
    assert _fold(expl.contributions) == plain


def test_optional_clamp_falls_back(paper_document):
    """A fired max(1, .) clamp at the root group is not a sum of terms."""
    stable = build_stable(paper_document)
    sketch = build_treesketch(stable, 64 * 1024)
    result = eval_query(sketch, parse_twig("//zzz?"))
    expl = explain_estimate(result)
    plain = estimate_selectivity(result)
    assert _fold(expl.contributions) == plain
    if plain == 1.0:  # clamp fired: single root-attributed term
        assert not expl.exact_split


def test_debt_ranks_clusters(paper_document):
    stable = build_stable(paper_document)
    sketch = build_treesketch(stable, 64 * 1024)
    result = eval_query(sketch, parse_twig("//a (//p (//k))"))
    base = explain_estimate(result)
    assert base.clusters, "expected touched clusters"
    assert all(c.debt == 0.0 and c.error_weight == 0.0 for c in base.clusters)
    # Load one touched cluster with debt: it must rank first.
    victim = base.clusters[-1].cluster
    expl = explain_estimate(result, debt={victim: 99.0})
    assert expl.clusters[0].cluster == victim
    assert expl.clusters[0].error_weight == pytest.approx(
        expl.clusters[0].mass * 99.0
    )
    # top_k truncates.
    assert len(explain_estimate(result, top_k=1).clusters) == 1


def test_explain_query_convenience(paper_document):
    stable = build_stable(paper_document)
    sketch = build_treesketch(stable, 64 * 1024)
    query = parse_twig("//a (//p)")
    expl = explain_query(sketch, query, top_k=3)
    assert isinstance(expl, EstimateExplanation)
    assert expl.estimate == estimate_selectivity(eval_query(sketch, query))
    payload = expl.to_payload()
    assert payload["estimate"] == expl.estimate
    assert len(payload["clusters"]) == len(expl.clusters)
    assert all({"cluster", "term"} <= set(c) for c in payload["contributions"])


def test_touched_counts_distinct_clusters():
    _sketch, _wl, results = _workload_results(1, queries=10)
    for result in results:
        expl = explain_estimate(result, top_k=10_000)
        if result.empty:
            continue
        distinct = {key[0] for key in result.label}
        assert expl.touched == len(distinct)
        assert {c.cluster for c in expl.clusters} <= distinct
