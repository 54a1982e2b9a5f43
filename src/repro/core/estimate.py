"""Twig selectivity estimation over a result sketch (paper Section 4.4).

The estimator performs a single post-order traversal of the result sketch
and computes, for each node, the average number of binding tuples per
element of its extent; the query's estimated selectivity is the value at
the root (whose extent is the single document root).  The recurrence
mirrors the exact binding-tuple DP of :mod:`repro.engine.nesting`: factors
multiply across a variable's child variables, each factor summing
``count(u_Q, v_Q) * t(v_Q)`` over the child bindings, with dashed
(optional) edges clamped at one (the "null" binding).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.evaluate import ResultSketch, RSKey
from repro.obs import get_metrics, get_tracer
from repro.query.twig import QueryNode


def estimate_selectivity(result: ResultSketch) -> float:
    """Estimated number of binding tuples summarized by ``result``."""
    get_metrics().counter("estimate.calls").inc()
    with get_tracer().span("estimate.selectivity") as span:
        if result.empty:
            return 0.0
        qnode_of: Dict[str, QueryNode] = {n.var: n for n in result.query.nodes}
        memo: Dict[RSKey, float] = {}
        estimate = _tuples_per_element(result, result.root_key, qnode_of, memo)
        span.annotate(estimate=estimate)
        return estimate


def estimate_selectivity_batch(results: Sequence[ResultSketch]) -> List[float]:
    """``[estimate_selectivity(r) for r in results]``.

    Kept as the name :meth:`repro.core.qcache.QueryCache.selectivity_batch`
    calls, which perfbench/layers.py times by that name.
    """
    return [estimate_selectivity(r) for r in results]


def estimate_bindings(result: ResultSketch) -> Dict[str, float]:
    """Estimated number of *bindings* per query variable.

    A variable's binding count is the expected number of element
    occurrences bound to it (not tuples): occurrence mass propagates from
    the root through the result sketch's average edge counts.  Useful for
    optimizer-style decisions about individual variables; ``q0`` is
    always 1.0.
    """
    occurrences: Dict[RSKey, float] = {result.root_key: 1.0}
    totals: Dict[str, float] = {}
    if result.empty:
        return {n.var: (1.0 if n.var == "q0" else 0.0) for n in result.query.nodes}
    for qnode in result.query.nodes:  # pre-order: parents before children
        for key in result.bind.get(qnode.var, []):
            occ = occurrences.get(key, 0.0)
            totals[qnode.var] = totals.get(qnode.var, 0.0) + occ
            for child_key, avg in result.out.get(key, {}).items():
                occurrences[child_key] = occurrences.get(child_key, 0.0) + occ * avg
    for qnode in result.query.nodes:
        totals.setdefault(qnode.var, 0.0)
    return totals


def _tuples_per_element(
    result: ResultSketch,
    key: RSKey,
    qnode_of: Dict[str, QueryNode],
    memo: Dict[RSKey, float],
) -> float:
    cached = memo.get(key)
    if cached is not None:
        return cached

    qnode = qnode_of[key[1]]
    edges = result.out.get(key, {})
    total = 1.0
    if edges and qnode.children:
        # One pass over the edges, grouped by child variable; insertion
        # order is preserved within each group, so the floating-point
        # summation order matches the per-child filtered scan.
        by_var: Dict[str, list] = {}
        for v_key, avg in edges.items():
            by_var.setdefault(v_key[1], []).append((v_key, avg))
        for qc in qnode.children:
            subtotal = 0.0
            for v_key, avg in by_var.get(qc.var, ()):
                subtotal += avg * _tuples_per_element(result, v_key, qnode_of, memo)
            if qc.optional:
                subtotal = max(1.0, subtotal)
            total *= subtotal
            if total == 0.0:
                break
    else:
        for qc in qnode.children:
            subtotal = 1.0 if qc.optional else 0.0
            total *= subtotal
            if total == 0.0:
                break

    memo[key] = total
    return total
