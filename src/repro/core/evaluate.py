"""EVALQUERY / EVALEMBED: approximate twig evaluation over a TreeSketch
(paper Figs. 7-8).

The query is processed pre-order over the query tree.  For every current
binding -- a pair ``(u, q)`` of synopsis node and query variable -- and
every child variable ``q_c``, the engine finds the synopsis embeddings of
``path(q, q_c)`` starting at ``u`` and computes, per terminal synopsis node
``v``, the expected number of descendants ``k`` each element of ``u`` has
along the path (EVALEMBED): the product of average edge counts along the
embedding, scaled by the selectivity of every branching predicate, where
branch selectivity uses the inclusion-exclusion principle over per-
embedding descendant fractions.  The output is a *result sketch*: a graph
whose nodes are ``(u, q)`` pairs with fractional average edge counts,
summarizing the approximate nesting tree.

Implementation note: rather than materializing embeddings one by one (their
number can be exponential in a DAG), we aggregate with dynamic programming
over synopsis nodes -- the sum over embeddings of a product of edge counts
distributes over the graph structure.  Per-terminal totals are exactly the
aggregated ``count(u_Q, v_Q)`` increments of Fig. 7, line 12.  On a cyclic
synopsis (possible after aggressive merging of recursive labels) the
descendant-closure falls back to propagation bounded by the document
height, so evaluation always terminates; on DAGs (all count-stable
summaries) the closure is exact.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics, get_tracer
from repro.query.path import Axis, Path, ValueTest
from repro.query.twig import TwigQuery

# A result-sketch node: (synopsis node id, query variable).
RSKey = Tuple[int, str]


class ResultSketch:
    """TreeSketch-style summary of the approximate nesting tree.

    Nodes are ``(u, q)`` pairs; each node is inserted once per pair (the
    Fig. 7 optimization that bounds the result by ``O(|TS| * |Q|)``).
    Edge weights are average child counts, possibly fractional.
    """

    def __init__(self, query: TwigQuery, root_key: RSKey, root_label: str) -> None:
        self.query = query
        self.root_key = root_key
        self.label: Dict[RSKey, str] = {root_key: root_label}
        self.out: Dict[RSKey, Dict[RSKey, float]] = {root_key: {}}
        # Bindings per query variable, in insertion order.
        self.bind: Dict[str, List[RSKey]] = {"q0": [root_key]}
        self.empty = False

    def add_binding(self, parent: RSKey, key: RSKey, label: str, k: float) -> None:
        if key not in self.label:
            self.label[key] = label
            self.out[key] = {}
            self.bind.setdefault(key[1], []).append(key)
        edges = self.out[parent]
        edges[key] = edges.get(key, 0.0) + k

    @property
    def num_nodes(self) -> int:
        return len(self.label)

    @property
    def num_edges(self) -> int:
        return sum(len(e) for e in self.out.values())

    def mark_empty(self) -> None:
        """Record that the (approximate) answer is empty."""
        self.empty = True
        self.out = {self.root_key: {}}
        self.label = {self.root_key: self.label[self.root_key]}
        self.bind = {"q0": [self.root_key]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSketch(nodes={self.num_nodes}, edges={self.num_edges})"


class _SketchEvalContext:
    """Per-evaluation memoization over (synopsis node, path object)."""

    def __init__(self, sketch: TreeSketch) -> None:
        self.sketch = sketch
        self.topo = sketch.topological_order()
        # (node id, id(path)) -> {terminal node id -> expected count}
        self.path_counts: Dict[Tuple[int, int], Dict[int, float]] = {}
        # (node id, id(path)) -> branch selectivity in [0, 1]
        self.selectivity: Dict[Tuple[int, int], float] = {}
        # Synopsis nodes touched by the path DP (observability counter).
        self.node_visits = 0


def eval_query(sketch: TreeSketch, query: TwigQuery) -> ResultSketch:
    """EVALQUERY (Fig. 7): approximate ``query`` over ``sketch``.

    Returns the result sketch summarizing the approximate nesting tree; if
    some solid query edge has no bindings the result is marked empty.
    """
    ctx = _SketchEvalContext(sketch)
    metrics = get_metrics()
    metrics.counter("eval.queries").inc()
    with get_tracer().span("eval.query") as span:
        result = _eval_query(ctx, sketch, query)
        span.annotate(nodes=result.num_nodes, edges=result.num_edges,
                      empty=result.empty)
    metrics.counter("eval.node_visits").inc(ctx.node_visits)
    return result


def _eval_query(
    ctx: _SketchEvalContext, sketch: TreeSketch, query: TwigQuery
) -> ResultSketch:
    root_key: RSKey = (sketch.root_id, "q0")
    result = ResultSketch(query, root_key, sketch.label[sketch.root_id])

    for qnode in query.nodes:  # pre-order
        bindings = result.bind.get(qnode.var, [])
        for qc in qnode.children:
            for u_key in bindings:
                u = u_key[0]
                per_terminal = _path_counts(ctx, u, qc.path)
                for v, k in per_terminal.items():
                    if k <= 0.0:
                        continue
                    result.add_binding(u_key, (v, qc.var), sketch.label[v], k)
            if not qc.optional and not result.bind.get(qc.var):
                result.mark_empty()
                return result
    return result


# ----------------------------------------------------------------------
# EVALEMBED as dynamic programming over the synopsis graph
# ----------------------------------------------------------------------


def _path_counts(ctx: _SketchEvalContext, start: int, path: Path) -> Dict[int, float]:
    """Expected descendants per terminal synopsis node along ``path``.

    ``result[v]`` equals the sum over all embeddings ``start/../v`` of the
    product of average edge counts, scaled by branch-predicate
    selectivities at the landing node of each step (the aggregation of
    EVALEMBED over the embedding set ``E`` of Fig. 7, lines 5-8).
    """
    key = (start, id(path))
    cached = ctx.path_counts.get(key)
    if cached is not None:
        return cached

    sketch = ctx.sketch
    out_get = sketch.out.get
    label_of = sketch.label
    current: Dict[int, float] = {start: 1.0}
    for step in path.steps:
        nxt: Dict[int, float] = {}
        nxt_get = nxt.get
        matches = step.matches_label
        if step.axis is Axis.CHILD:
            for x, value in current.items():
                edges = out_get(x)
                if not edges:
                    continue
                for y, avg in edges.items():
                    if matches(label_of[y]):
                        nxt[y] = nxt_get(y, 0.0) + value * avg
        else:
            reach = _descendant_closure(ctx, current)
            for y, value in reach.items():
                if matches(label_of[y]):
                    nxt[y] = nxt_get(y, 0.0) + value
        if step.predicates:
            for y in list(nxt):
                sel = 1.0
                for pred in step.predicates:
                    if isinstance(pred, ValueTest):
                        sel *= _value_selectivity(ctx, y, pred)
                    else:
                        sel *= _branch_selectivity(ctx, y, pred)
                    if sel == 0.0:
                        break
                if sel == 0.0:
                    del nxt[y]
                else:
                    nxt[y] *= sel
        current = nxt
        ctx.node_visits += len(current)
        if not current:
            break

    ctx.path_counts[key] = current
    return current


def _descendant_closure(
    ctx: _SketchEvalContext, seeds: Dict[int, float]
) -> Dict[int, float]:
    """Total value reaching each node via >= 1 synopsis edge from ``seeds``.

    ``g[y] = sum over edges (x -> y) of (seeds[x] + g[x]) * avg(x, y)``.
    Solved in one pass in topological order on DAGs; on cyclic synopses,
    by value propagation bounded by the document height.
    """
    sketch = ctx.sketch
    out_get = sketch.out.get
    if ctx.topo is not None:
        g: Dict[int, float] = {}
        g_get = g.get
        seeds_get = seeds.get
        visits = 0
        for x in ctx.topo:
            inbound = seeds_get(x, 0.0) + g_get(x, 0.0)
            if inbound == 0.0:
                continue
            visits += 1
            edges = out_get(x)
            if not edges:
                continue
            for y, avg in edges.items():
                g[y] = g_get(y, 0.0) + inbound * avg
        ctx.node_visits += visits
        return g

    # Cyclic fallback: propagate frontier values for at most `height` hops.
    g = {}
    g_get = g.get
    frontier = dict(seeds)
    for _ in range(max(1, sketch.doc_height)):
        nxt: Dict[int, float] = {}
        nxt_get = nxt.get
        for x, value in frontier.items():
            if value == 0.0:
                continue
            edges = out_get(x)
            if not edges:
                continue
            for y, avg in edges.items():
                contribution = value * avg
                nxt[y] = nxt_get(y, 0.0) + contribution
                g[y] = g_get(y, 0.0) + contribution
        if not nxt:
            break
        frontier = nxt
    return g


def _branch_selectivity(ctx: _SketchEvalContext, node: int, pred: Path) -> float:
    """Selectivity of a branching predicate ``[pred]`` at a synopsis node.

    Per EVALEMBED (Fig. 8, lines 2-12): compute the per-terminal expected
    descendant counts ``N``; if any count is >= 1 every element satisfies
    the branch (selectivity 1); otherwise each count is read as the
    fraction of elements with a matching embedding and the fractions are
    combined with the inclusion-exclusion principle --
    ``1 - prod(1 - k_j)`` under edge-distribution independence.
    """
    key = (node, id(pred))
    cached = ctx.selectivity.get(key)
    if cached is not None:
        return cached

    # Synopses with richer per-node statistics (the twig-XSketch baseline's
    # joint edge histograms) may answer the branch probability directly.
    hook = getattr(ctx.sketch, "branch_probability", None)
    if hook is not None:
        direct = hook(node, pred)
        if direct is not None:
            direct = min(1.0, max(0.0, direct))
            ctx.selectivity[key] = direct
            return direct

    counts = _path_counts(ctx, node, pred)
    if not counts:
        sel = 0.0
    elif any(k >= 1.0 for k in counts.values()):
        sel = 1.0
    else:
        # Fig. 8 sums the counts of embeddings ending at the same synopsis
        # node (line 5).  For consistency under refinement we extend the
        # grouping to same-label terminals: clusters of one label
        # partition that label's elements, so fractions that total below
        # one are *disjoint* alternatives and add up -- treating them as
        # independent would systematically underestimate on fine synopses
        # (a 0.5/0.3 cast split must give 0.8, not 0.65).  A label group
        # totalling >= 1 implies genuine overlap (elements with several
        # matches), where the paper's independence products apply
        # unchanged -- this keeps Example 4.1's 0.6/0.7 -> 0.88 intact.
        by_label: Dict[str, List[float]] = {}
        for terminal, k in counts.items():
            by_label.setdefault(ctx.sketch.label[terminal], []).append(k)
        miss = 1.0
        for group in by_label.values():
            total = sum(group)
            if total >= 1.0:
                group_miss = 1.0
                for k in group:
                    group_miss *= 1.0 - k
                group_sel = 1.0 - group_miss
            else:
                group_sel = total
            miss *= 1.0 - group_sel
        sel = 1.0 - miss
    sel = min(1.0, max(0.0, sel))
    ctx.selectivity[key] = sel
    return sel


def _value_selectivity(ctx: _SketchEvalContext, node: int, test: ValueTest) -> float:
    """Selectivity of a value predicate ``[path = "v"]`` at a synopsis node.

    Per terminal ``t`` of the structural path: an element has ``k_t``
    descendants there, each carrying the value with probability ``p_t``
    (from the node's value summary -- see :mod:`repro.values`); under
    edge/value independence the element misses along ``t`` with
    probability ``(1 - p_t)**k_t`` (``1 - k_t p_t`` for fractional
    ``k_t < 1``), and the per-terminal misses multiply.  Unannotated
    synopses fall back to the structural selectivity (``p_t = 1``), an
    upper bound.
    """
    key = (node, id(test))
    cached = ctx.selectivity.get(key)
    if cached is not None:
        return cached

    counts = _path_counts(ctx, node, test.path)
    hook = getattr(ctx.sketch, "value_probability", None)
    if not counts:
        sel = 0.0
    else:
        miss = 1.0
        for t, k in counts.items():
            p = hook(t, test.value) if hook is not None else None
            if p is None:
                p = 1.0  # structural fallback
            if p <= 0.0:
                continue
            if k >= 1.0:
                miss *= (1.0 - p) ** k
            else:
                miss *= max(0.0, 1.0 - k * p)
        sel = 1.0 - miss
    sel = min(1.0, max(0.0, sel))
    ctx.selectivity[key] = sel
    return sel
