"""Exact twig evaluation: ground-truth nesting trees and selectivities.

The evaluator implements the semantics of Section 2: a twig query is
evaluated by jointly evaluating its path expressions; a binding of variable
``q`` at element ``e`` is *satisfied* when every solid (non-dashed) child
edge of ``q`` has at least one satisfied target under ``e``.  The result is
the nesting tree ``NT(Q)``; the selectivity is the number of binding tuples
it encodes, which we compute by dynamic programming.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.index import DocumentIndex
from repro.engine.nesting import NestingTree, NTNode
from repro.query.path import Axis, Path, PathStep, ValueTest
from repro.query.twig import QueryNode, TwigQuery
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


class _EvalContext:
    """Per-evaluation memo tables (scoped to one query run)."""

    def __init__(self) -> None:
        # (elem oid, id(path)) -> list of target nodes
        self.targets: Dict[Tuple[int, int], List[XMLNode]] = {}
        # (elem oid, id(path)) -> bool, for branch predicates
        self.exists: Dict[Tuple[int, int], bool] = {}
        # (elem oid, qnode index) -> bool
        self.sat: Dict[Tuple[int, int], bool] = {}
        # (elem oid, qnode index) -> int
        self.count: Dict[Tuple[int, int], int] = {}


class ExactEvaluator:
    """Evaluates twig queries exactly over one document tree."""

    def __init__(self, tree: XMLTree) -> None:
        self.tree = tree
        self.index = DocumentIndex(tree)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(self, query: TwigQuery) -> NestingTree:
        """Compute the exact nesting tree ``NT(Q)``.

        If the query has an empty result (some solid path has no satisfied
        bindings), the returned nesting tree consists of the bare root
        occurrence and ``binding_tuple_count() == 0``.
        """
        ctx = self._context()
        qindex = self._query_index(query)
        root = self.tree.root
        nt_root = NTNode(label=root.label, qvar="q0", oid=root.oid)
        if self._sat(root, query.root, qindex, ctx):
            self._build(root, query.root, nt_root, qindex, ctx)
        return NestingTree(nt_root, query)

    def selectivity(self, query: TwigQuery) -> int:
        """Number of binding tuples of ``query`` (without building NT)."""
        ctx = self._context()
        qindex = self._query_index(query)
        return self._count(self.tree.root, query.root, qindex, ctx)

    def path_targets(self, elem: XMLNode, path: Path) -> List[XMLNode]:
        """Elements reached from ``elem`` via ``path`` (predicates honoured)."""
        return self._targets(elem, path, self._context())

    def binding_tuples(self, query: TwigQuery, limit: Optional[int] = None):
        """Yield the query's binding tuples as ``{variable: XMLNode}`` dicts.

        Tuples are produced lazily in document order of the outermost
        bindings; ``limit`` caps the enumeration (counts can be huge --
        see Table 2).  Optional variables bind to ``None`` when their
        branch is empty.  ``q0`` is always the document root.
        """
        ctx = self._context()
        qindex = self._query_index(query)
        root = self.tree.root
        if not self._sat(root, query.root, qindex, ctx):
            return
        emitted = 0
        for tuple_dict in self._tuples_from(root, query.root, qindex, ctx):
            yield tuple_dict
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def _tuples_from(
        self,
        elem: XMLNode,
        qnode: QueryNode,
        qindex: Dict[int, int],
        ctx: _EvalContext,
    ):
        """All binding tuples of the sub-twig rooted at (elem, qnode)."""
        partial = {qnode.var: elem}
        if not qnode.children:
            yield dict(partial)
            return

        # Satisfied target tuples per child variable; an optional-and-empty
        # child contributes one null binding for its whole sub-twig.
        def child_tuples(qc: QueryNode):
            produced = False
            for target in self._targets(elem, qc.path, ctx):
                if not self._sat(target, qc, qindex, ctx):
                    continue
                for sub in self._tuples_from(target, qc, qindex, ctx):
                    produced = True
                    yield sub
            if not produced and qc.optional:
                yield {var.var: None for var in qc.iter_preorder()}

        def combine(children):
            if not children:
                yield {}
                return
            head, tail = children[0], children[1:]
            for head_tuple in child_tuples(head):
                for tail_tuple in combine(tail):
                    merged = dict(head_tuple)
                    merged.update(tail_tuple)
                    yield merged

        for combo in combine(qnode.children):
            result = dict(partial)
            result.update(combo)
            yield result

    def _context(self) -> _EvalContext:
        # The memo tables key on oids, which an edit leaves stale.
        self.tree.refresh()
        return _EvalContext()

    # ------------------------------------------------------------------
    # Path matching
    # ------------------------------------------------------------------

    def _step_targets(self, elem: XMLNode, step: PathStep) -> List[XMLNode]:
        if step.axis is Axis.CHILD:
            return [c for c in elem.children if step.matches_label(c.label)]
        if "|" not in step.label:
            return self.index.descendants_with_label(elem, step.label)
        targets: List[XMLNode] = []
        for label in step.label.split("|"):
            targets.extend(self.index.descendants_with_label(elem, label))
        targets.sort(key=lambda node: node.oid)
        return targets

    def _targets(self, elem: XMLNode, path: Path, ctx: _EvalContext) -> List[XMLNode]:
        key = (elem.oid, id(path))
        cached = ctx.targets.get(key)
        if cached is not None:
            return cached
        frontier: Dict[int, XMLNode] = {elem.oid: elem}
        for step in path.steps:
            nxt: Dict[int, XMLNode] = {}
            for node in frontier.values():
                for target in self._step_targets(node, step):
                    if target.oid in nxt:
                        continue
                    if all(
                        self._pred_holds(target, pred, ctx)
                        for pred in step.predicates
                    ):
                        nxt[target.oid] = target
            frontier = nxt
            if not frontier:
                break
        result = [frontier[oid] for oid in sorted(frontier)]
        ctx.targets[key] = result
        return result

    def _pred_holds(self, elem: XMLNode, pred, ctx: _EvalContext) -> bool:
        """Dispatch a step predicate: structural path or value test."""
        if isinstance(pred, ValueTest):
            return self._exists_value(elem, pred, ctx)
        return self._exists(elem, pred, ctx)

    def _exists_value(self, elem: XMLNode, test: ValueTest, ctx: _EvalContext) -> bool:
        """True iff some target of the test's path carries the value."""
        key = (elem.oid, id(test))
        cached = ctx.exists.get(key)
        if cached is not None:
            return cached
        result = any(
            target.value == test.value
            for target in self._targets(elem, test.path, ctx)
        )
        ctx.exists[key] = result
        return result

    def _exists(self, elem: XMLNode, path: Path, ctx: _EvalContext) -> bool:
        """Existential branch-predicate test with early exit."""
        key = (elem.oid, id(path))
        cached = ctx.exists.get(key)
        if cached is not None:
            return cached
        result = self._exists_from(elem, path.steps, 0, ctx)
        ctx.exists[key] = result
        return result

    def _exists_from(
        self, elem: XMLNode, steps: Tuple[PathStep, ...], pos: int, ctx: _EvalContext
    ) -> bool:
        step = steps[pos]
        for target in self._step_targets(elem, step):
            if not all(
                self._pred_holds(target, pred, ctx) for pred in step.predicates
            ):
                continue
            if pos + 1 == len(steps):
                return True
            if self._exists_from(target, steps, pos + 1, ctx):
                return True
        return False

    # ------------------------------------------------------------------
    # Satisfaction, nesting tree, counting
    # ------------------------------------------------------------------

    @staticmethod
    def _query_index(query: TwigQuery) -> Dict[int, int]:
        return {id(qnode): i for i, qnode in enumerate(query.nodes)}

    def _sat(
        self,
        elem: XMLNode,
        qnode: QueryNode,
        qindex: Dict[int, int],
        ctx: _EvalContext,
    ) -> bool:
        """True iff binding ``elem`` to ``qnode`` satisfies all solid edges."""
        key = (elem.oid, qindex[id(qnode)])
        cached = ctx.sat.get(key)
        if cached is not None:
            return cached
        result = True
        for qc in qnode.children:
            if qc.optional:
                continue
            targets = self._targets(elem, qc.path, ctx)
            if not any(self._sat(t, qc, qindex, ctx) for t in targets):
                result = False
                break
        ctx.sat[key] = result
        return result

    def _build(
        self,
        elem: XMLNode,
        qnode: QueryNode,
        nt_node: NTNode,
        qindex: Dict[int, int],
        ctx: _EvalContext,
    ) -> None:
        """Materialize the nesting sub-tree for a satisfied binding."""
        for qc in qnode.children:
            for target in self._targets(elem, qc.path, ctx):
                if not self._sat(target, qc, qindex, ctx):
                    continue
                child_nt = nt_node.add(
                    NTNode(label=target.label, qvar=qc.var, oid=target.oid)
                )
                self._build(target, qc, child_nt, qindex, ctx)

    def _count(
        self,
        elem: XMLNode,
        qnode: QueryNode,
        qindex: Dict[int, int],
        ctx: _EvalContext,
    ) -> int:
        """Binding tuples rooted at the occurrence (elem, qnode)."""
        key = (elem.oid, qindex[id(qnode)])
        cached = ctx.count.get(key)
        if cached is not None:
            return cached
        total = 1
        for qc in qnode.children:
            subtotal = sum(
                self._count(t, qc, qindex, ctx)
                for t in self._targets(elem, qc.path, ctx)
            )
            if qc.optional:
                subtotal = max(1, subtotal)
            total *= subtotal
            if total == 0:
                break
        ctx.count[key] = total
        return total
