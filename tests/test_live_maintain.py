"""Randomized oracle for live TreeSketch maintenance (repro.core.live).

The maintainer's claim is strong: after any valid sequence of subtree
inserts and deletes, the live partition's sufficient statistics equal --
bitwise, not approximately -- those of a from-scratch partition over the
*current* document merged into the same cluster membership
(:func:`repro.core.live.rebuild_partition_like`).  Everything here holds
the subsystem to that claim under randomized mutation workloads, plus the
debt model's contract: with ``auto_remerge`` on, no cluster's error debt
ever exceeds ``debt_threshold`` once an edit has been reconciled.
"""

import copy
import heapq
import math
import random

import pytest

from repro import obs
from repro.core.build import TreeSketchBuilder
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.live import (
    LiveOptions,
    SketchMaintainer,
    find_labeled,
    rebuild_partition_like,
)
from repro.core.stable import build_stable
from repro.core.treesketch import TreeSketch
from repro.datagen import sprot_like, xmark_like
from repro.engine.exact import ExactEvaluator
from repro.query.parser import parse_twig
from repro.workload.mutations import (
    MutationOp,
    _random_spec,
    apply_mutation,
    dump_ops,
    load_ops,
    make_mutation_workload,
)
from repro.xmltree.tree import XMLTree, build_nested
from tests.conftest import preorder_labeled


def _document() -> XMLTree:
    """A ~300-node random-attachment tree: diverse repeated shapes, so a
    halved budget forces real merges and mutations produce real drift."""
    from tests.conftest import make_random_tree

    return make_random_tree(random.Random(42), 300)


def _budget_for(tree: XMLTree, fraction: float = 0.5) -> int:
    """A budget that forces real compression: a fraction of lossless."""
    lossless = TreeSketch.from_stable(build_stable(tree.copy()))
    return max(256, int(lossless.size_bytes() * fraction))


def _assert_bitwise_replay(maintainer: SketchMaintainer) -> None:
    """The oracle: live tables == from-scratch replayed tables, bitwise.

    All sufficient statistics are sums of integer-valued floats (exact
    below 2**53 in any summation order), so counts and per-edge
    (sum, sum_sq) must match exactly; only ``cluster_sq`` involves a
    division and gets a 1e-9 tolerance.
    """
    live = maintainer.partition
    fresh, id_map = rebuild_partition_like(maintainer)
    assert set(id_map) == set(live.members)
    for u, fu in id_map.items():
        assert fresh.members[fu] == live.members[u]
        assert fresh.count[fu] == live.count[u]
        assert fresh.cluster_label[fu] == live.cluster_label[u]
        mapped = {id_map[t]: stats for t, stats in live.out_stats[u].items()}
        assert mapped == fresh.out_stats[fu]  # bitwise: exact float sums
        assert live.cluster_sq[u] == pytest.approx(
            fresh.cluster_sq[fu], abs=1e-9, rel=1e-9)
    assert live.total_sq == pytest.approx(
        fresh.total_sq, abs=1e-9, rel=1e-9)
    assert live.num_edges == sum(len(out) for out in live.out_stats.values())


def _label_counts(tree: XMLTree) -> dict:
    counts = {}
    for node in tree.root.iter_preorder():
        counts[node.label] = counts.get(node.label, 0) + 1
    return counts


class TestFindLabeled:
    def test_preorder_ordinals(self):
        """Nested same-label nodes: an ancestor precedes its descendants,
        before and after edits that land between them."""
        tree = XMLTree.from_nested(
            ("r", [("a", [("b", []), ("a", [])]), ("a", [])]))
        maintainer = SketchMaintainer(tree, 64 * 1024)
        root = tree.root
        assert find_labeled(maintainer, "r") is root
        first = find_labeled(maintainer, "a", 0)
        assert first is root.children[0]
        assert find_labeled(maintainer, "a", 1) is first.children[1]
        assert find_labeled(maintainer, "a", 2) is root.children[1]
        assert find_labeled(maintainer, "a", 3) is None
        assert find_labeled(maintainer, "a", -1) is None
        assert find_labeled(maintainer, "zz") is None

        inner = maintainer.insert_subtree(first.children[0], ("a", ["a"]))
        assert find_labeled(maintainer, "a", 1) is inner
        assert find_labeled(maintainer, "a", 2) is inner.children[0]
        assert find_labeled(maintainer, "a", 3) is first.children[1]
        maintainer.delete_subtree(first)
        assert find_labeled(maintainer, "a", 0) is root.children[0]
        assert find_labeled(maintainer, "a", 1) is None
        for label in "rab":
            for ordinal in range(-1, 5):
                assert find_labeled(maintainer, label, ordinal) is \
                    preorder_labeled(root, label, ordinal)
        maintainer.check()


class TestExactTruthOnTheLiveDocument:
    def test_live_tree_answers_like_a_fresh_copy(self):
        """Exact truth read straight from the maintained document equals
        truth on a freshly indexed copy after every op: the edits keep
        the tree's indexes fresh, so no caller needs ``copy()``."""
        tree = sprot_like(scale=0.05, seed=4)
        ops = make_mutation_workload(tree, num_ops=40, seed=5)
        maintainer = SketchMaintainer(tree, _budget_for(tree))
        twigs = [parse_twig(q) for q in (
            "//entry[//ref] (//feature)",
            "//feature (/location)",
            "//entry (//ref (/author ?))",
        )]
        for op in ops:
            apply_mutation(maintainer, op)
            live = ExactEvaluator(maintainer.tree)
            fresh = ExactEvaluator(maintainer.tree.copy())
            for twig in twigs:
                assert live.selectivity(twig) == fresh.selectivity(twig), op


class TestReplayOracle:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_bitwise_after_random_workload(self, seed):
        tree = _document()
        budget = _budget_for(tree)
        ops = make_mutation_workload(tree, num_ops=40, seed=seed)
        maintainer = SketchMaintainer(tree, budget)
        for i, op in enumerate(ops):
            apply_mutation(maintainer, op)
            if (i + 1) % 10 == 0:
                maintainer.check()
                _assert_bitwise_replay(maintainer)
        maintainer.check()
        _assert_bitwise_replay(maintainer)
        assert maintainer.mutations == len(ops)

    def test_bitwise_after_forced_full_remerge(self):
        tree = _document()
        maintainer = SketchMaintainer(
            tree, _budget_for(tree),
            options=LiveOptions(auto_remerge=False))
        for op in make_mutation_workload(tree, num_ops=30, seed=3):
            apply_mutation(maintainer, op)
        maintainer.remerge(full=True)
        assert maintainer.total_debt() == 0.0  # a full pass settles all debt
        maintainer.check()
        _assert_bitwise_replay(maintainer)

    def test_delete_everything_inserted(self):
        """Insert-then-delete sequences must return to consistent state."""
        tree = _document()
        maintainer = SketchMaintainer(tree, _budget_for(tree))
        root_label = tree.root.label
        inserted = []
        for i in range(12):
            parent = find_labeled(maintainer, root_label, 0)
            node = maintainer.insert_subtree(
                parent, ("extra", ["leafa", ("mid", ["leafb"])]))
            inserted.append(node)
        for node in inserted:
            maintainer.delete_subtree(node)
        maintainer.check()
        _assert_bitwise_replay(maintainer)
        assert _label_counts(maintainer.tree).get("extra", 0) == 0


def _pairwise_region_drain(part, region, budget_bytes):
    """A local re-merge written out on its own: score every same-label
    pair of the region up front, then drain, applying merges until under
    budget and then while the best candidate's ratio is <= 0.  The oracle
    ``merge_region`` must match; returns the merges applied."""
    version = part.version
    by_label = {}
    for u in sorted(region):
        by_label.setdefault(part.cluster_label[u], []).append(u)
    heap = []
    for group in by_label.values():
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                ratio, errd, sized = part.scored_merge(u, v)
                if sized > 0:
                    heap.append((ratio, errd, sized, u, v,
                                 version.get(u, 0), version.get(v, 0)))
    heapq.heapify(heap)
    merged_into, merges = {}, []
    while heap and (part.size_bytes() > budget_bytes or heap[0][0] <= 0):
        _ratio, _errd, _sized, u, v, ver_u, ver_v = heapq.heappop(heap)
        while u in merged_into:
            u = merged_into[u]
        while v in merged_into:
            v = merged_into[v]
        if u == v:
            continue
        cur_u, cur_v = version.get(u, 0), version.get(v, 0)
        if (ver_u, ver_v) != (cur_u, cur_v):
            ratio, errd, sized = part.scored_merge(u, v)
            if sized > 0:
                heapq.heappush(heap, (ratio, errd, sized, u, v, cur_u, cur_v))
            continue
        part.apply_merge(u, v)
        merged_into[v] = u
        merges.append((u, v))
    return merges


class TestLocalRemerge:
    def test_merge_region_matches_a_pairwise_region_drain(self, monkeypatch):
        """Every local re-merge (CREATEPOOL over the region, TSBUILD's
        drain, free merges under budget) applies the merges, in order,
        that the pairwise region drain applies to a copy of the same
        state."""
        original = TreeSketchBuilder.merge_region
        checked = []

        def compared(builder, region, budget_bytes):
            part = builder.partition
            expected = _pairwise_region_drain(
                copy.deepcopy(part), region, budget_bytes)
            applied = []
            apply = part.apply_merge
            part.apply_merge = lambda u, v: applied.append((u, v)) or apply(u, v)
            try:
                original(builder, region, budget_bytes)
            finally:
                del part.apply_merge
            assert applied == expected
            checked.append(len(applied))

        monkeypatch.setattr(TreeSketchBuilder, "merge_region", compared)
        # This stream meets ratio-0 candidates under budget, so the stop
        # rule, not only the budget, ends some of its drains.
        tree = xmark_like(scale=0.05, seed=4)
        maintainer = SketchMaintainer(
            tree, _budget_for(tree, 0.6),
            options=LiveOptions(debt_threshold=2.0))
        for op in make_mutation_workload(tree, num_ops=40, seed=2):
            apply_mutation(maintainer, op)
        assert len(checked) == maintainer.remerges > 0
        assert sum(checked) == maintainer.remerge_merges > 0


class TestEstimateEquivalence:
    def test_snapshot_estimates_match_replayed_partition(self):
        """Estimates are a pure function of the partition tables, so the
        maintained snapshot must answer every query like the from-scratch
        replay of its own clustering (ids differ; statistics do not)."""
        tree = _document()
        maintainer = SketchMaintainer(tree, _budget_for(tree, 0.4))
        for op in make_mutation_workload(tree, num_ops=50, seed=11):
            apply_mutation(maintainer, op)
        snapshot = maintainer.snapshot()
        replayed, _ = rebuild_partition_like(maintainer)
        oracle = replayed.to_treesketch()
        labels = sorted(_label_counts(maintainer.tree))
        queries = [f"//{label}" for label in labels]
        queries += ["//a (//b)", "//c (//d (//e ?))", "//a[//c] (//b ?)"]
        for text in queries:
            query = parse_twig(text)
            lhs = estimate_selectivity(eval_query(snapshot, query))
            rhs = estimate_selectivity(eval_query(oracle, query))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9), text

    def test_snapshot_is_a_servable_treesketch(self):
        tree = _document()
        maintainer = SketchMaintainer(tree, _budget_for(tree))
        for op in make_mutation_workload(tree, num_ops=20, seed=5):
            apply_mutation(maintainer, op)
        snapshot = maintainer.snapshot()
        snapshot.validate()
        value = estimate_selectivity(
            eval_query(snapshot, parse_twig("//a (//b)")))
        assert math.isfinite(value) and value >= 0.0


class TestDebtModel:
    def test_debt_bound_holds_after_every_edit(self):
        """The headline invariant: auto_remerge never lets a cluster's
        accumulated drift stay above the threshold past the edit that
        pushed it over."""
        tree = _document()
        options = LiveOptions(debt_threshold=2.0)
        maintainer = SketchMaintainer(
            tree, _budget_for(tree, 0.4), options=options)
        for op in make_mutation_workload(tree, num_ops=60, seed=2):
            apply_mutation(maintainer, op)
            assert maintainer.max_debt() <= options.debt_threshold + 1e-9
        assert maintainer.remerges > 0  # the workload did trip the trigger
        maintainer.check()
        _assert_bitwise_replay(maintainer)

    def test_debt_accrues_without_auto_remerge(self):
        tree = _document()
        options = LiveOptions(debt_threshold=5.0, auto_remerge=False)
        maintainer = SketchMaintainer(
            tree, _budget_for(tree, 0.4), options=options)
        for op in make_mutation_workload(tree, num_ops=60, seed=2):
            apply_mutation(maintainer, op)
        assert maintainer.remerges == 0
        accrued = maintainer.total_debt()
        assert accrued > options.debt_threshold
        merges = maintainer.remerge()
        assert maintainer.max_debt() <= options.debt_threshold + 1e-9
        assert maintainer.remerges == 1 and merges >= 0
        maintainer.check()

    def test_dissolve_cap_keeps_remerge_bounded(self):
        """``max_dissolve=0`` disables dissolution entirely: local
        re-merges still attend the region and settle its debt, and the
        live tables stay exact -- the cap only defers accuracy recovery
        (a giant drifted cluster waits for ``remerge(full=True)``
        instead of exploding the re-merge's pool, which scores every
        same-label pair of the region)."""
        tree = _document()
        options = LiveOptions(debt_threshold=2.0, max_dissolve=0)
        maintainer = SketchMaintainer(
            tree, _budget_for(tree, 0.4), options=options)
        for op in make_mutation_workload(tree, num_ops=40, seed=2):
            apply_mutation(maintainer, op)
            assert maintainer.max_debt() <= options.debt_threshold + 1e-9
        maintainer.check()
        _assert_bitwise_replay(maintainer)

    def test_info_and_routing_counters(self):
        tree = _document()
        with obs.observed() as registry:
            maintainer = SketchMaintainer(tree, _budget_for(tree))
            ops = make_mutation_workload(
                tree, num_ops=30, seed=4, insert_fraction=0.8)
            for op in ops:
                apply_mutation(maintainer, op)
        info = maintainer.info()
        assert info["mutations"] == len(ops)
        assert info["routed"] == maintainer.routed
        assert info["singletons"] == maintainer.singletons
        assert maintainer.routed + maintainer.singletons > 0
        assert info["debt_total"] == pytest.approx(maintainer.total_debt())
        assert info["size_bytes"] == maintainer.size_bytes()
        flat = obs.report.flatten_snapshot(registry.snapshot())
        assert flat["counters.live.mutations"] == len(ops)
        inserts = sum(1 for op in ops if op.action == "insert_subtree")
        assert flat["counters.live.inserts"] == inserts
        assert flat["counters.live.deletes"] == len(ops) - inserts
        assert flat.get("counters.live.routed", 0) == maintainer.routed



class TestStampFloors:
    @pytest.mark.parametrize("seed", range(6))
    def test_a_returning_id_restarts_above_its_old_versions(self, seed):
        """Under a low ``debt_threshold`` clusters are merged away, die,
        are reborn as singletons and are dissolved.  A cluster id's
        ``version`` never falls while the id is live, and an id that comes
        back holds a version strictly above every version it held before;
        otherwise a merge-memo or heap entry stamped before it left would
        read as fresh."""
        tree = sprot_like(scale=0.6, seed=seed)
        maintainer = SketchMaintainer(
            tree, 3 * 1024, options=LiveOptions(debt_threshold=2.0))
        version = maintainer.partition.version
        highest = dict(version)
        live = set(version)
        returned = 0
        for op in make_mutation_workload(tree, num_ops=80, seed=seed):
            apply_mutation(maintainer, op)
            for cid, ver in version.items():
                if cid in live:
                    assert ver >= highest[cid], (cid, ver, highest[cid])
                elif cid in highest:
                    returned += 1
                    assert ver > highest[cid], (cid, ver, highest[cid])
                highest[cid] = max(ver, highest.get(cid, ver))
            live = set(version)
        assert returned > 0, "no id came back; the test is vacuous"

    @pytest.mark.parametrize("seed", range(3))
    def test_floors_are_kept_only_for_ids_that_can_return(self, seed):
        """Only a live class's id can name a cluster again (through
        ``dissolve``): class ids are never reused.  So after every edit
        each stamp floor belongs to a live class whose id names no live
        cluster, and the table does not grow with the dead."""
        tree = sprot_like(scale=0.6, seed=seed)
        maintainer = SketchMaintainer(
            tree, 3 * 1024, options=LiveOptions(debt_threshold=2.0))
        part = maintainer.partition
        died = False
        for op in make_mutation_workload(tree, num_ops=80, seed=seed):
            classes = set(part.s_count)
            apply_mutation(maintainer, op)
            died = died or not classes <= set(part.s_count)
            floors = set(part._stamp_floor)
            assert floors <= set(part.s_count), floors - set(part.s_count)
            assert not floors & set(part.members)
        assert died and maintainer.remerges, "the test is vacuous"


def _relisting_workload(tree, num_ops, seed, insert_fraction,
                        max_subtree_nodes):
    """The generator as it was, listing the whole shadow document on
    every op: the oracle its ops must match."""
    rng = random.Random(seed)
    shadow = tree.copy()
    labels = shadow.labels
    ops = []
    for _ in range(num_ops):
        nodes = list(shadow.root.iter_preorder())
        if rng.random() >= insert_fraction and len(nodes) > 1:
            target = rng.choice(nodes[1:])
            ops.append(MutationOp(action="delete_subtree", label=target.label,
                                  ordinal=shadow.ordinal_of(target)))
            shadow.delete_subtree(target)
        else:
            parent = rng.choice(nodes)
            spec = _random_spec(rng, labels,
                                rng.randint(1, max_subtree_nodes))
            ops.append(MutationOp(action="insert_subtree",
                                  parent_label=parent.label,
                                  parent_ordinal=shadow.ordinal_of(parent),
                                  subtree=spec))
            shadow.insert_subtree(parent, build_nested(spec))
    return ops


class TestMutationWorkload:
    def test_script_round_trip(self):
        tree = _document()
        ops = make_mutation_workload(tree, num_ops=25, seed=9)
        assert any(isinstance(op.subtree, list) for op in ops)
        assert load_ops(dump_ops(ops)) == ops
        text = "# comment\n\n" + dump_ops(ops)
        assert load_ops(text) == ops

    def test_generated_sequence_replays_validly(self):
        """Every generated op must resolve when applied in order -- on a
        maintainer whose document started identical to the generator's."""
        tree = _document()
        ops = make_mutation_workload(tree, num_ops=50, seed=13)
        maintainer = SketchMaintainer(tree, _budget_for(tree))
        for op in ops:
            apply_mutation(maintainer, op)  # KeyError would fail the test
        maintainer.check()
        assert all(op.label != tree.root.label or op.ordinal != 0
                   for op in ops if op.action == "delete_subtree")

    @pytest.mark.parametrize("insert_fraction", [0.2, 0.5, 0.9])
    def test_generator_matches_relisting_oracle(self, insert_fraction):
        """The generator keeps its shadow document's pre-order current
        through each edit instead of re-listing it per op; the ops are
        byte-identical to the re-listing version's."""
        tree = _document()
        for seed in (0, 1, 7, 13):
            ops = make_mutation_workload(
                tree, num_ops=60, seed=seed, insert_fraction=insert_fraction)
            assert dump_ops(ops) == dump_ops(_relisting_workload(
                tree, 60, seed, insert_fraction, 6))

    def test_generator_leaves_input_untouched(self):
        tree = _document()
        before = _label_counts(tree)
        make_mutation_workload(tree, num_ops=30, seed=1)
        assert _label_counts(tree) == before

    def test_bad_address_raises_keyerror(self):
        tree = _document()
        maintainer = SketchMaintainer(tree, _budget_for(tree))
        with pytest.raises(KeyError):
            apply_mutation(maintainer, MutationOp(
                action="delete_subtree", label="nope", ordinal=0))
        with pytest.raises(KeyError):
            apply_mutation(maintainer, MutationOp(
                action="insert_subtree", parent_label="site",
                parent_ordinal=99, subtree="x"))
