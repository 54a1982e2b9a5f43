"""Unit tests for the TSBUILD merge partition (repro.core.partition)."""

import random

import pytest

from repro.core.partition import MergePartition
from repro.core.size import EDGE_BYTES, NODE_BYTES
from repro.core.stable import build_stable
from repro.core.treesketch import TreeSketch
from repro.xmltree.tree import XMLTree
from tests.conftest import make_random_tree


def label_pairs(part):
    """All mergeable same-label cluster pairs in the partition."""
    by_label = {}
    for cid, lab in part.cluster_label.items():
        by_label.setdefault(lab, []).append(cid)
    pairs = []
    for group in by_label.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs.append((group[i], group[j]))
    return pairs


class TestInitialState:
    def test_initial_matches_stable(self, paper_document):
        s = build_stable(paper_document)
        part = MergePartition(s)
        assert part.num_nodes == s.num_nodes
        assert part.num_edges == s.num_edges
        assert part.total_sq == 0.0
        assert part.size_bytes() == s.size_bytes()

    def test_initial_invariants(self, paper_document):
        MergePartition(build_stable(paper_document)).check_invariants()

    def test_to_treesketch_initial(self, paper_document):
        s = build_stable(paper_document)
        ts = MergePartition(s).to_treesketch()
        ts.validate()
        assert ts.squared_error() == 0.0
        ref = TreeSketch.from_stable(s)
        assert ts.count == ref.count
        for src, dst, avg in ref.edges():
            assert abs(ts.out[src][dst] - avg) < 1e-12


class TestEvaluateMerge:
    def test_self_merge_rejected(self, paper_document):
        part = MergePartition(build_stable(paper_document))
        cid = next(iter(part.members))
        with pytest.raises(ValueError):
            part.evaluate_merge(cid, cid)

    def test_sized_always_positive(self, paper_document):
        part = MergePartition(build_stable(paper_document))
        for u, v in label_pairs(part):
            assert part.evaluate_merge(u, v).sized >= NODE_BYTES

    def test_evaluate_matches_apply(self, rng):
        for _ in range(8):
            tree = make_random_tree(rng, rng.randint(20, 150))
            part = MergePartition(build_stable(tree))
            for _ in range(25):
                pairs = label_pairs(part)
                if not pairs:
                    break
                u, v = rng.choice(pairs)
                predicted = part.evaluate_merge(u, v)
                sq_before = part.total_sq
                size_before = part.size_bytes()
                part.apply_merge(u, v)
                assert abs((part.total_sq - sq_before) - predicted.errd) < 1e-6
                assert (size_before - part.size_bytes()) == predicted.sized

    def test_identical_structure_merge_is_free(self):
        # Two a's with identical sub-trees but different parents paths? In a
        # stable summary they are already one class; construct differing
        # contexts: a under r and a under s, same sub-structure.
        tree = XMLTree.from_nested(
            ("r", [("s", [("a", ["x"])]), ("a", ["x"])])
        )
        s = build_stable(tree)
        assert len(s.nodes_with_label("a")) == 1  # same sub-tree, one class

    def test_merge_of_different_counts_costs_error(self, figure3_t2):
        s = build_stable(figure3_t2)
        part = MergePartition(s)
        (b1, b4) = s.nodes_with_label("b")
        result = part.evaluate_merge(b1, b4)
        # Merging b-with-1-c and b-with-4-c: counts (1,1,4,4) -> sq 9.
        # Plus the parent a-classes' dimensions collapse.
        assert result.errd > 0


class TestApplyMerge:
    def test_counts_conserved(self, paper_document, rng):
        s = build_stable(paper_document)
        part = MergePartition(s)
        total = sum(part.count.values())
        while True:
            pairs = label_pairs(part)
            if not pairs:
                break
            part.apply_merge(*rng.choice(pairs))
            part.check_invariants()
            assert sum(part.count.values()) == total

    def test_dead_cluster_rejected(self, paper_document):
        part = MergePartition(build_stable(paper_document))
        pairs = label_pairs(part)
        if not pairs:
            pytest.skip("no mergeable pairs in fixture")
        u, v = pairs[0]
        part.apply_merge(u, v)
        with pytest.raises(ValueError):
            part.apply_merge(u, v)

    def test_versions_bumped_for_neighbourhood(self, figure3_t2):
        s = build_stable(figure3_t2)
        part = MergePartition(s)
        b1, b4 = s.nodes_with_label("b")
        versions_before = dict(part.version)
        part.apply_merge(b1, b4)
        # The merged node and the parent a-clusters must change version.
        assert part.version[b1] != versions_before.get(b1)
        for a in s.nodes_with_label("a"):
            assert part.version[a] != versions_before.get(a)

    def test_depth_is_max_of_members(self, paper_document, rng):
        s = build_stable(paper_document)
        part = MergePartition(s)
        pairs = label_pairs(part)
        if not pairs:
            pytest.skip("no mergeable pairs")
        u, v = pairs[0]
        expected = max(part.cluster_depth[u], part.cluster_depth[v])
        part.apply_merge(u, v)
        assert part.cluster_depth[u] == expected

    def test_treesketch_export_after_merges(self, rng):
        tree = make_random_tree(rng, 120)
        part = MergePartition(build_stable(tree))
        for _ in range(15):
            pairs = label_pairs(part)
            if not pairs:
                break
            part.apply_merge(*rng.choice(pairs))
        ts = part.to_treesketch()
        ts.validate()
        assert abs(ts.squared_error() - max(0.0, part.total_sq)) < 1e-6 * max(
            1.0, abs(part.total_sq)
        ) + 1e-6

    def test_merge_nodes_with_mutual_edges(self):
        # Recursive label: section inside section.
        tree = XMLTree.from_nested(
            ("r", [("s", [("s", ["x"]), "x"]), ("s", ["x"])])
        )
        s = build_stable(tree)
        part = MergePartition(s)
        sections = [c for c in part.members if part.cluster_label[c] == "s"]
        # Merge all section classes; some have edges into others.
        while len(sections) > 1:
            part.apply_merge(sections[0], sections[1])
            part.check_invariants()
            sections = [c for c in part.members if part.cluster_label[c] == "s"]
        ts = part.to_treesketch()
        ts.validate()


class TestNonImprovingMerges:
    """sized <= 0 candidates: defined ratio, skipped at pool insertion.

    A merge that frees no space cannot improve the error/size trade-off;
    ``MergeResult.ratio`` reports it as ``inf`` (instead of raising
    ZeroDivisionError) and candidate generation never pools it.
    """

    def test_ratio_is_inf_not_zero_division(self):
        from repro.core.partition import MergeResult

        assert MergeResult(5.0, 0).ratio == float("inf")
        assert MergeResult(0.0, 0).ratio == float("inf")
        assert MergeResult(5.0, -EDGE_BYTES).ratio == float("inf")
        assert MergeResult(6.0, 3).ratio == 2.0

    def test_scored_merge_guards_sized(self, monkeypatch):
        part = MergePartition(build_stable(make_random_tree(random.Random(0), 60)))
        monkeypatch.setattr(part, "_eval_raw", lambda u, v: (1.0, 0))
        u, v = label_pairs(part)[0]
        assert part.scored_merge(u, v) == (float("inf"), 1.0, 0)
        part.enable_memo()
        assert part.scored_merge(u, v) == (float("inf"), 1.0, 0)
        # Served from the memo on repeat, still guarded.
        assert part.scored_merge(u, v) == (float("inf"), 1.0, 0)
        assert part.memo_hits == 1

    @pytest.mark.parametrize("second_pass", [False, True])
    def test_pool_skips_non_improving_candidates(self, second_pass, monkeypatch):
        from repro.core.pool import create_pool

        part = MergePartition(build_stable(make_random_tree(random.Random(1), 80)))
        assert label_pairs(part), "need at least one candidate pair"
        monkeypatch.setattr(part, "_eval_raw", lambda u, v: (1.0, 0))
        assert create_pool(part, 100, None) == []
        if not second_pass:
            return
        # The memoized entries are re-served on the second pass and must
        # stay excluded there too.
        hits = part.memo_hits
        assert create_pool(part, 100, None) == []
        assert part.memo_hits > hits

    def test_kernel_scored_merge_guards_sized(self, monkeypatch):
        from repro.core.kernel import KernelPartition

        part = KernelPartition(build_stable(make_random_tree(random.Random(2), 60)))
        monkeypatch.setattr(part, "_eval_raw", lambda u, v: (2.0, 0))
        u, v = label_pairs(part)[0]
        assert part.scored_merge(u, v) == (float("inf"), 2.0, 0)
        part.enable_memo()
        assert part.scored_merge(u, v) == (float("inf"), 2.0, 0)
