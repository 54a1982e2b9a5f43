"""Unit tests for the exact twig evaluation engine."""

import pytest

from repro.engine.exact import ExactEvaluator
from repro.query.parser import parse_path, parse_twig
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml
from repro.xmltree.tree import XMLTree, build_nested


@pytest.fixture
def evaluator(paper_document):
    return ExactEvaluator(paper_document)


class TestPathTargets:
    def test_child_axis(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("/a"))
        assert len(targets) == 3
        assert all(t.label == "a" for t in targets)

    def test_descendant_axis(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("//k"))
        assert len(targets) == 5

    def test_descendant_axis_from_inner_node(self, evaluator, paper_document):
        first_author = paper_document.root.children[0]
        targets = evaluator.path_targets(first_author, parse_path("//k"))
        assert len(targets) == 3

    def test_multi_step(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("/a/p/k"))
        assert len(targets) == 5

    def test_predicate_filters(self, evaluator, paper_document):
        # Authors having a book: the 2nd and 3rd.
        targets = evaluator.path_targets(paper_document.root, parse_path("//a[//b]"))
        assert len(targets) == 2

    def test_predicate_no_match(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("//a[//zzz]"))
        assert targets == []

    def test_results_in_document_order(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("//p"))
        oids = [t.oid for t in targets]
        assert oids == sorted(oids)

    def test_no_duplicate_targets_via_multiple_paths(self):
        # //x//y where y is reachable from two x ancestors must not dup.
        tree = XMLTree.from_nested(("r", [("x", [("x", [("y", [])])])]))
        ev = ExactEvaluator(tree)
        targets = ev.path_targets(tree.root, parse_path("//x//y"))
        assert len(targets) == 1

    def test_wildcard_child(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("/*"))
        assert len(targets) == 3

    def test_alternation(self, evaluator, paper_document):
        targets = evaluator.path_targets(paper_document.root, parse_path("//p|b"))
        assert len(targets) == 6  # 4 papers + 2 books


class TestAfterEdits:
    def test_an_evaluator_follows_edits_made_through_the_tree(self):
        """Built before the edits, it still answers on the current
        document: the child axis needs fresh oids (two new nodes share
        the unindexed oid -1) and the descendant axis fresh label lists."""
        tree = XMLTree.from_nested(("r", ["a"]))
        evaluator = ExactEvaluator(tree)
        for _ in range(2):
            tree.insert_subtree(tree.root, build_nested("a"))
        assert evaluator.selectivity(parse_twig("/a")) == 3
        assert evaluator.selectivity(parse_twig("//a")) == 3


class TestSelectivity:
    def test_single_path(self, evaluator):
        assert evaluator.selectivity(parse_twig("//a")) == 3

    def test_two_level(self, evaluator):
        assert evaluator.selectivity(parse_twig("//a (//p)")) == 4

    def test_branching_multiplies(self, evaluator):
        # per author: papers x names; authors have (2,1), (1,1), (1,1)
        assert evaluator.selectivity(parse_twig("//a (//p, //n)")) == 4

    def test_paper_figure2_query(self, evaluator):
        q = parse_twig("//a[//b] ( //p ( //k ? ), //n ? )")
        # Fig. 2(c): two binding tuples (a2/p8/k22/n7, a3/p9/k26/n10).
        assert evaluator.selectivity(q) == 2

    def test_empty_result(self, evaluator):
        assert evaluator.selectivity(parse_twig("//zzz")) == 0

    def test_solid_unsatisfied_nullifies(self, evaluator):
        # Books have no keywords.
        assert evaluator.selectivity(parse_twig("//b (//k)")) == 0

    def test_optional_does_not_nullify(self, evaluator):
        assert evaluator.selectivity(parse_twig("//b (//k ?)")) == 2

    def test_optional_with_matches_counts_matches(self, evaluator):
        # //p with optional //k: p4(1), p5(2), p8(1), p9(1) -> 5 tuples.
        assert evaluator.selectivity(parse_twig("//p (//k ?)")) == 5

    def test_deep_solid_constraint_propagates(self, evaluator):
        # a[//b] via solid child chain: only 2 authors have books.
        assert evaluator.selectivity(parse_twig("//a (//b)")) == 2


class TestNestingTree:
    def test_root_only_for_empty_result(self, evaluator):
        nt = evaluator.evaluate(parse_twig("//zzz"))
        assert nt.size() == 1
        assert nt.binding_tuple_count() == 0

    def test_tuple_count_matches_selectivity(self, evaluator):
        for text in ["//a", "//a (//p, //n)", "//a[//b] ( //p ( //k ? ), //n ? )",
                     "//p (//k ?)", "//a (//p (//k), //n ?)"]:
            q = parse_twig(text)
            nt = evaluator.evaluate(q)
            assert nt.binding_tuple_count() == evaluator.selectivity(q), text

    def test_figure2_nesting_tree_shape(self, evaluator):
        q = parse_twig("//a[//b] ( //p ( //k ? ), //n ? )")
        nt = evaluator.evaluate(q)
        # Fig. 2(c): d0 -> 2 authors, each with one paper (w/ keyword) + name.
        assert len(nt.root.children) == 2
        for author in nt.root.children:
            assert author.label == "a"
            labels = sorted(c.label for c in author.children)
            assert labels == ["n", "p"]

    def test_nesting_tree_labels_match_bindings(self, evaluator):
        q = parse_twig("//a (//p)")
        nt = evaluator.evaluate(q)
        for author in nt.root.children:
            assert author.qvar == "q1"
            for p in author.children:
                assert p.qvar == "q2"
                assert p.label == "p"

    def test_unsatisfied_bindings_excluded(self, evaluator):
        # //a (//b): author 1 has no book and must not appear.
        nt = evaluator.evaluate(parse_twig("//a (//b)"))
        assert len(nt.root.children) == 2

    def test_to_xml_round_trip(self, evaluator):
        q = parse_twig("//a (//p)")
        tree = parse_xml(to_xml(evaluator.evaluate(q)))
        assert tree.root.label == "d"
        assert len(tree) == evaluator.evaluate(q).size()


class TestDescendantSemantics:
    def test_descendant_excludes_self(self):
        tree = XMLTree.from_nested(("a", [("a", [])]))
        ev = ExactEvaluator(tree)
        # //a from the root finds only the inner a.
        assert ev.selectivity(parse_twig("//a")) == 1

    def test_nested_same_label_bindings(self):
        tree = XMLTree.from_nested(("r", [("a", [("a", [("b", [])])])]))
        ev = ExactEvaluator(tree)
        # //a//b: only the inner a has a b descendant... and the outer too
        # (b is a descendant of both).
        assert ev.selectivity(parse_twig("//a (//b)")) == 2
