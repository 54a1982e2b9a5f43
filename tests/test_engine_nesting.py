"""Unit tests for nesting trees (repro.engine.nesting)."""

import pytest

from repro.engine.nesting import NestingTree, NTNode, empty_result
from repro.query.parser import parse_twig
from repro.xmltree.parser import parse_xml
from repro.xmltree.serialize import to_xml


def build_nt(query, spec):
    """spec: nested (label, qvar, [children])."""

    def make(s):
        label, qvar, children = s
        node = NTNode(label=label, qvar=qvar)
        for c in children:
            node.add(make(c))
        return node

    return NestingTree(make(spec), query)


class TestNTNode:
    def test_subtree_size(self):
        node = NTNode("a", "q1")
        node.add(NTNode("b", "q2"))
        node.add(NTNode("b", "q2")).add(NTNode("c", "q3"))
        assert node.subtree_size() == 4

    def test_add_returns_child(self):
        node = NTNode("a", "q1")
        child = node.add(NTNode("b", "q2"))
        assert child in node.children


class TestBindingTupleCount:
    def test_single_chain(self):
        q = parse_twig("//a")
        nt = build_nt(q, ("r", "q0", [("a", "q1", []), ("a", "q1", [])]))
        assert nt.binding_tuple_count() == 2

    def test_product_across_branches(self):
        q = parse_twig("//a ( /b, /c )")
        nt = build_nt(
            q,
            ("r", "q0", [
                ("a", "q1", [
                    ("b", "q2", []), ("b", "q2", []),
                    ("c", "q3", []), ("c", "q3", []), ("c", "q3", []),
                ])
            ]),
        )
        assert nt.binding_tuple_count() == 6

    def test_sum_across_occurrences(self):
        q = parse_twig("//a ( /b )")
        nt = build_nt(
            q,
            ("r", "q0", [
                ("a", "q1", [("b", "q2", [])]),
                ("a", "q1", [("b", "q2", []), ("b", "q2", [])]),
            ]),
        )
        assert nt.binding_tuple_count() == 3

    def test_optional_empty_counts_one(self):
        q = parse_twig("//a ( /b ? )")
        nt = build_nt(q, ("r", "q0", [("a", "q1", [])]))
        assert nt.binding_tuple_count() == 1

    def test_solid_empty_counts_zero(self):
        q = parse_twig("//a ( /b )")
        nt = build_nt(q, ("r", "q0", [("a", "q1", [])]))
        assert nt.binding_tuple_count() == 0

    def test_empty_result_helper(self):
        q = parse_twig("//a")
        nt = empty_result(q)
        assert nt.size() == 1
        assert nt.binding_tuple_count() == 0
        assert nt.is_empty()


class TestConversion:
    def test_to_xml_structure(self):
        q = parse_twig("//a ( /b )")
        nt = build_nt(
            q, ("r", "q0", [("a", "q1", [("b", "q2", [])])])
        )
        assert to_xml(nt) == "<r><a><b /></a></r>"
        tree = parse_xml(to_xml(nt))
        assert len(tree) == 3
        assert tree.root.label == "r"
        assert tree.root.children[0].children[0].label == "b"

    def test_size(self):
        q = parse_twig("//a")
        nt = build_nt(q, ("r", "q0", [("a", "q1", [])]))
        assert nt.size() == 2
