"""Unit tests for repro.xmltree.serialize."""

import random
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.build import build_treesketch
from repro.core.evaluate import eval_query
from repro.core.expand import expand_result
from repro.query.parser import parse_twig
from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_compact, parse_xml
from repro.xmltree.serialize import to_compact, to_etree, to_xml, xml_byte_size
from repro.xmltree.tree import XMLTree
from tests.conftest import make_random_tree


class TestToXML:
    def test_single_node(self):
        assert to_xml(XMLTree.from_nested(("r", []))) == "<r />"

    def test_nested(self):
        text = to_xml(XMLTree.from_nested(("a", [("b", ["c"])])))
        assert "<a>" in text and "<c />" in text

    def test_round_trip_structure(self, paper_document):
        again = parse_xml(to_xml(paper_document))
        assert [n.label for n in again] == [n.label for n in paper_document]

    def test_values_serialized(self):
        tree = parse_xml("<a><b>v1</b></a>", keep_values=True)
        assert ">v1</b>" in to_xml(tree)

    def test_byte_size(self, small_tree):
        assert xml_byte_size(small_tree) > 0
        assert xml_byte_size(small_tree) == len(to_xml(small_tree).encode("utf-8"))


LABELS = ["a", "b", "c", "", "{urn:x}a"]
VALUES = st.one_of(st.none(), st.sampled_from(["", "&", "<", ">", "a&b<c>d"]),
                   st.text(alphabet="ab&<>'\" ", max_size=6))


@st.composite
def labeled_trees(draw):
    """Random trees over a small label alphabet, the empty label and one
    namespace-form label, with leaf values that need escaping."""
    size = draw(st.integers(min_value=0, max_value=25))
    root = XMLNode(draw(st.sampled_from(LABELS)), value=draw(VALUES))
    nodes = [root]
    for _ in range(size):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        child = parent.add_child(
            XMLNode(draw(st.sampled_from(LABELS)), value=draw(VALUES)))
        nodes.append(child)
    return XMLTree(root)


@given(labeled_trees())
@settings(max_examples=200, deadline=None)
def test_to_xml_matches_elementtree(tree):
    assert to_xml(tree) == ET.tostring(to_etree(tree), encoding="unicode")


def _elementtree_text(nesting):
    """Oracle: the nesting tree's nodes copied into ElementTree and
    serialized there."""
    root = ET.Element(nesting.root.label)
    stack = [(nesting.root, root)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            stack.append((child, ET.SubElement(dst, child.label)))
    return ET.tostring(root, encoding="unicode")


TWIGS = ["//a", "//a (//b)", "//a (//b ?, //c ?)", "//b[//c] (//a ?)",
         "//c (/a (//b ?))"]


@pytest.mark.parametrize("seed", [None, 0, 7])
@pytest.mark.parametrize("tree_seed", range(6))
def test_nesting_tree_serializes_like_elementtree(tree_seed, seed):
    tree = make_random_tree(random.Random(tree_seed), 300, labels="abc")
    sketch = build_treesketch(tree, 1024)
    for twig in TWIGS:
        nesting = expand_result(eval_query(sketch, parse_twig(twig)),
                                sketch=sketch, seed=seed)
        text = to_xml(nesting)
        assert text == _elementtree_text(nesting), twig
        assert text == ET.tostring(to_etree(nesting), encoding="unicode")
        assert len(parse_xml(text)) == nesting.size(), twig


class TestToEtree:
    def test_structure(self, small_tree):
        root = to_etree(small_tree)
        assert root.tag == "r"
        assert len(list(root)) == 2

    def test_sibling_order(self):
        tree = XMLTree.from_nested(("r", ["x", "y", "z"]))
        root = to_etree(tree)
        assert [c.tag for c in root] == ["x", "y", "z"]


class TestToCompact:
    def test_round_trip(self, paper_document):
        again = parse_compact(to_compact(paper_document))
        assert [n.label for n in again] == [n.label for n in paper_document]

    def test_indent_width(self, small_tree):
        text = to_compact(small_tree, indent=3)
        lines = text.splitlines()
        assert lines[0] == "r"
        assert lines[1].startswith("   ")
        assert not lines[1].startswith("    ")

    def test_single_node(self):
        assert to_compact(XMLTree.from_nested(("only", []))) == "only"
