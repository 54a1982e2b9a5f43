"""Unit tests for repro.xmltree.tree."""

import random

import pytest

from repro.xmltree.node import XMLNode
from repro.xmltree.parser import parse_xml
from repro.xmltree.tree import XMLTree, build_nested
from tests.conftest import make_random_tree


class TestConstruction:
    def test_from_nested_leaf_strings(self):
        tree = XMLTree.from_nested(("r", ["a", "b"]))
        assert len(tree) == 3
        assert [n.label for n in tree] == ["r", "a", "b"]

    def test_from_nested_deep(self):
        tree = XMLTree.from_nested(("r", [("a", [("b", ["c"])])]))
        assert len(tree) == 4
        assert tree.height == 3

    def test_requires_root(self):
        with pytest.raises(ValueError):
            XMLTree(None)

    def test_oids_are_preorder(self, small_tree):
        oids = [n.oid for n in small_tree.root.iter_preorder()]
        assert oids == list(range(len(small_tree)))

    def test_node_lookup_by_oid(self, small_tree):
        for node in small_tree:
            assert small_tree.node(node.oid) is node


class TestIndexes:
    def test_labels_sorted(self, small_tree):
        assert small_tree.labels == ["a", "b", "c", "r"]

    def test_nodes_with_label(self, small_tree):
        assert len(small_tree.nodes_with_label("a")) == 2
        assert len(small_tree.nodes_with_label("c")) == 2
        assert small_tree.nodes_with_label("zzz") == []

    def test_oids_with_label_sorted(self, small_tree):
        oids = small_tree.oids_with_label("c")
        assert oids == sorted(oids)

    def test_level(self, small_tree):
        assert small_tree.level(small_tree.root) == 0
        for child in small_tree.root.children:
            assert small_tree.level(child) == 1

    def test_height_of_leaf_only_tree(self):
        assert XMLTree(XMLNode("x")).height == 0

    def test_depth_below_matches_node_method(self, paper_document):
        for node in paper_document:
            assert paper_document.depth_below(node) == node.depth_below()


class TestAncestry:
    def test_is_ancestor_direct(self, small_tree):
        root = small_tree.root
        for child in root.children:
            assert small_tree.is_ancestor(root, child)
            assert not small_tree.is_ancestor(child, root)

    def test_is_ancestor_not_self(self, small_tree):
        assert not small_tree.is_ancestor(small_tree.root, small_tree.root)

    def test_is_ancestor_transitive(self):
        tree = XMLTree.from_nested(("r", [("a", [("b", ["c"])])]))
        r, a = tree.node(0), tree.node(1)
        c = tree.node(3)
        assert tree.is_ancestor(r, c)
        assert tree.is_ancestor(a, c)

    def test_siblings_not_ancestors(self, small_tree):
        first, second = small_tree.root.children
        assert not small_tree.is_ancestor(first, second)
        assert not small_tree.is_ancestor(second, first)

    def test_subtree_size(self, small_tree):
        assert small_tree.subtree_size(small_tree.root) == len(small_tree)
        for node in small_tree:
            assert small_tree.subtree_size(node) == node.subtree_size()

    def test_subtree_size_random(self, rng):
        tree = make_random_tree(rng, 200)
        for node in tree:
            assert tree.subtree_size(node) == node.subtree_size()

    def test_descendant_oid_range_contiguous(self, rng):
        tree = make_random_tree(rng, 100)
        for node in tree:
            expected = sorted(
                d.oid for d in node.iter_preorder() if d is not node
            )
            assert list(tree.descendant_oid_range(node)) == expected


class TestCopy:
    def test_copy_is_structurally_equal(self, paper_document):
        clone = paper_document.copy()
        assert len(clone) == len(paper_document)
        for a, b in zip(paper_document, clone):
            assert a.label == b.label
            assert len(a.children) == len(b.children)

    def test_copy_is_independent(self, small_tree):
        clone = small_tree.copy()
        clone.root.new_child("extra")
        clone.reindex()
        assert len(clone) == len(small_tree) + 1

    def test_copy_keeps_values(self):
        tree = parse_xml("<r><a>x</a><b>y</b></r>", keep_values=True)
        assert [node.value for node in tree.copy()] == [None, "x", "y"]


def _insert_in_the_middle(tree):
    """A chain deeper than the document, so the height changes too."""
    spec = "a"
    for label in "bc" * tree.height:
        spec = (label, [spec, "b"])
    parent = tree.node(len(tree) // 2)
    return tree.insert_subtree(parent, build_nested(spec))


def _delete_before(tree):
    first, last = tree.root.children[0], tree.root.children[-1]
    assert first is not last
    tree.delete_subtree(first)
    return last


# The first read of each oid-numbered index after an edit.  The edited
# node's oid is stale until the rebuild: -1 for an inserted node, shifted
# for a node after a deleted sub-tree.
FIRST_READS = {
    "len": lambda tree, node: len(tree),
    "iter": lambda tree, node: [n.label for n in tree],
    "node": lambda tree, node: [tree.node(oid).label for oid in range(40)],
    "nodes": lambda tree, node: [n.label for n in tree.nodes],
    "oids_with_label": lambda tree, node: tree.oids_with_label(node.label),
    "depth_below": lambda tree, node: tree.depth_below(node.parent),
    "level": lambda tree, node: tree.level(node),
    "height": lambda tree, node: tree.height,
    "subtree_size": lambda tree, node: tree.subtree_size(node),
    "descendant_oid_range": lambda tree, node: tree.descendant_oid_range(node),
    "is_ancestor": lambda tree, node: [
        tree.is_ancestor(a, node) for a in tree.root.iter_preorder()],
}


class TestEdits:
    @pytest.mark.parametrize("read", sorted(FIRST_READS))
    @pytest.mark.parametrize("edit", [_insert_in_the_middle, _delete_before])
    def test_first_read_after_an_edit_is_fresh(self, edit, read):
        tree = make_random_tree(random.Random(3), 60)
        node = edit(tree)
        answer = FIRST_READS[read](tree, node)
        fresh = tree.copy()
        position = list(tree.root.iter_preorder()).index(node)
        twin = list(fresh.root.iter_preorder())[position]
        assert answer == FIRST_READS[read](fresh, twin)

    @pytest.mark.parametrize("call", ["insert_subtree", "delete_subtree",
                                      "ordinal_of"])
    @pytest.mark.parametrize("shared_label", [False, True])
    def test_a_node_of_another_document_is_rejected(self, call,
                                                    shared_label):
        """An edit or lookup naming another document's node raises
        ValueError and leaves both documents and their label and oid
        indexes as they were, whether or not this document has the
        node's label."""
        mine = XMLTree.from_nested(("r", ["a", ("b", ["a"])]))
        theirs = XMLTree.from_nested(("s", ["a" if shared_label else "x"]))

        def state(tree):
            return ([(n.label, [c.label for c in n.children])
                     for n in tree.root.iter_preorder()],
                    {label: tree.nodes_with_label(label)
                     for label in tree.labels},
                    [(n.oid, tree.subtree_size(n), tree.level(n))
                     for n in tree],
                    {label: tree.oids_with_label(label)
                     for label in tree.labels})

        before = state(mine), state(theirs)
        foreign = theirs.root.children[0]
        with pytest.raises(ValueError, match="not in this document"):
            if call == "insert_subtree":
                mine.insert_subtree(foreign, build_nested(("q", ["a"])))
            else:
                getattr(mine, call)(foreign)
        assert (state(mine), state(theirs)) == before
        assert foreign.parent is theirs.root and not foreign.children
