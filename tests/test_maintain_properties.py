"""Property-based tests for incremental maintenance (hypothesis)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.live import find_labeled
from repro.core.maintain import StableMaintainer
from repro.core.stable import build_stable
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from tests.conftest import preorder_labeled


def canonical(summary):
    order = summary.topological_order()
    form = {}
    for nid in reversed(order):
        children = tuple(sorted(
            (form[c], int(k)) for c, k in summary.out.get(nid, {}).items()
        ))
        form[nid] = (summary.label[nid], children)
    return sorted((form[nid], summary.count[nid]) for nid in summary.label)


@st.composite
def edit_scripts(draw):
    """A random starting tree plus a random edit script."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    size = draw(st.integers(min_value=1, max_value=40))
    num_edits = draw(st.integers(min_value=1, max_value=25))
    return seed, size, num_edits


@given(edit_scripts())
@settings(max_examples=30, deadline=None)
def test_maintenance_equals_rebuild(script):
    seed, size, num_edits = script
    rng = random.Random(seed)
    root = XMLNode("r")
    nodes = [root]
    for _ in range(size):
        parent = rng.choice(nodes)
        nodes.append(parent.new_child(rng.choice("abc")))
    tree = XMLTree(root)
    maintainer = StableMaintainer(tree)

    for _ in range(num_edits):
        current = list(tree.root.iter_preorder())
        if rng.random() < 0.6 or len(current) < 3:
            parent = rng.choice(current)
            depth = rng.randint(0, 2)
            maintainer.insert_subtree(parent, _spec(rng, depth))
        else:
            maintainer.delete_subtree(rng.choice(current[1:]))

    fresh = build_stable(XMLTree(tree.root))
    assert canonical(maintainer.summary()) == canonical(fresh)
    # Counts cover the whole document.
    assert sum(maintainer.summary().count.values()) == sum(
        1 for _ in tree.root.iter_preorder()
    )


def _assert_addresses_resolve(maintainer: StableMaintainer) -> None:
    """Every ``(label, ordinal)`` with ordinal in ``[-1, count]`` resolves
    to the node a whole-document pre-order scan finds (None at both
    ends), and ``ordinal_of`` inverts ``node_at``."""
    tree = maintainer.tree
    root = tree.root
    for label in "rabc":
        count = sum(1 for n in root.iter_preorder() if n.label == label)
        assert find_labeled(maintainer, label, -1) is None
        assert find_labeled(maintainer, label, count) is None
        for ordinal in range(-1, count + 1):
            assert find_labeled(maintainer, label, ordinal) is \
                preorder_labeled(root, label, ordinal)
        for ordinal in range(count):
            assert tree.ordinal_of(tree.node_at(label, ordinal)) == ordinal


def _assert_indexes_match_a_fresh_tree(tree: XMLTree) -> None:
    """Every index ``tree`` exposes equals the one a fresh ``XMLTree``
    builds over a copy of the current document; the label index is, node
    for node, a pre-order scan."""
    fresh = tree.copy()
    scan = list(tree.root.iter_preorder())
    pairs = list(zip(scan, fresh.root.iter_preorder()))
    assert len(pairs) == len(scan) == len(tree) == len(fresh)
    assert list(tree) == scan
    assert [tree.node(oid) for oid in range(len(scan))] == scan
    assert tree.labels == fresh.labels
    for label in tree.labels:
        assert tree.nodes_with_label(label) == [
            node for node in scan if node.label == label]
        assert tree.oids_with_label(label) == fresh.oids_with_label(label)
    assert tree.height == fresh.height
    for mine, theirs in pairs:
        assert mine.label == theirs.label
        assert tree.depth_below(mine) == fresh.depth_below(theirs)
        assert tree.level(mine) == fresh.level(theirs)
        assert tree.subtree_size(mine) == fresh.subtree_size(theirs)
    sample = random.Random(len(scan))
    for _ in range(25):
        (a, fresh_a), (d, fresh_d) = sample.choice(pairs), sample.choice(pairs)
        assert tree.is_ancestor(a, d) == fresh.is_ancestor(fresh_a, fresh_d)


@given(edit_scripts())
@settings(max_examples=30, deadline=None)
def test_label_index_matches_preorder_scan(script):
    """Labels "abc" under root "r", so same-label ancestors are common:
    the document's indexes must survive every edit, and the edits the
    maintainer rejects must leave the document and its indexes
    untouched."""
    seed, size, num_edits = script
    rng = random.Random(seed)
    root = XMLNode("r")
    nodes = [root]
    for _ in range(size):
        parent = rng.choice(nodes)
        nodes.append(parent.new_child(rng.choice("abc")))
    tree = XMLTree(root)
    maintainer = StableMaintainer(tree)
    _assert_addresses_resolve(maintainer)
    _assert_indexes_match_a_fresh_tree(tree)

    for _ in range(num_edits):
        current = list(tree.root.iter_preorder())
        roll = rng.random()
        if roll < 0.2:
            index = {label: tree.nodes_with_label(label)
                     for label in tree.labels}
            other = XMLTree.from_nested(("r", ["a", ("b", ["c"])]))
            other_nodes = list(other.root.iter_preorder())
            with pytest.raises(ValueError):
                if roll < 0.1:
                    maintainer.delete_subtree(tree.root)
                elif roll < 0.13:  # the root is tracked, not attached
                    maintainer.insert_subtree(rng.choice(current), tree.root)
                elif roll < 0.16:  # an attached node
                    maintainer.insert_subtree(rng.choice(current),
                                              rng.choice(current))
                else:  # a parent in another document
                    maintainer.insert_subtree(rng.choice(other_nodes),
                                              _spec(rng, 1))
            assert list(tree.root.iter_preorder()) == current
            assert {label: tree.nodes_with_label(label)
                    for label in tree.labels} == index
            assert list(other.root.iter_preorder()) == other_nodes
        elif roll < 0.65 or len(current) < 3:
            parent = rng.choice(current)
            maintainer.insert_subtree(parent, _spec(rng, rng.randint(0, 2)))
        else:
            maintainer.delete_subtree(rng.choice(current[1:]))
        _assert_addresses_resolve(maintainer)
        _assert_indexes_match_a_fresh_tree(tree)


def _spec(rng, depth):
    label = rng.choice("abc")
    if depth == 0:
        return label
    return (label, [_spec(rng, depth - 1) for _ in range(rng.randint(0, 2))])
