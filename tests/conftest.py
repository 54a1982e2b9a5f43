"""Shared fixtures and tree-building helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


def make_random_tree(rng: random.Random, size: int, labels: str = "abcdef") -> XMLTree:
    """Uniform random attachment tree with random labels (root label 'r')."""
    root = XMLNode("r")
    nodes = [root]
    for _ in range(size):
        parent = rng.choice(nodes)
        nodes.append(parent.new_child(rng.choice(labels)))
    return XMLTree(root)


def preorder_labeled(root: XMLNode, label: str, ordinal: int = 0):
    """Oracle for :func:`repro.core.live.find_labeled`: the ``ordinal``-th
    node labeled ``label``, found by a whole-document pre-order scan."""
    seen = 0
    for node in root.iter_preorder():
        if node.label == label:
            if seen == ordinal:
                return node
            seen += 1
    return None


@pytest.fixture
def paper_document() -> XMLTree:
    """The bibliography document of the paper's Figure 1.

    d0 with three authors; papers carry year/title/keywords, books a title.
    """
    paper1 = ("p", ["y", "t", "k"])       # e.g. p4: y13 t14 k15
    paper2 = ("p", ["y", "t", "k", "k"])  # p5: y16 t17 k18 k19
    book = ("b", ["t"])
    return XMLTree.from_nested(
        (
            "d",
            [
                ("a", [paper1, "n", paper2]),   # a1: p4 n6 p5
                ("a", ["n", book, paper1]),     # a2: n7 b9 p8
                ("a", ["n", book, paper1]),     # a3: n10 b12 p9
            ],
        )
    )


@pytest.fixture
def small_tree() -> XMLTree:
    """r -> a(b c c) a(b)."""
    return XMLTree.from_nested(
        ("r", [("a", [("b", []), "c", "c"]), ("a", [("b", [])])])
    )


@pytest.fixture
def figure3_t1() -> XMLTree:
    """Document T1 of the paper's Figure 3 (a1: b1 c, b4 c; a2: b1 c, b4 c).

    Numbers along edges in the figure are child multiplicities of c under
    each b.
    """
    return XMLTree.from_nested(
        (
            "r",
            [
                ("a", [("b", ["c"]), ("b", ["c"] * 4)]),
                ("a", [("b", ["c"]), ("b", ["c"] * 4)]),
            ],
        )
    )


@pytest.fixture
def figure3_t2() -> XMLTree:
    """Document T2 of Figure 3 (a1: b1 c, b1 c; a2: b4 c, b4 c)."""
    return XMLTree.from_nested(
        (
            "r",
            [
                ("a", [("b", ["c"]), ("b", ["c"])]),
                ("a", [("b", ["c"] * 4), ("b", ["c"] * 4)]),
            ],
        )
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
