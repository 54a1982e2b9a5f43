"""Perf smoke test: pins hot-path work counters against budgeted ceilings.

Run with ``pytest -m perf``.  The exact wall-clock of a build varies by
machine, but the *amount of work* TSBUILD, the eval cache and a live
``update`` do on a fixed dataset is deterministic -- so we pin the
observability counters (and, for updates, the nodes traversed) instead
of seconds.  If a future change pushes a counter past its ceiling (or a
cache stops hitting), the perf win of docs/PERFORMANCE.md has regressed
and this test fails before any benchmark needs to run.

Ceilings are the values measured at the time of the perf overhaul plus
~25% headroom (see BENCH_build.json for the measured baseline).
"""

import random
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from repro import obs
from repro.core.build import build_treesketch
from repro.core.live import SketchMaintainer
from repro.core.qcache import QueryCache
from repro.core.stable import build_stable
from repro.datagen.datasets import TX_DATASETS, sprot_like
from repro.serve.client import ServeClient
from repro.serve.registry import SketchRegistry
from repro.serve.server import ServeConfig, start_server_thread
from repro.workload.mutations import (
    MutationOp,
    apply_mutation,
    make_mutation_workload,
)
from repro.workload.runner import run_selectivity
from repro.workload.workload import make_workload
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree
from tests.conftest import make_random_tree

pytestmark = pytest.mark.perf

BUDGET_BYTES = 8 * 1024
NUM_QUERIES = 20

# Measured on IMDB-TX at 8 KB: heap_pops 24482, stale 18932,
# memo_misses 50186, memo_hits 12880, merges 1450, 17 unique queries.
CEILINGS = {
    "counters.tsbuild.heap_pops": 30_000,
    "counters.tsbuild.stale_recomputations": 24_000,
    "counters.tsbuild.memo_misses": 62_000,
    "counters.tsbuild.merges_applied": 1_800,
    "counters.tsbuild.pool_regenerations": 4,
}
FLOORS = {
    # Memoization must actually absorb rescoring work.
    "counters.tsbuild.memo_hits": 9_000,
}


@pytest.fixture(scope="module")
def measured():
    tree = TX_DATASETS["IMDB-TX"]()
    stable = build_stable(tree)
    with obs.observed() as registry:
        sketch = build_treesketch(stable, BUDGET_BYTES)
        workload = make_workload(tree, num_queries=NUM_QUERIES, seed=3,
                                 stable=stable)
        cache = QueryCache(sketch, maxsize=64)
        run_selectivity(sketch, workload, cache=cache)
        run_selectivity(sketch, workload, cache=cache)
    return obs.report.flatten_snapshot(registry.snapshot())


@pytest.mark.parametrize("counter", sorted(CEILINGS))
def test_build_counter_ceiling(measured, counter):
    assert measured[counter] <= CEILINGS[counter], (
        f"{counter} = {measured[counter]} exceeds its perf budget "
        f"{CEILINGS[counter]}; the TSBUILD fast path has regressed"
    )


@pytest.mark.parametrize("counter", sorted(FLOORS))
def test_build_counter_floor(measured, counter):
    assert measured[counter] >= FLOORS[counter], (
        f"{counter} = {measured[counter]} is below {FLOORS[counter]}; "
        f"memoization is no longer absorbing rescores"
    )


def test_eval_cache_counters(measured):
    misses = measured["counters.eval.cache.misses"]
    hits = measured["counters.eval.cache.hits"]
    # One miss per distinct canonical query, at most one per issued query.
    assert misses <= NUM_QUERIES
    # The second workload pass must be served entirely from the cache.
    assert hits >= NUM_QUERIES
    assert measured["counters.eval.queries"] == misses


# --------------------------------------------------------------------------
# Live updates: addressing costs O(edit), not a whole-document scan.
# --------------------------------------------------------------------------


@pytest.fixture
def live_entry():
    """A live registry entry over a 21,805-element SProt-shaped document;
    a lossless budget keeps set-up free of merges."""
    tree = sprot_like(scale=2.0, seed=13)
    assert len(tree) >= 20_000
    registry = SketchRegistry()
    registry.register_live("live", SketchMaintainer(tree, 64 * 1024 * 1024))
    return registry.get("live")


def _counting(traverse, yielded):
    def wrapper(node):
        for visited in traverse(node):
            yielded[0] += 1
            yield visited
    return wrapper


@pytest.mark.parametrize("action", ["insert_subtree", "delete_subtree"])
def test_live_update_visits_only_the_edited_subtree(live_entry, monkeypatch,
                                                    action):
    """One ``update`` addressing the last node of the document's most
    common label yields, across every pre- and post-order traversal, a
    small multiple of the edited subtree's nodes.  Resolving the address
    by a scan would yield about the whole document."""
    root = live_entry.maintainer.tree.root
    label, count = Counter(
        node.label for node in root.iter_preorder()).most_common(1)[0]
    if action == "insert_subtree":
        fields = dict(parent_label=label, parent_ordinal=count - 1,
                      subtree=["extra", ["leaf", ["mid", ["leaf"]]]])
        edited = 4
    else:
        fields = dict(label=label, ordinal=count - 1)
        edited = [node for node in root.iter_preorder()
                  if node.label == label][-1].subtree_size()
    yielded = [0]
    for name in ("iter_preorder", "iter_postorder"):
        monkeypatch.setattr(XMLNode, name,
                            _counting(getattr(XMLNode, name), yielded))
    live_entry.update(MutationOp(action, **fields))
    assert 0 < yielded[0] <= 4 * edited, (yielded[0], edited)


# --------------------------------------------------------------------------
# Live re-merges: TSBUILD's own drain, counted in the tsbuild.* counters.
# --------------------------------------------------------------------------

# Measured on sprot_like scale 0.7, seed 13 (7,692 elements) at 4 KB, 60
# ops from seed 1: 10 local re-merges, 854 heap pops, 588 stale
# recomputations, 88 merges.
REMERGE_CEILINGS = {
    "tsbuild.heap_pops": 1_070,
    "tsbuild.stale_recomputations": 735,
}


def test_live_remerges_run_the_tsbuild_drain():
    """Every merge a local re-merge applies goes through
    ``TreeSketchBuilder._drain_heap``, so the ``tsbuild.*`` counters see
    the re-merges' work.  Deltas are taken after construction, whose
    initial ``compress_to`` counts there too; the maintainer is built
    inside ``observed()`` because it binds its ``live.*`` instruments at
    construction."""
    tree = sprot_like(scale=0.7, seed=13)
    ops = make_mutation_workload(tree, num_ops=60, seed=1)
    names = ["tsbuild.merges_applied", *sorted(REMERGE_CEILINGS)]
    with obs.observed() as registry:
        maintainer = SketchMaintainer(tree, 4 * 1024)
        before = {name: registry.counter(name).value for name in names}
        for op in ops:
            apply_mutation(maintainer, op)
        delta = {name: registry.counter(name).value - before[name]
                 for name in names}
        remerge_merges = registry.counter("live.remerge_merges").value
    assert maintainer.remerges > 0 and remerge_merges > 0
    assert delta["tsbuild.merges_applied"] == remerge_merges
    for name, ceiling in REMERGE_CEILINGS.items():
        assert delta[name] <= ceiling, (
            f"{name} = {delta[name]} over {maintainer.remerges} local "
            f"re-merges exceeds its perf budget {ceiling}")


# --------------------------------------------------------------------------
# Expand replies: written from the nesting tree, no intermediate trees.
# --------------------------------------------------------------------------


def test_expand_reply_builds_no_intermediate_tree(monkeypatch):
    """One ``expand`` of over 1,000 elements through a daemon makes no
    XMLNode, runs no XMLTree index build and no ElementTree SubElement:
    the reply is written straight from the nesting tree.  Copying the
    answer into an XMLTree and then into ElementTree costs one XMLNode
    and one SubElement per element and one reindex."""
    registry = SketchRegistry()
    tree = make_random_tree(random.Random(5), 3_000, labels="abc")
    registry.register("doc", build_stable(tree))
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    handle = start_server_thread(registry, ServeConfig(port=0))
    try:
        with ServeClient("127.0.0.1", handle.port) as client:
            monkeypatch.setattr(XMLTree, "reindex",
                                counting("reindex", XMLTree.reindex))
            monkeypatch.setattr(ET, "SubElement",
                                counting("SubElement", ET.SubElement))
            monkeypatch.setattr(XMLNode, "__init__",
                                counting("XMLNode", XMLNode.__init__))
            reply = client.expand("//a (//b ?)", sketch="doc")
            monkeypatch.undo()
    finally:
        handle.stop()
    assert reply["elements"] >= 1_000
    assert ET.fromstring(reply["xml"]).tag == "r"
    assert calls == Counter(), dict(calls)
