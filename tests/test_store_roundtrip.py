"""Round-trip oracles for the binary ``.tsb`` store (repro.core.store).

The contract under test is *bitwise identity*: a synopsis loaded from a
``.tsb`` store must be indistinguishable from the same synopsis loaded
from JSON -- same dict contents in the same iteration orders, and
therefore the same floating-point accumulation order in estimates,
evaluations, and expansions.  Not approximately equal: ``==``.
"""

import copy
import pickle
import random

import pytest

from repro.core.build import TSBuildOptions, build_treesketch
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.expand import expand_result
from repro.core.io import (
    load_synopsis,
    save_synopsis,
    save_synopsis_binary,
    sniff_format,
    synopsis_to_dict,
)
from repro.core.stable import StableSummary, build_stable, expand_stable
from repro.core.store import MappedStableSummary, MappedTreeSketch
from repro.core.treesketch import TreeSketch
from repro.query.parser import parse_twig
from repro.values.summary import ValueSummary
from repro.xmltree.serialize import to_xml
from tests.conftest import make_random_tree

QUERIES = ["//a", "//a (//p)", "//a[//b] (//p (//k ?), //n ?)", "//d/a/p"]


def _save_both(synopsis, tmp_path):
    json_path = tmp_path / "syn.json"
    tsb_path = tmp_path / "syn.tsb"
    save_synopsis(synopsis, str(json_path))
    save_synopsis(synopsis, str(tsb_path))
    return str(json_path), str(tsb_path)


def _random_sketch(seed=7, size=500, budget=4000, kernel="auto"):
    tree = make_random_tree(random.Random(seed), size)
    return build_treesketch(build_stable(tree), budget,
                            TSBuildOptions(kernel=kernel))


class TestTablesBitwiseIdentical:
    """Every table dict matches the JSON loader in content AND order."""

    def assert_tables_match(self, a, b):
        assert list(a.label.items()) == list(b.label.items())
        assert list(a.count.items()) == list(b.count.items())
        assert list(a.out) == list(b.out)
        for nid in a.out:
            assert list(a.out[nid].items()) == list(b.out[nid].items())
        assert (a.root_id, a.doc_height) == (b.root_id, b.doc_height)

    def test_stable(self, paper_document, tmp_path):
        stable = build_stable(paper_document)
        json_path, tsb_path = _save_both(stable, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        assert isinstance(b, MappedStableSummary)
        self.assert_tables_match(a, b)
        assert list(a.depth.items()) == list(b.depth.items())
        b.validate()

    def test_treesketch(self, paper_document, tmp_path):
        sketch = build_treesketch(paper_document, 120)
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        assert isinstance(b, MappedTreeSketch)
        self.assert_tables_match(a, b)
        assert list(a.stats.items()) == list(b.stats.items())
        assert a.members == b.members and list(a.members) == list(b.members)
        b.validate()
        # The sketch TSBUILD returns already has the stores' table order,
        # so it answers exactly like its own saved copy.
        for built in (sketch, _random_sketch(kernel="dicts"),
                      _random_sketch(kernel="arrays")):
            json_path, _ = _save_both(built, tmp_path)
            loaded = load_synopsis(json_path)
            self.assert_tables_match(built, loaded)
            assert list(built.stats.items()) == list(loaded.stats.items())
            assert list(built.members) == list(loaded.members)

    def test_random_sketch(self, tmp_path):
        sketch = _random_sketch()
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        self.assert_tables_match(a, b)
        assert list(a.stats.items()) == list(b.stats.items())
        assert synopsis_to_dict(a) == synopsis_to_dict(b)

    def test_values_survive(self, paper_document, tmp_path):
        sketch = TreeSketch.from_stable(build_stable(paper_document))
        nid = sorted(sketch.label)[0]
        sketch.values = {nid: ValueSummary(
            top={"alpha": 3, "beta": 1}, rest_count=7, rest_distinct=4,
            null_count=2)}
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        assert list(a.values) == list(b.values)
        for k in a.values:
            assert a.values[k] == b.values[k]
            assert list(a.values[k].top.items()) == list(b.values[k].top.items())


class TestAnswersBitwiseIdentical:
    """The acceptance oracle: estimate/eval/expand agree exactly."""

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_estimates(self, paper_document, tmp_path, query_text):
        sketch = build_treesketch(paper_document, 120)
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        query = parse_twig(query_text)
        assert estimate_selectivity(eval_query(a, query)) \
            == estimate_selectivity(eval_query(b, query))

    def test_estimates_on_random_sketch(self, tmp_path):
        sketch = _random_sketch(seed=11)
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        for query_text in QUERIES:
            query = parse_twig(query_text)
            assert estimate_selectivity(eval_query(a, query)) \
                == estimate_selectivity(eval_query(b, query))

    def test_eval_result_sketches_identical(self, paper_document, tmp_path):
        sketch = TreeSketch.from_stable(build_stable(paper_document))
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        query = parse_twig("//a (//p (//k ?))")
        ra, rb = eval_query(a, query), eval_query(b, query)
        assert list(ra.label.items()) == list(rb.label.items())
        assert list(ra.bind.items()) == list(rb.bind.items())
        for key in ra.out:
            assert list(ra.out[key].items()) == list(rb.out[key].items())

    def test_expansions_identical(self, paper_document, tmp_path):
        sketch = TreeSketch.from_stable(build_stable(paper_document))
        json_path, tsb_path = _save_both(sketch, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        query = parse_twig("//a (//p)")
        na = expand_result(eval_query(a, query))
        nb = expand_result(eval_query(b, query))
        assert na.size() == nb.size()
        assert na.binding_tuple_count() == nb.binding_tuple_count()

        def shape(node):
            return (node.label, node.qvar,
                    [shape(child) for child in node.children])

        assert shape(na.root) == shape(nb.root)

    def test_expand_stable_identical(self, paper_document, tmp_path):
        stable = build_stable(paper_document)
        json_path, tsb_path = _save_both(stable, tmp_path)
        a, b = load_synopsis(json_path), load_synopsis(tsb_path)
        assert to_xml(expand_stable(a)) == to_xml(expand_stable(b))

    def test_query_cache_selectivities_identical(self, tmp_path):
        from repro.core.qcache import QueryCache

        sketch = _random_sketch(seed=3)
        json_path, tsb_path = _save_both(sketch, tmp_path)
        ca = QueryCache(load_synopsis(json_path))
        cb = QueryCache(load_synopsis(tsb_path))
        queries = [parse_twig(q) for q in QUERIES]
        assert ca.selectivity_batch(queries) == cb.selectivity_batch(queries)
        for query in queries:
            assert ca.selectivity(query) == cb.selectivity(query)


class TestLazyLoading:
    """Loading is O(header): no table dict exists until first use."""

    def test_load_does_not_materialize(self, paper_document, tmp_path):
        sketch = build_treesketch(paper_document, 120)
        _, tsb_path = _save_both(sketch, tmp_path)
        loaded = load_synopsis(tsb_path)
        assert not loaded.materialized
        # Header-only facts are available without touching the tables.
        assert loaded.num_nodes == sketch.num_nodes
        assert loaded.num_edges == sketch.num_edges
        assert loaded.size_bytes() == sketch.size_bytes()
        assert not loaded.materialized
        _ = loaded.label  # first table access
        assert loaded.materialized

    def test_checksum_exposed(self, paper_document, tmp_path):
        sketch = build_treesketch(paper_document, 120)
        tsb_path = str(tmp_path / "s.tsb")
        checksum = save_synopsis_binary(sketch, tsb_path)
        loaded = load_synopsis(tsb_path)
        assert loaded.tsb_checksum == checksum
        assert loaded.tsb_path == tsb_path

    def test_pickle_and_deepcopy(self, paper_document, tmp_path):
        sketch = build_treesketch(paper_document, 120)
        _, tsb_path = _save_both(sketch, tmp_path)
        query = parse_twig("//a (//p)")
        want = estimate_selectivity(eval_query(load_synopsis(tsb_path), query))
        clone = pickle.loads(pickle.dumps(load_synopsis(tsb_path)))
        assert estimate_selectivity(eval_query(clone, query)) == want
        clone = copy.deepcopy(load_synopsis(tsb_path))
        assert estimate_selectivity(eval_query(clone, query)) == want


class TestFormatSniffing:
    """Content decides the loader, not the file name."""

    def test_sniff_all_three(self, paper_document, tmp_path):
        stable = build_stable(paper_document)
        paths = {
            "json": tmp_path / "s.json",
            "json.gz": tmp_path / "s.json.gz",
            "tsb": tmp_path / "s.tsb",
        }
        for path in paths.values():
            save_synopsis(stable, str(path))
        for fmt, path in paths.items():
            assert sniff_format(str(path)) == fmt
            assert load_synopsis(str(path)).count == stable.count

    def test_misnamed_files_still_load(self, paper_document, tmp_path):
        stable = build_stable(paper_document)
        masquerade = tmp_path / "actually_binary.json"
        save_synopsis(stable, str(masquerade), format="tsb")
        assert sniff_format(str(masquerade)) == "tsb"
        loaded = load_synopsis(str(masquerade))
        assert isinstance(loaded, MappedStableSummary)
        json_named_tsb = tmp_path / "actually_json.tsb"
        save_synopsis(stable, str(json_named_tsb), format="json")
        assert sniff_format(str(json_named_tsb)) == "json"
        loaded = load_synopsis(str(json_named_tsb))
        assert isinstance(loaded, StableSummary)
        assert not isinstance(loaded, MappedStableSummary)

    def test_unknown_format_rejected(self, paper_document, tmp_path):
        with pytest.raises(ValueError):
            save_synopsis(build_stable(paper_document),
                          str(tmp_path / "s.json"), format="msgpack")
