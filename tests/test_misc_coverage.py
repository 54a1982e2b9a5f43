"""Assorted coverage: mutation + reindex, extents, ESD sub-tree API,
the numpy-free import."""

import pytest

from repro.core.stable import build_stable
from repro.metrics.esd import ESDCalculator
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree


class TestReindex:
    def test_mutation_then_reindex(self, small_tree):
        extra = small_tree.root.children[0].new_child("new")
        small_tree.reindex()
        assert extra.oid >= 0
        assert small_tree.node(extra.oid) is extra
        assert "new" in small_tree.labels

    def test_indexes_consistent_after_reindex(self, small_tree):
        small_tree.root.new_child("zz")
        small_tree.reindex()
        for node in small_tree:
            assert small_tree.node(node.oid) is node
            assert node.oid in small_tree.oids_with_label(node.label)

    def test_subtree_sizes_after_mutation(self, small_tree):
        target = small_tree.root.children[0]
        target.new_child("x")
        small_tree.reindex()
        assert small_tree.subtree_size(target) == target.subtree_size()


class TestStableExtents:
    def test_extents_partition_oids(self, paper_document):
        stable = build_stable(paper_document, keep_extents=True)
        seen = set()
        for nid, oids in stable.extent.items():
            for oid in oids:
                assert oid not in seen
                seen.add(oid)
                assert paper_document.node(oid).label == stable.label[nid]
        assert len(seen) == len(paper_document)

    def test_extent_sizes_match_counts(self, paper_document):
        stable = build_stable(paper_document, keep_extents=True)
        for nid, oids in stable.extent.items():
            assert len(oids) == stable.count[nid]


class TestESDSubtreeAPI:
    def test_distance_roots(self):
        t1 = XMLTree.from_nested(("r", [("a", ["x", "x"]), ("a", ["x"])]))
        calc = ESDCalculator()
        first, second = t1.root.children
        d = calc.distance_roots(first, second)
        assert d > 0
        assert calc.distance_roots(first, first) == 0.0

    def test_distance_roots_consistent_with_trees(self):
        spec = ("a", ["x", ("y", ["z"])])
        t1 = XMLTree.from_nested(spec)
        t2 = XMLTree.from_nested(("a", ["x"]))
        calc = ESDCalculator()
        via_roots = calc.distance_roots(t1.root, t2.root)
        from repro.metrics.esd import esd

        assert via_roots == pytest.approx(esd(t1, t2))

    def test_memo_shared_across_comparisons(self):
        calc = ESDCalculator()
        t1 = XMLTree.from_nested(("r", [("a", ["x"])]))
        t2 = XMLTree.from_nested(("r", [("a", ["x", "x"])]))
        d1 = calc.distance(t1, t2)
        d2 = calc.distance(t1, t2)
        assert d1 == d2


class TestNumpyFreeCore:
    def test_library_cli_and_daemon_import_no_numpy(self):
        """numpy is the optional ``analysis`` extra, used by
        ``repro.experiments.analysis`` alone; nothing else may pull it in."""
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = ("import sys, repro, repro.cli, repro.serve.server; "
                "print('numpy' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
