"""Shared fixtures for the experiment suite: data sets, workloads, synopses.

Everything is cached per process so that benchmark modules touching the
same data set don't regenerate it; all randomness is seeded, so repeated
runs print identical numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.build import TreeSketchBuilder, compress_to_budgets
from repro.core.stable import StableSummary, build_stable
from repro.core.treesketch import TreeSketch
from repro.datagen.datasets import DATASETS, TX_DATASETS
from repro.workload.workload import Workload, make_workload
from repro.xmltree.tree import XMLTree
from repro.xsketch.build import XSketchBuildOptions, build_twig_xsketch
from repro.xsketch.synopsis import TwigXSketch


def workload_size(default: int = 120) -> int:
    return int(os.environ.get("REPRO_WORKLOAD_SIZE", default))


def esd_query_count(default: int = 40) -> int:
    return int(os.environ.get("REPRO_ESD_QUERIES", default))


def budgets_kb(default: str = "10,20,30,40,50") -> List[int]:
    raw = os.environ.get("REPRO_BUDGETS_KB", default)
    return [int(part) for part in raw.split(",") if part.strip()]


@dataclass
class Bundle:
    """One data set with its stable summary and workload."""

    name: str
    tree: XMLTree
    stable: StableSummary
    workload: Workload

    # Lazily built synopses, keyed by budget in bytes.
    _treesketches: Dict[int, TreeSketch] = field(default_factory=dict, repr=False)
    _xsketches: Dict[int, TwigXSketch] = field(default_factory=dict, repr=False)
    _ts_builder: Optional[TreeSketchBuilder] = field(default=None, repr=False)

    def treesketch(self, budget_bytes: int) -> TreeSketch:
        """TreeSketch at a budget (one shared compression pass)."""
        if budget_bytes not in self._treesketches:
            if self._ts_builder is None:
                self._ts_builder = TreeSketchBuilder(self.stable)
            if (
                self._treesketches
                and budget_bytes > min(self._treesketches)
            ):
                # Builder state is already below this budget; rebuild fresh.
                sketch = TreeSketchBuilder(self.stable).compress_to(budget_bytes)
            else:
                sketch = self._ts_builder.compress_to(budget_bytes)
            self._treesketches[budget_bytes] = sketch
        return self._treesketches[budget_bytes]

    def treesketch_sweep(self, budgets_bytes: List[int]) -> Dict[int, TreeSketch]:
        """All budgets in one decreasing pass (cheapest order)."""
        missing = [b for b in budgets_bytes if b not in self._treesketches]
        if missing:
            for budget, sketch in compress_to_budgets(self.stable, missing).items():
                self._treesketches[budget] = sketch
        return {b: self._treesketches[b] for b in budgets_bytes}

    def esd_query_ids(self, count: int, max_nt_size: int = 60_000) -> List[int]:
        """Indices of the first ``count`` queries with bounded answers.

        ESD evaluation materializes the true and approximate nesting
        trees; queries whose *exact* answer already exceeds
        ``max_nt_size`` elements are excluded up front, so every budget
        and technique is scored on the same query set (skipping failures
        per-budget would bias the averages).
        """
        cache = getattr(self, "_esd_ids", None)
        if cache is None:
            cache = {}
            self._esd_ids = cache
        key = (count, max_nt_size)
        if key not in cache:
            chosen: List[int] = []
            for i, query in enumerate(self.workload.queries):
                nt = self.workload.evaluator.evaluate(query)
                if nt.size() <= max_nt_size:
                    chosen.append(i)
                if len(chosen) >= count:
                    break
            cache[key] = chosen
        return cache[key]

    def training_workload(self, num_queries: int = 40) -> Workload:
        """A held-out workload for workload-driven construction.

        Sampled from the same distribution as the evaluation workload but
        with a different seed, so the twig-XSketch baseline is not scored
        on its own training queries.
        """
        if getattr(self, "_training", None) is None:
            self._training = make_workload(
                self.tree, num_queries=num_queries, seed=7717, stable=self.stable
            )
        return self._training

    def xsketch_sweep(
        self,
        budgets_bytes: List[int],
        options: Optional[XSketchBuildOptions] = None,
    ) -> Dict[int, TwigXSketch]:
        """Twig-XSketches for all budgets (one refinement pass)."""
        missing = [b for b in budgets_bytes if b not in self._xsketches]
        if missing:
            training = self.training_workload()
            built = build_twig_xsketch(
                self.stable,
                max(missing),
                training.queries,
                training.truths,
                options or XSketchBuildOptions(),
                snapshot_budgets=missing,
            )
            self._xsketches.update(built)
        return {b: self._xsketches[b] for b in budgets_bytes}


_BUNDLES: Dict[Tuple[str, int, int], Bundle] = {}

_ALL_GENERATORS = {**TX_DATASETS, **DATASETS}


def dataset_names(tx_only: bool = False, large_only: bool = False) -> List[str]:
    if tx_only:
        return list(TX_DATASETS)
    if large_only:
        return list(DATASETS)
    return list(_ALL_GENERATORS)


def load_bundle(name: str, num_queries: Optional[int] = None, seed: int = 0) -> Bundle:
    """Load (and cache) a data set with its workload and ground truth."""
    queries = num_queries if num_queries is not None else workload_size()
    key = (name, queries, seed)
    bundle = _BUNDLES.get(key)
    if bundle is None:
        generator = _ALL_GENERATORS[name]
        tree = generator()
        stable = build_stable(tree)
        workload = make_workload(tree, num_queries=queries, seed=seed, stable=stable)
        bundle = Bundle(name=name, tree=tree, stable=stable, workload=workload)
        _BUNDLES[key] = bundle
    return bundle
