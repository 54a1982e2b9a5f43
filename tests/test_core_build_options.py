"""Tests for TSBUILD option knobs (drain fraction, early stop, windows)."""

import random

import pytest

from repro.core.build import TreeSketchBuilder, TSBuildOptions, build_treesketch
from repro.core.stable import build_stable
from repro.datagen.datasets import xmark_like
from tests.conftest import make_random_tree


@pytest.fixture(scope="module")
def stable():
    return build_stable(xmark_like(scale=0.8, seed=3))


class TestOptionKnobs:
    def test_early_stop_still_meets_budget(self, stable):
        budget = stable.size_bytes() // 3
        sketch = build_treesketch(
            stable, budget, TSBuildOptions(stop_when_full=True)
        )
        assert sketch.size_bytes() <= budget

    def test_scan_all_not_worse_than_early_stop(self, stable):
        budget = stable.size_bytes() // 4
        scan = build_treesketch(stable, budget, TSBuildOptions())
        stop = build_treesketch(stable, budget, TSBuildOptions(stop_when_full=True))
        assert scan.squared_error() <= stop.squared_error() * 1.1

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9])
    def test_drain_fraction_meets_budget(self, stable, fraction):
        budget = stable.size_bytes() // 3
        sketch = build_treesketch(
            stable, budget, TSBuildOptions(drain_fraction=fraction)
        )
        assert sketch.size_bytes() <= budget
        sketch.validate()

    def test_small_window_meets_budget(self, stable):
        budget = stable.size_bytes() // 3
        sketch = build_treesketch(stable, budget, TSBuildOptions(pair_window=4))
        assert sketch.size_bytes() <= budget

    def test_builder_reports_progress(self, stable):
        builder = TreeSketchBuilder(stable)
        before = builder.size_bytes()
        builder.compress_to(stable.size_bytes() // 2)
        assert builder.size_bytes() < before
        assert builder.merges_applied > 0
        assert builder.squared_error() >= 0.0

    def test_monotone_reuse_after_budget_increase(self, stable, rng):
        # Asking a *larger* budget on a builder already below it returns
        # the current (smaller) state via a fresh sweep in the bundle; the
        # raw builder simply keeps its state.
        builder = TreeSketchBuilder(stable)
        small = builder.compress_to(stable.size_bytes() // 4)
        again = builder.compress_to(stable.size_bytes() // 2)
        assert again.size_bytes() == small.size_bytes()


class TestKernelAutoSelection:
    """``kernel="auto"`` picks the backend by edge density: dict-backed
    for merged-dims-dominated (dense) shapes, flat arrays otherwise --
    pinned through the per-build ``tsbuild.kernel_*`` counters."""

    def _flat_counters(self, stable_summary, kernel="auto"):
        from repro import obs

        with obs.observed() as registry:
            build_treesketch(
                stable_summary, stable_summary.size_bytes() // 2,
                TSBuildOptions(kernel=kernel))
        return obs.report.flatten_snapshot(registry.snapshot())

    def test_dense_shape_selects_dicts(self):
        from repro.core.build import AUTO_DICTS_DENSITY
        from repro.datagen.datasets import imdb_like

        dense = build_stable(imdb_like(scale=0.5, seed=1))
        density = dense.num_edges / max(1, len(dense.count))
        assert density >= AUTO_DICTS_DENSITY  # the premise of this case
        flat = self._flat_counters(dense)
        assert flat["counters.tsbuild.kernel_dicts"] == 1
        assert "counters.tsbuild.kernel_arrays" not in flat

    def test_sparse_shape_selects_kernel(self, stable):
        from repro.core.build import AUTO_DICTS_DENSITY

        density = stable.num_edges / max(1, len(stable.count))
        assert density < AUTO_DICTS_DENSITY
        flat = self._flat_counters(stable)
        assert flat["counters.tsbuild.kernel_arrays"] == 1
        assert "counters.tsbuild.kernel_dicts" not in flat

    def test_explicit_kernels_still_honoured(self, stable):
        flat = self._flat_counters(stable, kernel="dicts")
        assert flat["counters.tsbuild.kernel_dicts"] == 1
        flat = self._flat_counters(stable, kernel="arrays")
        assert flat["counters.tsbuild.kernel_arrays"] == 1

    def test_auto_output_matches_its_chosen_backend(self, stable):
        budget = stable.size_bytes() // 3
        auto = build_treesketch(stable, budget, TSBuildOptions(kernel="auto"))
        explicit = build_treesketch(
            stable, budget, TSBuildOptions(kernel="arrays"))
        assert auto.size_bytes() == explicit.size_bytes()
        assert auto.squared_error() == explicit.squared_error()


class TestOptionValidation:
    """Values that used to crash a build (``heap_upper=0``: IndexError in
    CREATEPOOL) or silently stop it (``drain_fraction=1.0``: no merge,
    budget missed) fail where they are written."""

    @pytest.mark.parametrize("field,value", [
        ("heap_upper", 0), ("heap_upper", -5), ("heap_lower", -1),
        ("drain_fraction", 1.0), ("drain_fraction", 1.5),
        ("drain_fraction", -0.5), ("drain_fraction", float("nan")),
        ("pair_window", 0), ("pair_window", -3), ("kernel", "simd"),
    ])
    def test_bad_value_raises_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TSBuildOptions(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("heap_upper", 1), ("heap_lower", 0), ("drain_fraction", 0.0),
        ("pair_window", 1), ("pair_window", None),
    ])
    def test_boundary_value_builds_within_budget(self, field, value):
        stable = build_stable(make_random_tree(random.Random(1), 200))
        assert stable.size_bytes() > 512  # the build has to merge
        builder = TreeSketchBuilder(stable, TSBuildOptions(**{field: value}))
        sketch = builder.compress_to(512)
        assert builder.reached_budget
        assert sketch.size_bytes() <= 512
