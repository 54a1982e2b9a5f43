"""Unit tests for the numpy-backed analysis helpers."""

import math

import pytest

pytest.importorskip("numpy")

from repro.experiments.analysis import (  # noqa: E402
    geometric_mean_ratio,
    loglog_slope,
    pearson,
    percentile_profile,
)


class TestPercentiles:
    def test_profile(self):
        errors = list(range(101))
        p50, p90, p99 = percentile_profile(errors)
        assert p50 == pytest.approx(50)
        assert p90 == pytest.approx(90)
        assert p99 == pytest.approx(99)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_profile([])


class TestLogLogSlope:
    def test_inverse_law(self):
        budgets = [10, 20, 40, 80]
        errors = [8.0, 4.0, 2.0, 1.0]  # error ~ 1/budget
        assert loglog_slope(budgets, errors) == pytest.approx(-1.0)

    def test_flat_curve(self):
        assert loglog_slope([10, 20, 40], [5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_zero_errors_clamped(self):
        slope = loglog_slope([10, 20, 40], [4.0, 1.0, 0.0])
        assert slope < 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            loglog_slope([10], [1.0])


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_nan(self):
        assert math.isnan(pearson([1, 2, 3], [5, 5, 5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


class TestGeometricMeanRatio:
    def test_uniform_factor(self):
        assert geometric_mean_ratio([4, 8], [2, 4]) == pytest.approx(2.0)

    def test_mixed_factors(self):
        assert geometric_mean_ratio([2, 8], [1, 1]) == pytest.approx(4.0)

    def test_zeros_skipped(self):
        assert geometric_mean_ratio([0, 8], [1, 4]) == pytest.approx(2.0)

    def test_all_invalid_nan(self):
        assert math.isnan(geometric_mean_ratio([0.0], [1.0]))
