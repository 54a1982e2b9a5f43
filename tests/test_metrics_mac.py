"""Unit tests for the MAC-style set distance."""

import sys

import pytest

from repro.metrics.mac import FrequencyPenalty, mac_distance


def flat(a, b):
    """Ground distance: |a - b| on integer 'values'."""
    return abs(a - b)


def unit(_v):
    return 1.0


class TestIdentity:
    def test_identical_multisets(self):
        u = [(1, 3), (2, 2)]
        assert mac_distance(u, u, flat, unit) == 0.0

    def test_empty_vs_empty(self):
        assert mac_distance([], [], flat, unit) == 0.0

    def test_symmetry(self):
        u, v = [(1, 4)], [(1, 1), (3, 2)]
        d1 = mac_distance(u, v, flat, unit)
        d2 = mac_distance(v, u, flat, unit)
        assert d1 == d2


class TestMatching:
    def test_equal_values_match_free(self):
        assert mac_distance([(5, 2)], [(5, 2)], flat, unit) == 0.0

    def test_close_values_match_at_distance(self):
        # 1 unit of flow at distance 1; no residuals.
        assert mac_distance([(1, 1)], [(2, 1)], flat, unit) == 1.0

    def test_greedy_prefers_cheap_pairs(self):
        # (1 vs 1) matches free; (10 vs 12) at distance 2.
        d = mac_distance([(1, 1), (10, 1)], [(1, 1), (12, 1)], flat, unit)
        assert d == 2.0

    def test_flow_respects_multiplicities(self):
        # 3 copies of 1 vs 1 copy of 1: 1 matched, 2 residual (tri: 3).
        d = mac_distance([(1, 3)], [(1, 1)], flat, unit)
        assert d == FrequencyPenalty.TRIANGULAR(2)


class TestResidualPenalties:
    def test_empty_other_side_charges_magnitude(self):
        d = mac_distance([(1, 1)], [], flat, lambda v: 7.0)
        assert d == 7.0  # triangular(1) == 1

    def test_linear_penalty(self):
        d = mac_distance([(1, 4)], [], flat, unit, FrequencyPenalty.LINEAR)
        assert d == 4.0

    def test_triangular_penalty(self):
        d = mac_distance([(1, 4)], [], flat, unit, FrequencyPenalty.TRIANGULAR)
        assert d == 10.0

    def test_quadratic_penalty(self):
        d = mac_distance([(1, 4)], [], flat, unit, FrequencyPenalty.QUADRATIC)
        assert d == 16.0

    def test_superlinear_prefers_spread_out_differences(self):
        """The Fig. 10 discrimination: residuals (3, 0) must cost more than
        residuals (2, 1) under a superlinear penalty."""
        concentrated = mac_distance([("x", 4)], [("x", 1)], flat_eq, unit)
        spread = (
            mac_distance([("x", 3)], [("x", 1)], flat_eq, unit)
            + mac_distance([("y", 2)], [("y", 1)], flat_eq, unit)
        )
        assert spread < concentrated

    def test_magnitude_scales_residuals(self):
        d = mac_distance([("x", 2)], [], flat_eq, lambda v: 5.0)
        assert d == 5.0 * FrequencyPenalty.TRIANGULAR(2)


def flat_eq(a, b):
    return 0.0 if a == b else 1.0


class TestMixedScenarios:
    def test_partial_overlap(self):
        # Values {1:2, 2:1} vs {1:1, 3:1}: 1 matches 1; 2 matches 3 (d=1);
        # residual one copy of 1 (tri(1)=1).
        d = mac_distance([(1, 2), (2, 1)], [(1, 1), (3, 1)], flat, unit)
        assert d == 2.0

    def test_zero_distance_cross_values(self):
        # Different value ids at distance 0 still match free.
        d = mac_distance([("a", 2)], [("b", 2)], lambda x, y: 0.0, unit)
        assert d == 0.0


class TestExactMode:
    def test_exact_equals_greedy_on_simple_sets(self):
        pytest.importorskip("scipy.optimize")
        u, v = [(1, 2), (5, 1)], [(2, 1), (5, 2)]
        greedy = mac_distance(u, v, flat, unit)
        exact = mac_distance(u, v, flat, unit, exact=True)
        assert exact <= greedy + 1e-9

    def test_exact_beats_greedy_on_adversarial_case(self):
        pytest.importorskip("scipy.optimize")
        # Classic greedy failure: L={0,3}, R={2,5}.  Greedy takes the
        # cheapest pair (3,2)=1 first and is forced into (0,5)=5, total 6;
        # the optimal matching (0,2)+(3,5) costs 4.
        u, v = [(0, 1), (3, 1)], [(2, 1), (5, 1)]
        greedy = mac_distance(u, v, flat, unit)
        exact = mac_distance(u, v, flat, unit, exact=True)
        assert exact == 4.0
        assert greedy == 6.0

    def test_exact_without_scipy_raises(self, monkeypatch):
        # Never a silent greedy answer (6.0 on this input) under the
        # exact flag: a missing scipy must be loud.
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        u, v = [(0, 1), (3, 1)], [(2, 1), (5, 1)]
        with pytest.raises(ImportError):
            mac_distance(u, v, flat, unit, exact=True)

    def test_exact_falls_back_when_too_large(self):
        # Disjoint values, so the same-value pass matches nothing and all
        # 60 units per side reach the matcher: > exact_limit, greedy.
        u = [(2 * i, 3) for i in range(20)]
        v = [(2 * i + 1, 3) for i in range(20)]
        assert mac_distance(u, v, flat, unit, exact=True) == mac_distance(
            u, v, flat, unit
        )

    def test_exact_identity_zero(self):
        u = [(1, 3), (2, 2)]
        assert mac_distance(u, u, flat, unit, exact=True) == 0.0

    def test_exact_residuals_penalized(self):
        d = mac_distance([(1, 4)], [(1, 1)], flat, unit, exact=True)
        assert d == FrequencyPenalty.TRIANGULAR(3)
