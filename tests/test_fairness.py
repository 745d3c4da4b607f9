from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonshare import (
    Allocation,
    Composition,
    EpsilonOrderError,
    Fleet,
    SavingsParams,
    XiOutOfRange,
    ZeroShapleyPayoff,
    default_xi_grid,
    deviation_curve,
    deviation_minimizing_allocation,
    mean_relative_deviation,
    shapley_allocation,
    stable_allocation,
    xi_upper_bound,
)
from platoonshare.allocate import stable_tables


@pytest.fixture
def skewed_params():
    """Rates chosen so the ratio core condition fails on most mixed fleets."""
    return SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)


class TestMeanRelativeDeviation:
    def test_identity_is_zero(self, params, fleet23):
        phi = shapley_allocation(fleet23, params)
        assert mean_relative_deviation(phi, phi) == 0.0

    def test_hand_computed_value(self, params, fleet23, comp23):
        # recomputed term by term from the two payoff vectors
        xi = xi_upper_bound(comp23, params)
        x = stable_allocation(fleet23, params, xi)
        phi = shapley_allocation(fleet23, params)
        expected = sum(
            abs(p - q) / p for p, q in zip(phi.payoffs, x.payoffs)
        ) / 5
        assert expected == pytest.approx(0.05015503875968992, abs=1e-12)
        assert mean_relative_deviation(x, phi) == pytest.approx(expected, abs=1e-12)

    def test_below_one_at_xi_star(self, skewed_params):
        fleet = Fleet.from_composition(Composition(1, 14))
        alloc, _ = deviation_minimizing_allocation(fleet, skewed_params)
        phi = shapley_allocation(fleet, skewed_params)
        assert 0.0 < mean_relative_deviation(alloc, phi) < 1.0

    def test_zero_benchmark_guard(self, params, fleet23):
        x = shapley_allocation(fleet23, params)
        degenerate = Allocation((0.0, 20.0, 19.0, 19.0, 19.4), leader_id=0, scheme="test")
        with pytest.raises(ZeroShapleyPayoff):
            mean_relative_deviation(x, degenerate)

    def test_length_mismatch(self, params, fleet23):
        phi = shapley_allocation(fleet23, params)
        other = shapley_allocation(Fleet.from_composition(Composition(1, 2)), params)
        with pytest.raises(ValueError):
            mean_relative_deviation(other, phi)


class TestDeviationCurve:
    def test_zero_benchmark_guard(self):
        # 2 FPTs at the least subnormal rate: phi_f and v(N) round to 0
        params = SavingsParams(epsilon_f=5e-324, epsilon_e=1.0, distance=0.5)
        fleet = Fleet.from_composition(Composition(0, 2))
        with pytest.raises(ZeroShapleyPayoff):
            deviation_curve(fleet, params, [0.1, 0.2])

    def test_strictly_decreasing_on_feasible_interval(self, skewed_params):
        fleet = Fleet.from_composition(Composition(1, 14))
        grid = default_xi_grid(fleet, skewed_params)
        curve = deviation_curve(fleet, skewed_params, grid)
        deltas = [p.delta for p in curve]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert all(p.in_core for p in curve)

    def test_endpoint_matches_min_deviation_scheme(self, skewed_params):
        fleet = Fleet.from_composition(Composition(1, 14))
        alloc, xi_star = deviation_minimizing_allocation(fleet, skewed_params)
        phi = shapley_allocation(fleet, skewed_params)
        grid = default_xi_grid(fleet, skewed_params)
        curve = deviation_curve(fleet, skewed_params, grid)
        assert curve[-1].xi == pytest.approx(xi_star, abs=1e-12)
        assert curve[-1].delta == pytest.approx(
            mean_relative_deviation(alloc, phi), abs=1e-12
        )

    def test_grid_validation(self, skewed_params):
        fleet = Fleet.from_composition(Composition(1, 14))
        with pytest.raises(XiOutOfRange):
            deviation_curve(fleet, skewed_params, [0.0, 0.001])
        with pytest.raises(XiOutOfRange):
            deviation_curve(fleet, skewed_params, [0.5, 1.2])
        with pytest.raises(ValueError):
            deviation_curve(fleet, skewed_params, [0.003, 0.002])
        with pytest.raises(ValueError):
            deviation_curve(fleet, skewed_params, [])

    def test_tables_of_other_params_refused(self, params, fleet23):
        grid, other = [0.01, 0.1], replace(params, distance=301.0)
        with pytest.raises(ValueError, match="other params"):
            deviation_curve(fleet23, params, grid, stable_tables(other))
        # a factory of the same params serves the fleet as a fresh one does
        assert (deviation_curve(fleet23, params, grid, stable_tables(params))
                == deviation_curve(fleet23, params, grid))

    def test_points_beyond_bound_reported(self, params, fleet23, comp23):
        bound = xi_upper_bound(comp23, params)
        grid = [bound / 2, bound, min(1.0, bound * 2)]
        curve = deviation_curve(fleet23, params, grid)
        assert len(curve) == 3
        assert curve[0].in_core and curve[1].in_core

    def test_nonnegative_and_zero_only_at_match(self, params):
        # on a single-ET fleet the type-fair payoff equals the leader-share
        # allocation at xi = 1/n, so delta hits zero exactly there
        comp = Composition(1, 4)
        fleet = Fleet.from_composition(comp)
        curve = deviation_curve(fleet, params, [0.1, 0.2, 0.3])
        assert all(p.delta >= 0.0 for p in curve)
        assert curve[1].delta == pytest.approx(0.0, abs=1e-12)
        assert curve[0].delta > 0.0


class TestDefaultXiGrid:
    def test_ends_at_the_bound(self, skewed_params):
        fleet = Fleet.from_composition(Composition(1, 14))
        grid = default_xi_grid(fleet, skewed_params)
        assert len(grid) == 60
        assert grid[0] == pytest.approx(0.002, abs=1e-12)
        assert grid[-1] == pytest.approx(
            xi_upper_bound(Composition(1, 14), skewed_params), abs=1e-12
        )
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_tiny_bound_still_increasing(self):
        params = SavingsParams(epsilon_f=7.2, epsilon_e=0.048, distance=300.0)
        fleet = Fleet.from_composition(Composition(1, 14))
        grid = default_xi_grid(fleet, params)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(0.0 < xi <= 1.0 for xi in grid)

    def test_mixed_fleet_needs_ordered_rates(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        fleet = Fleet.from_composition(Composition(2, 3))
        with pytest.raises(EpsilonOrderError):
            default_xi_grid(fleet, params)

    def test_homogeneous_fleet_ignores_rate_order(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        grid = default_xi_grid(Fleet.from_composition(Composition(0, 5)), params)
        assert grid[-1] == pytest.approx(0.25, abs=1e-12)


class TestScaleFree:
    def test_deviation_on_a_tiny_trip(self, fleet23, comp23):
        tiny = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=1e-12)
        phi = shapley_allocation(fleet23, tiny)
        x = stable_allocation(fleet23, tiny, xi_upper_bound(comp23, tiny))
        assert mean_relative_deviation(x, phi) == pytest.approx(
            0.05015503875968992, abs=1e-9
        )

    @given(
        n_e=st.integers(1, 7),
        n_f=st.integers(1, 7),
        eps_f=st.floats(0.01, 1.0),
        ratio=st.floats(0.05, 0.95),
        distance=st.floats(1e-3, 1e3),
        # both rates scale by 10^k for k in [-9, 3], or the distance for k in [-6, 9]
        scaling=st.one_of(st.tuples(st.just("rates"), st.integers(-9, 3)),
                          st.tuples(st.just("distance"), st.integers(-6, 9))),
    )
    @example(n_e=2, n_f=3, eps_f=0.07, ratio=0.048 / 0.07, distance=1e-3,
             scaling=("rates", -9))
    @settings(max_examples=80, deadline=None)
    def test_scaling_keeps_the_curve(self, n_e, n_f, eps_f, ratio, distance, scaling):
        what, k = scaling
        factor = 10.0 ** k
        fleet = Fleet.from_composition(Composition(n_e, n_f))
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f, distance=distance)
        if what == "rates":
            scaled = replace(params, epsilon_f=params.epsilon_f * factor,
                             epsilon_e=params.epsilon_e * factor)
        else:
            scaled = replace(params, distance=distance * factor)
        grid = [i / 20 for i in range(1, 21)]
        base = deviation_curve(fleet, params, grid)
        moved = deviation_curve(fleet, scaled, grid)
        assert [p.delta for p in moved] == pytest.approx([p.delta for p in base],
                                                         rel=1e-9, abs=1e-9)
        assert [p.in_core for p in moved] == [p.in_core for p in base]
