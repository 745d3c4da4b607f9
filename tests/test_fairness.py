
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonshare import (
    Allocation,
    Composition,
    EpsilonOrderError,
    Fleet,
    FleetTooSmall,
    InvalidInput,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["x", "phi"])
    def test_non_finite_payoffs_rejected(self, side, bad):
        # a nan or infinite payoff on either side would make delta nan or inf
        finite, odd = Allocation((1.0, 2.0), 0, "x"), Allocation((bad, 1.0), 0, "y")
        x, phi = (odd, finite) if side == "x" else (finite, odd)
        with pytest.raises(InvalidInput, match="^allocations hold a payoff that is not finite$"):
            mean_relative_deviation(x, phi)

    def test_empty_allocations_rejected(self):
        empty = Allocation((), 0, "x")
        with pytest.raises(FleetTooSmall, match="^need at least one truck$"):
            mean_relative_deviation(empty, empty._replace(scheme="y"))


class TestDeviationCurve:
    def test_zero_benchmark_guard(self):
        # 2 FPTs at the least subnormal rate: phi_f and v(N) round to 0
        params = SavingsParams(epsilon_f=5e-324, epsilon_e=1.0, distance=0.5)
        table = stable_tables(params)(Composition(0, 2))
        with pytest.raises(ZeroShapleyPayoff):
            deviation_curve(table, [0.1, 0.2])

    def test_strictly_decreasing_on_feasible_interval(self, skewed_params):
        comp = Composition(1, 14)
        grid = default_xi_grid(comp, skewed_params)
        curve = deviation_curve(stable_tables(skewed_params)(comp), grid)
        deltas = [p.delta for p in curve]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert all(p.in_core for p in curve)

    def test_endpoint_matches_min_deviation_scheme(self, skewed_params):
        comp = Composition(1, 14)
        fleet = Fleet.from_composition(comp)
        alloc, xi_star = deviation_minimizing_allocation(fleet, skewed_params)
        phi = shapley_allocation(fleet, skewed_params)
        grid = default_xi_grid(comp, skewed_params)
        curve = deviation_curve(stable_tables(skewed_params)(comp), grid)
        assert curve[-1].xi == xi_star
        assert curve[-1].delta == pytest.approx(
            mean_relative_deviation(alloc, phi), abs=1e-12
        )

    def test_grid_validation(self, skewed_params):
        table = stable_tables(skewed_params)(Composition(1, 14))
        with pytest.raises(XiOutOfRange):
            deviation_curve(table, [0.0, 0.001])
        with pytest.raises(XiOutOfRange):
            deviation_curve(table, [0.5, 1.2])
        with pytest.raises(ValueError):
            deviation_curve(table, [0.003, 0.002])
        with pytest.raises(ValueError):
            deviation_curve(table, [])

    def test_curve_takes_its_tables_params(self, params, fleet23, comp23):
        # the table's params, here another distance, value both x(xi) and phi
        other = params._replace(distance=301.0)
        grid = [0.01, 0.1, xi_upper_bound(comp23, other), 0.5]
        curve = deviation_curve(stable_tables(other)(comp23), grid)
        phi = shapley_allocation(fleet23, other)
        assert [p.delta for p in curve] == [
            mean_relative_deviation(stable_allocation(fleet23, other, xi), phi)
            for xi in grid]

    def test_points_beyond_bound_reported(self, params, fleet23, comp23):
        bound = xi_upper_bound(comp23, params)
        grid = [bound / 2, bound, min(1.0, bound * 2)]
        curve = deviation_curve(stable_tables(params)(comp23), grid)
        assert len(curve) == 3
        assert curve[0].in_core and curve[1].in_core

    def test_nonnegative_and_zero_only_at_match(self, params):
        # on a single-ET fleet the type-fair payoff equals the leader-share
        # allocation at xi = 1/n, so delta hits zero exactly there
        comp = Composition(1, 4)
        curve = deviation_curve(stable_tables(params)(comp), [0.1, 0.2, 0.3])
        assert all(p.delta >= 0.0 for p in curve)
        assert curve[1].delta == pytest.approx(0.0, abs=1e-12)
        assert curve[0].delta > 0.0


class TestDefaultXiGrid:
    def test_ends_at_the_bound(self, skewed_params):
        grid = default_xi_grid(Composition(1, 14), skewed_params)
        assert len(grid) == 60
        assert grid[0] == pytest.approx(0.002, abs=1e-12)
        assert grid[-1] == pytest.approx(
            xi_upper_bound(Composition(1, 14), skewed_params), abs=1e-12
        )
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("epsilon_f", [0.07, 0.72, 0.05])
    def test_last_point_is_the_bound(self, epsilon_f):
        # start + 59*step may miss the bound by an ulp either way: 1 ET + 4 FPT
        # at epsilon_f 0.05 would end at 0.24000000000000002, past 0.24
        params = SavingsParams(epsilon_f=epsilon_f, epsilon_e=0.048, distance=300.0)
        for n in range(2, 16):
            for n_e in range(n + 1):
                comp = Composition(n_e, n - n_e)
                grid = default_xi_grid(comp, params)
                assert grid[-1] == xi_upper_bound(comp, params)
                assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_tiny_bound_still_increasing(self):
        params = SavingsParams(epsilon_f=7.2, epsilon_e=0.048, distance=300.0)
        grid = default_xi_grid(Composition(1, 14), params)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(0.0 < xi <= 1.0 for xi in grid)

    def test_subnormal_bound_too_small_for_the_grid(self):
        # xi* = 1.07e-321 spans some 216 subnormal steps, and only 59 of its 60
        # points are distinct; ten times the rate gives 60
        params = SavingsParams(epsilon_f=0.72, epsilon_e=1e-320, distance=300.0)
        with pytest.raises(XiOutOfRange, match=r"xi\* = 1.07e-321 of 2 ET \+ 13 FPT is too small"):
            default_xi_grid(Composition(2, 13), params)
        grid = default_xi_grid(Composition(2, 13), params._replace(epsilon_e=1e-319))
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_mixed_fleet_needs_ordered_rates(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        with pytest.raises(EpsilonOrderError):
            default_xi_grid(Composition(2, 3), params)

    def test_homogeneous_fleet_ignores_rate_order(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        grid = default_xi_grid(Composition(0, 5), params)
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
        comp = Composition(n_e, n_f)
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f, distance=distance)
        if what == "rates":
            scaled = params._replace(epsilon_f=params.epsilon_f * factor,
                                     epsilon_e=params.epsilon_e * factor)
        else:
            scaled = params._replace(distance=distance * factor)
        grid = [i / 20 for i in range(1, 21)]
        base = deviation_curve(stable_tables(params)(comp), grid)
        moved = deviation_curve(stable_tables(scaled)(comp), grid)
        assert [p.delta for p in moved] == pytest.approx([p.delta for p in base],
                                                         rel=1e-9, abs=1e-9)
        assert [p.in_core for p in moved] == [p.in_core for p in base]
