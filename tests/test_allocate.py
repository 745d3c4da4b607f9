import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platoonshare import (
    Composition,
    ConditionHolds,
    BothTypesRequired,
    EpsilonOrderError,
    Fleet,
    FleetTooLarge,
    FleetTooSmall,
    SavingsParams,
    TruckType,
    XiOutOfRange,
    coalition_value,
    deviation_minimizing_allocation,
    even_split,
    shapley_allocation,
    shapley_closed_form,
    stable_allocation,
    xi_upper_bound,
)
from platoonshare import oracles
from platoonshare.game import rate_for_counts
from platoonshare.oracles import BRUTE_FORCE_MAX_FLEET, shapley_bruteforce


class TestXiUpperBound:
    def test_mixed_default(self, params, comp23):
        assert xi_upper_bound(comp23, params) == pytest.approx(0.048 / 0.258, abs=1e-9)

    def test_all_fuel(self, params):
        assert xi_upper_bound(Composition(0, 5), params) == pytest.approx(0.25)

    def test_all_electric_rate_free(self):
        for eps_e in (0.01, 0.048, 0.3):
            params = SavingsParams(epsilon_f=0.07, epsilon_e=eps_e, distance=300.0)
            assert xi_upper_bound(Composition(5, 0), params) == pytest.approx(0.25)

    def test_too_small(self, params):
        with pytest.raises(FleetTooSmall):
            xi_upper_bound(Composition(1, 0), params)

    def test_rate_order_enforced_on_mixed(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        with pytest.raises(EpsilonOrderError):
            xi_upper_bound(Composition(2, 3), params)


class TestStableAllocation:
    def test_at_the_bound(self, params, fleet23, comp23):
        xi = xi_upper_bound(comp23, params)
        alloc = stable_allocation(fleet23, params, xi)
        assert alloc.leader_id == 0
        assert alloc.payoffs[0] == pytest.approx(14.4, abs=0.01)
        assert alloc.payoffs[1] == pytest.approx(11.72, abs=0.01)
        assert alloc.payoffs[2] == pytest.approx(17.09, abs=0.01)
        assert alloc.within_bound is True

    def test_leader_gets_electric_rate_at_bound(self, params):
        # xi * v(N) telescopes to epsilon_e * distance whenever an ET leads
        for n_e, n_f in [(1, 1), (2, 3), (4, 7), (1, 14)]:
            comp = Composition(n_e, n_f)
            fleet = Fleet.from_composition(comp)
            alloc = stable_allocation(fleet, params, xi_upper_bound(comp, params))
            assert alloc.payoffs[alloc.leader_id] == pytest.approx(
                params.epsilon_e * params.distance, abs=1e-9
            )

    def test_homogeneous_even_share(self, params):
        fleet = Fleet.from_composition(Composition(0, 5))
        alloc = stable_allocation(fleet, params, 1 / 5)
        share = coalition_value(Composition(0, 5), params) / 5
        assert all(p == pytest.approx(share, abs=1e-9) for p in alloc.payoffs)

    def test_beyond_bound_still_constructed(self, params, fleet23):
        alloc = stable_allocation(fleet23, params, 0.5)
        assert alloc.within_bound is False
        assert alloc.total() == pytest.approx(77.4, abs=1e-6)

    def test_no_bound_without_ordered_rates(self, fleet23):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.08, distance=300.0)
        assert stable_allocation(fleet23, params, 0.1).within_bound is None

    @pytest.mark.parametrize("xi", [0.0, -0.1, 1.0001, 5.0])
    def test_xi_range(self, params, fleet23, xi):
        with pytest.raises(XiOutOfRange):
            stable_allocation(fleet23, params, xi)

    def test_too_small_fleet(self, params):
        with pytest.raises(FleetTooSmall):
            stable_allocation(Fleet.from_composition(Composition(1, 0)), params, 0.1)

    def test_oversized_fleet(self):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=4)
        with pytest.raises(FleetTooLarge):
            stable_allocation(Fleet.from_composition(Composition(2, 3)), params, 0.1)

    def test_efficiency_over_random_draws(self, params):
        rng = random.Random(7)
        for _ in range(100):
            n_e = rng.randint(0, 6)
            n_f = rng.randint(0 if n_e >= 2 else 2, 6)
            fleet = Fleet.from_composition(Composition(n_e, n_f))
            xi = rng.uniform(1e-6, 1.0)
            alloc = stable_allocation(fleet, params, xi)
            assert alloc.total() == pytest.approx(
                coalition_value(fleet.composition(), params), abs=1e-6
            )


class TestShapleyClosedForm:
    def test_default_fleet(self, params, comp23):
        phi_e, phi_f = shapley_closed_form(comp23, params)
        assert phi_e == pytest.approx(13.5, abs=1e-9)
        assert phi_f == pytest.approx(16.8, abs=1e-9)

    def test_matches_bruteforce(self, params, fleet23, comp23):
        phi_e, phi_f = shapley_closed_form(comp23, params)
        oracle = shapley_bruteforce(fleet23, params)
        per_km = 1.0 / params.distance
        assert oracle.payoffs[0] * per_km == pytest.approx(phi_e * per_km, abs=1e-9)
        assert oracle.payoffs[4] * per_km == pytest.approx(phi_f * per_km, abs=1e-9)

    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n_e,n_f", [(1, 1), (1, 4), (2, 2), (3, 2), (2, 4)])
    def test_oracle_grid(self, ratio, n_e, n_f):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=ratio * 0.07, distance=300.0)
        comp = Composition(n_e, n_f)
        phi_e, phi_f = shapley_closed_form(comp, params)
        oracle = shapley_bruteforce(Fleet.from_composition(comp), params)
        for i in range(n_e):
            assert oracle.payoffs[i] / params.distance == pytest.approx(
                phi_e / params.distance, abs=1e-9
            )
        for i in range(n_e, n_e + n_f):
            assert oracle.payoffs[i] / params.distance == pytest.approx(
                phi_f / params.distance, abs=1e-9
            )

    def test_homogeneous_equals_even_stable(self, params):
        for n in (2, 4, 7):
            comp = Composition(0, n)
            _, phi_f = shapley_closed_form(comp, params)
            fleet = Fleet.from_composition(comp)
            stable = stable_allocation(fleet, params, 1 / n)
            assert all(p == pytest.approx(phi_f, abs=1e-9) for p in stable.payoffs)

    def test_efficiency_identity(self, params):
        for n_e in range(0, 5):
            for n_f in range(0, 5):
                if n_e + n_f < 1:
                    continue
                phi_e, phi_f = shapley_closed_form(Composition(n_e, n_f), params)
                total = (phi_e or 0.0) * n_e + (phi_f or 0.0) * n_f
                assert total == pytest.approx(
                    coalition_value(Composition(n_e, n_f), params), abs=1e-9
                )

    def test_absent_type_is_none(self, params):
        phi_e, phi_f = shapley_closed_form(Composition(0, 4), params)
        assert phi_e is None and phi_f is not None
        phi_e, phi_f = shapley_closed_form(Composition(3, 0), params)
        assert phi_e is not None and phi_f is None

    def test_rate_order_enforced(self):
        params = SavingsParams(epsilon_f=0.048, epsilon_e=0.07, distance=300.0)
        with pytest.raises(EpsilonOrderError):
            shapley_closed_form(Composition(2, 3), params)

    def test_empty_composition(self, params):
        with pytest.raises(FleetTooSmall):
            shapley_closed_form(Composition(0, 0), params)


class TestShapleyBruteforce:
    def test_two_truck_mixed_hand_value(self, params):
        # v(N) = eps_f * d; each truck contributes it in one of two orderings
        fleet = Fleet.from_composition(Composition(1, 1))
        alloc = shapley_bruteforce(fleet, params)
        half = params.epsilon_f * params.distance / 2
        assert alloc.payoffs == pytest.approx((half, half), abs=1e-9)

    def test_two_fuel_trucks(self, params):
        alloc = shapley_bruteforce(Fleet.from_composition(Composition(0, 2)), params)
        half = params.epsilon_f * params.distance / 2
        assert alloc.payoffs == pytest.approx((half, half), abs=1e-9)

    def test_within_type_symmetry(self, params):
        alloc = shapley_bruteforce(Fleet.from_composition(Composition(3, 4)), params)
        assert max(alloc.payoffs[:3]) - min(alloc.payoffs[:3]) < 1e-9
        assert max(alloc.payoffs[3:]) - min(alloc.payoffs[3:]) < 1e-9

    def test_size_cap(self, params):
        with pytest.raises(FleetTooLarge):
            shapley_bruteforce(Fleet.from_composition(Composition(6, 5)), params)

    @staticmethod
    def _shuffled(n_e, n_f, rng):
        types = [TruckType.ELECTRIC] * n_e + [TruckType.FUEL] * n_f
        rng.shuffle(types)
        return Fleet(tuple(types))

    @pytest.mark.parametrize("epsilon_e", [0.0175, 0.048, 0.07])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_mean_over_all_orderings(self, n, epsilon_e):
        # Shapley's definition, independent of the subset walk and of the
        # closed form: a truck's mean marginal worth over all n! orderings.
        params = SavingsParams(epsilon_f=0.07, epsilon_e=epsilon_e, distance=300.0)
        rng = random.Random(n)
        orders = list(permutations(range(n)))
        for n_e in range(n + 1):
            fleet = self._shuffled(n_e, n - n_e, rng)
            worth = {(e, f): coalition_value(Composition(e, f), params)
                     for e in range(n_e + 1) for f in range(n - n_e + 1)}
            totals = [0.0] * n
            for order in orders:
                e = f = 0
                for i in order:
                    before = worth[e, f]
                    if fleet.types[i] is TruckType.ELECTRIC:
                        e += 1
                    else:
                        f += 1
                    totals[i] += worth[e, f] - before
            want = [t / len(orders) for t in totals]
            got = list(shapley_bruteforce(fleet, params).payoffs)
            assert got == pytest.approx(want, abs=params.money_tol()), fleet.types

    def test_every_composition_up_to_the_cap(self, params):
        tol = params.money_tol()
        rng = random.Random(BRUTE_FORCE_MAX_FLEET)
        for n in range(2, BRUTE_FORCE_MAX_FLEET + 1):
            for n_e in range(n + 1):
                fleet = self._shuffled(n_e, n - n_e, rng)
                phi_e, phi_f = shapley_closed_form(fleet.composition(), params)
                want = [phi_e if t is TruckType.ELECTRIC else phi_f for t in fleet.types]
                got = list(shapley_bruteforce(fleet, params).payoffs)
                assert got == pytest.approx(want, abs=tol), fleet.types
                back = list(shapley_bruteforce(Fleet(fleet.types[::-1]), params).payoffs)
                assert back == pytest.approx(got[::-1], abs=tol), fleet.types

    def test_values_each_key_once(self, params, monkeypatch):
        # v depends only on a subset's (ET count, size): a shuffled 10-truck
        # roster needs at most (N+1)^2 valuations, not one per subset.
        calls = []

        def counted(*args):
            calls.append(args)
            return rate_for_counts(*args)

        monkeypatch.setattr(oracles, "rate_for_counts", counted)
        n = BRUTE_FORCE_MAX_FLEET
        fleet = self._shuffled(4, n - 4, random.Random(n))
        shapley_bruteforce(fleet, params)
        assert 0 < len(calls) <= (n + 1) ** 2

    @given(
        types=st.lists(st.sampled_from(TruckType), min_size=2,
                       max_size=BRUTE_FORCE_MAX_FLEET),
        epsilon_f=st.floats(0.05, 0.95),
        ratio=st.floats(0.05, 0.95),
        exponent=st.floats(-6, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_cancellation_stays_within_money_tol(self, types, epsilon_f, ratio, exponent):
        # phi_i is a sum over the subsets holding i less a sum over all
        # subsets; the subtraction must not cost more than the tolerance.
        params = SavingsParams(epsilon_f=epsilon_f, epsilon_e=ratio * epsilon_f,
                               distance=10.0 ** exponent)
        tol = params.money_tol()
        fleet = Fleet(tuple(types))
        phi_e, phi_f = shapley_closed_form(fleet.composition(), params)
        want = [phi_e if t is TruckType.ELECTRIC else phi_f for t in types]
        alloc = shapley_bruteforce(fleet, params)
        assert list(alloc.payoffs) == pytest.approx(want, abs=tol), types
        assert alloc.total() == pytest.approx(
            coalition_value(fleet.composition(), params), abs=tol
        )


class TestEvenSplit:
    def test_homogeneous(self, params):
        alloc = even_split(Fleet.from_composition(Composition(0, 5)), params)
        assert all(p == pytest.approx(16.8, abs=1e-9) for p in alloc.payoffs)

    def test_mixed_default(self, params, fleet23):
        alloc = even_split(fleet23, params)
        assert all(p == pytest.approx(15.48, abs=1e-6) for p in alloc.payoffs)

    @given(n_e=st.integers(0, 7), n_f=st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_sums_to_grand_value(self, n_e, n_f):
        if n_e + n_f < 2:
            n_f = 2
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0)
        fleet = Fleet.from_composition(Composition(n_e, n_f))
        alloc = even_split(fleet, params)
        assert alloc.total() == pytest.approx(
            coalition_value(fleet.composition(), params), abs=1e-6
        )


class TestDeviationMinimizing:
    def test_xi_star_value(self):
        params = SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)
        fleet = Fleet.from_composition(Composition(1, 14))
        alloc, xi_star = deviation_minimizing_allocation(fleet, params)
        assert xi_star == pytest.approx(0.048 / (0.72 * 14), abs=1e-9)
        assert alloc.scheme == "deviation-min"
        assert alloc.xi == xi_star

    def test_leader_gets_electric_rate(self):
        params = SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)
        for n_e, n_f in [(1, 14), (3, 10), (5, 8)]:
            fleet = Fleet.from_composition(Composition(n_e, n_f))
            alloc, _ = deviation_minimizing_allocation(fleet, params)
            assert alloc.payoffs[alloc.leader_id] == pytest.approx(
                params.epsilon_e * params.distance, abs=1e-9
            )

    def test_rejected_when_condition_holds(self, params, fleet23):
        with pytest.raises(ConditionHolds):
            deviation_minimizing_allocation(fleet23, params)

    def test_needs_both_types(self, params):
        with pytest.raises(BothTypesRequired):
            deviation_minimizing_allocation(Fleet.from_composition(Composition(0, 5)), params)


class TestAllocationInvariants:
    @pytest.mark.parametrize("n_e,n_f", [(0, 2), (1, 1), (2, 3), (0, 6), (4, 0), (3, 5)])
    def test_individual_rationality(self, params, n_e, n_f):
        fleet = Fleet.from_composition(Composition(n_e, n_f))
        allocs = [
            stable_allocation(fleet, params, 0.1),
            shapley_allocation(fleet, params),
            even_split(fleet, params),
        ]
        if fleet.size <= 10:
            allocs.append(shapley_bruteforce(fleet, params))
        for alloc in allocs:
            assert all(p >= 0.0 for p in alloc.payoffs)
            assert len(alloc.payoffs) == fleet.size

    def test_shapley_leader_is_metadata_only(self, params, fleet23):
        alloc = shapley_allocation(fleet23, params)
        assert alloc.leader_id == 0
        assert alloc.payoffs[0] == alloc.payoffs[1]
