import functools
import math
import operator
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from platoonshare import (
    Allocation,
    BothTypesRequired,
    Composition,
    EpsilonOrderError,
    Fleet,
    FleetTooLarge,
    FleetTooSmall,
    NotEfficient,
    SavingsParams,
    TruckType,
    coalition_value,
    deviation_minimizing_allocation,
    even_split,
    in_core,
    shapley_allocation,
    shapley_core_condition_exact,
    shapley_core_condition_ratio,
    stable_allocation,
    xi_upper_bound,
)
from platoonshare import allocate, game, stability
from platoonshare.allocate import shapley_tables, stable_tables
from platoonshare.cli import main
from platoonshare.game import REL_TOL
from platoonshare.stability import LABELED_SCAN_MAX_FLEET


class TestInCore:
    def test_stable_at_bound_is_member(self, params, fleet23, comp23):
        alloc = stable_allocation(fleet23, params, xi_upper_bound(comp23, params))
        report = in_core(alloc, fleet23, params)
        assert report.is_member
        assert report.blocking_coalitions == ()
        assert report.stability_probability == 1.0

    def test_shapley_default_is_member(self, params, fleet23):
        report = in_core(shapley_allocation(fleet23, params), fleet23, params)
        assert report.is_member

    def test_concentrated_payoff_is_blocked(self, params, fleet23):
        # everything to one FPT: the other four trucks walk away
        total = coalition_value(fleet23.composition(), params)
        alloc = Allocation((0.0, 0.0, total, 0.0, 0.0), leader_id=2, scheme="test")
        report = in_core(alloc, fleet23, params, method="slow")
        assert not report.is_member
        blocked = {comp for comp, _ in report.blocking_coalitions}
        assert Composition(2, 2) in blocked
        assert report.stability_probability < 1.0

    def test_not_efficient_raises(self, params):
        fleet = Fleet.from_composition(Composition(0, 2))
        alloc = Allocation((0.0, 0.0), leader_id=0, scheme="test")
        with pytest.raises(NotEfficient):
            in_core(alloc, fleet, params)

    @pytest.mark.parametrize("method", ["auto", "slow"])
    @pytest.mark.parametrize("size", [4, 6])
    def test_allocation_of_another_length_rejected(self, params, fleet23, method, size):
        # the payoffs sum to v(N), but index a fleet of another size
        total = coalition_value(fleet23.composition(), params)
        alloc = Allocation((total / size,) * size, leader_id=0, scheme="test")
        with pytest.raises(ValueError, match=f"{size} payoffs for a fleet of 5"):
            in_core(alloc, fleet23, params, method=method)

    def test_unknown_method_rejected(self, params, fleet23):
        alloc = shapley_allocation(fleet23, params)
        for method in ("bogus", "fast"):
            with pytest.raises(ValueError, match="unknown method"):
                in_core(alloc, fleet23, params, method=method)

    def test_method_checked_before_efficiency(self, params, fleet23):
        # a usage error is reported as such, whatever the allocation
        alloc = Allocation((0.0,) * 5, leader_id=0, scheme="test")
        with pytest.raises(NotEfficient):
            in_core(alloc, fleet23, params)
        with pytest.raises(ValueError, match="unknown method") as caught:
            in_core(alloc, fleet23, params, method="bogus")
        assert not isinstance(caught.value, NotEfficient)

    @pytest.mark.parametrize("rates, comp", [(("0.07", "0.048"), (2, 3)),
                                             (("0.72", "0.048"), (13, 2))])
    def test_exact_payoffs_at_the_bound(self, rates, comp):
        # Fraction rates and distance flow through the leader-share scheme
        # exactly, and the class scan gives the float run's verdict
        fleet = Fleet.from_composition(Composition(*comp))
        verdicts = []
        for num in (float, Fraction):
            eps_f, eps_e = map(num, rates)
            params = SavingsParams(epsilon_f=eps_f, epsilon_e=eps_e, distance=num("300"))
            alloc = stable_allocation(fleet, params, xi_upper_bound(fleet.composition(), params))
            assert {type(pay) for pay in alloc.payoffs} == {num}
            verdicts.append(in_core(alloc, fleet, params))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].is_member

    def test_efficiency_summed_over_payoff_classes(self):
        # 7,749 equal FPT payoffs added one by one, left to right, drift past
        # money_tol (built-in sum compensates from Python 3.12 on, so the
        # naive sum is spelled out); the sum of count * pay over the payoff
        # classes does not. The scan's binomial rows come from a recurrence,
        # so the real verdict of so large a fleet is quick
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=7750)
        fleet = Fleet.from_composition(Composition(1, 7749))
        alloc = shapley_allocation(fleet, params)
        total = coalition_value(fleet.composition(), params)
        assert abs(functools.reduce(operator.add, alloc.payoffs) - total) > params.money_tol()
        report = in_core(alloc, fleet, params)
        assert report.is_member
        assert report.stability_probability == 1.0

    def test_fleet_cap(self):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=3)
        fleet = Fleet.from_composition(Composition(2, 3))
        alloc = Allocation((1.0,) * 5, leader_id=0, scheme="test")
        with pytest.raises(FleetTooLarge):
            in_core(alloc, fleet, params)

    def test_blocking_report_in_ascending_order(self, params, fleet23):
        alloc = stable_allocation(fleet23, params, 0.9)
        report = in_core(alloc, fleet23, params)
        comps = [c for c, _ in report.blocking_coalitions]
        assert comps == sorted(comps)


def _random_structured_allocation(rng, fleet, params):
    """Type-symmetric allocation with a leader extra, rescaled to efficiency."""
    total = coalition_value(fleet.composition(), params)
    leader = rng.randrange(fleet.size)
    leader_pay = rng.uniform(0.0, 2.0)
    pay = {"E": rng.uniform(0.0, 2.0), "D": rng.uniform(0.0, 2.0)}
    raw = [
        leader_pay if i == leader else pay[fleet.types[i].code]
        for i in range(fleet.size)
    ]
    scale = total / sum(raw) if sum(raw) > 0 else 0.0
    return Allocation(tuple(p * scale for p in raw), leader_id=leader, scheme="test")


class TestFastSlowAgreement:
    def test_random_instances(self, params):
        rng = random.Random(11)
        for _ in range(40):
            n_e = rng.randint(0, 6)
            n_f = rng.randint(2 if n_e < 2 else 0, 6)
            fleet = Fleet.from_composition(Composition(n_e, n_f))
            alloc = _random_structured_allocation(rng, fleet, params)
            fast = in_core(alloc, fleet, params)
            slow = in_core(alloc, fleet, params, method="slow")
            assert fast == slow

    def test_fast_rejects_unstructured(self, params, fleet23):
        total = coalition_value(fleet23.composition(), params)
        alloc = Allocation(
            (total - 10.0, 4.0, 3.0, 2.0, 1.0), leader_id=0, scheme="test"
        )
        # no two trucks are paid alike, yet every method gives the same report
        report = in_core(alloc, fleet23, params)
        assert report == in_core(alloc, fleet23, params, method="slow")

    @given(data=st.data(), n=st.integers(2, 10), ratio=st.floats(0.05, 0.95),
           levels=st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_class_scan_matches_labeled_scan(self, data, n, ratio, levels):
        # payoffs tie across types and with the leader, rescaled to efficiency
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * ratio, distance=300.0)
        fleet = Fleet(tuple(data.draw(st.lists(st.sampled_from(TruckType),
                                               min_size=n, max_size=n))))
        raw = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        assume(sum(raw) > 0)
        scale = coalition_value(fleet.composition(), params) / sum(raw)
        alloc = Allocation(tuple(p * scale for p in raw),
                           data.draw(st.integers(0, n - 1)), scheme="test")
        assert in_core(alloc, fleet, params) == in_core(alloc, fleet, params, method="slow")


class TestStabilityProbability:
    def test_member_is_one(self, params, fleet23, comp23):
        alloc = stable_allocation(fleet23, params, xi_upper_bound(comp23, params))
        assert in_core(alloc, fleet23, params).stability_probability == 1.0

    def test_far_beyond_bound_drops_below_one(self, params):
        comp = Composition(14, 1)
        fleet = Fleet.from_composition(comp)
        bound = xi_upper_bound(comp, params)
        alloc = stable_allocation(fleet, params, min(1.0, bound * 3))
        assert in_core(alloc, fleet, params).stability_probability < 1.0

    def test_certified_region_small_grid(self, params):
        # leader-share allocations inside the bound stay in the core
        for n in range(2, 9):
            for n_e in range(0, n + 1):
                comp = Composition(n_e, n - n_e)
                fleet = Fleet.from_composition(comp)
                bound = xi_upper_bound(comp, params)
                for k in (1, 2, 3):
                    alloc = stable_allocation(fleet, params, bound * k / 3)
                    assert in_core(alloc, fleet, params, method="slow").is_member


def _stable_interval_end(comp, params):
    """rho: x(xi) is in the core exactly on (0, rho]. The binding leader-out
    class holds every follower, or the follower FPTs alone."""
    ee, ef = params.epsilon_e, params.epsilon_f
    if comp.n_e == 0:
        return 1.0 / (comp.total() - 1)
    ends = [1.0]
    if comp.n_e >= 2:
        ends.append(ee / (ee * (comp.n_e - 1) + ef * comp.n_f))  # xi_upper_bound's expression
    if comp.n_f >= 2:
        ends.append(1.0 / comp.n_f)
    return min(ends)


class TestStableInterval:
    @pytest.mark.parametrize("epsilon_f, epsilon_e",
                             [(0.07, 0.048), (0.72, 0.048), (0.07, 0.07), (0.05, 0.07)])
    def test_core_exactly_up_to_rho(self, epsilon_f, epsilon_e):
        # every fleet of 2-30 trucks; the bound is rho wherever it is defined,
        # except on single-ET fleets, where it is strictly tighter
        params = SavingsParams(epsilon_f=epsilon_f, epsilon_e=epsilon_e, distance=300.0,
                               max_platoon_size=30)
        single_et = 0
        for n in range(2, 31):
            for n_e in range(n + 1):
                comp = Composition(n_e, n - n_e)
                fleet = Fleet.from_composition(comp)
                rho = _stable_interval_end(comp, params)

                def member(xi):
                    return in_core(stable_allocation(fleet, params, xi), fleet, params).is_member

                assert member(rho * (1 - 1e-7)) and member(rho), comp
                assert rho == 1.0 or not member(rho * (1 + 1e-7)), comp
                try:
                    bound = xi_upper_bound(comp, params)
                except EpsilonOrderError:
                    continue
                if n_e == 1:
                    assert bound < rho, comp
                    single_et += 1
                else:
                    assert bound == rho, comp
        assert single_et == (29 if epsilon_e < epsilon_f else 0)


def _exact_condition_loop(comp, params):
    """Reference for ``shapley_core_condition_exact``: the bound of every
    subset class with some but not all of the electric trucks."""
    ratio = params.epsilon_e / params.epsilon_f
    n = comp.total()
    for sub_f in range(comp.n_f + 1):
        for sub_e in range(1, comp.n_e):
            rhs = (sub_f * comp.n_e - comp.n_f * sub_e) / (n * (comp.n_e - sub_e))
            if ratio < rhs - REL_TOL:
                return False
    return True


class TestShapleyCoreConditions:
    def test_exact_condition_default(self, params, comp23):
        assert shapley_core_condition_exact(comp23, params) is True

    def test_exact_condition_fails_at_wide_gap(self):
        params = SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)
        assert shapley_core_condition_exact(Composition(2, 13), params) is False

    def test_single_electric_truck_passes_any_ratio(self):
        # phi for the lone ET never involves eps_e, so no subset gains
        for eps_f in (0.07, 0.72):
            params = SavingsParams(epsilon_f=eps_f, epsilon_e=0.048, distance=300.0)
            comp = Composition(1, 14)
            assert shapley_core_condition_exact(comp, params) is True
            fleet = Fleet.from_composition(comp)
            phi = shapley_allocation(fleet, params)
            assert in_core(phi, fleet, params, method="slow").is_member

    def test_ratio_condition_default(self, params, comp23):
        assert shapley_core_condition_ratio(comp23, params) is True

    def test_ratio_condition_single_et_threshold(self):
        # with one ET the threshold is (n-1)/n
        n = 5
        comp = Composition(1, n - 1)
        good = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * (n - 1) / n, distance=300.0)
        bad = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * 0.5, distance=300.0)
        assert shapley_core_condition_ratio(comp, good) is True
        assert shapley_core_condition_ratio(comp, bad) is False

    def test_ratio_condition_wide_gap(self):
        params = SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)
        assert shapley_core_condition_ratio(Composition(1, 14), params) is False

    def test_both_require_mixed_fleet(self, params):
        for comp in (Composition(0, 5), Composition(4, 0), Composition(1, 0)):
            with pytest.raises(BothTypesRequired):
                shapley_core_condition_exact(comp, params)
            with pytest.raises(BothTypesRequired):
                shapley_core_condition_ratio(comp, params)

    def test_ratio_implies_exact(self):
        for n in range(2, 9):
            for n_e in range(1, n):
                comp = Composition(n_e, n - n_e)
                for i in range(1, 20):
                    params = SavingsParams(
                        epsilon_f=0.07, epsilon_e=0.07 * i * 0.05, distance=300.0
                    )
                    if shapley_core_condition_ratio(comp, params):
                        assert shapley_core_condition_exact(comp, params)

    def test_exact_matches_the_subset_class_loop(self):
        rng = random.Random(7)
        for n in range(2, 31):
            for n_e in range(1, n):
                comp = Composition(n_e, n - n_e)
                ratios = {rng.uniform(0.01, 1.0) for _ in range(3)}
                for edge in (comp.n_f / n - REL_TOL, comp.n_f / n + REL_TOL):
                    ratios |= {edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0)}
                for ratio in ratios:
                    # epsilon_f = 1 makes epsilon_e / epsilon_f the ratio itself
                    params = SavingsParams(epsilon_f=1.0, epsilon_e=ratio, distance=300.0)
                    assert (shapley_core_condition_exact(comp, params)
                            == _exact_condition_loop(comp, params)), (comp, ratio)

    def test_exact_agrees_with_labeled_scan_small_grid(self):
        for n in range(2, 8):
            for n_e in range(1, n):
                comp = Composition(n_e, n - n_e)
                fleet = Fleet.from_composition(comp)
                for i in (2, 7, 12, 17):
                    params = SavingsParams(
                        epsilon_f=0.07, epsilon_e=0.07 * i * 0.05, distance=300.0
                    )
                    phi = shapley_allocation(fleet, params)
                    member = in_core(phi, fleet, params, method="slow").is_member
                    assert shapley_core_condition_exact(comp, params) == member

    def test_worst_case_subset_keeps_all_fuel_trucks(self):
        # the binding subset class always has n_f^S = n_f
        for n in range(3, 11):
            for n_e in range(2, n):
                n_f = n - n_e
                if n_f < 1:
                    continue
                rhs = {}
                for sub_f in range(n_f + 1):
                    for sub_e in range(1, n_e):
                        val = (sub_f * n_e - n_f * sub_e) / (n * (n_e - sub_e))
                        rhs[(sub_e, sub_f)] = val
                best = max(rhs.values())
                assert best == pytest.approx(n_f / n, abs=1e-12)
                assert any(
                    sub_f == n_f and abs(v - best) < 1e-12
                    for (sub_e, sub_f), v in rhs.items()
                )


def _smallest_distance(eps_f, eps_e):
    """The smallest distance whose money tolerance ``SavingsParams`` accepts."""
    def accepted(distance):
        try:
            SavingsParams(epsilon_f=eps_f, epsilon_e=eps_e, distance=distance)
        except ValueError:
            return False
        return True

    distance = sys.float_info.min / (REL_TOL * max(eps_f, eps_e))
    while accepted(math.nextafter(distance, 0.0)):
        distance = math.nextafter(distance, 0.0)
    while not accepted(distance):
        distance = math.nextafter(distance, math.inf)
    return distance


class TestEdgeCases:
    def test_every_scheme_efficient_at_the_smallest_distance(self):
        shortest = _smallest_distance(0.07, 0.048)
        with pytest.raises(ValueError, match="too small"):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048,
                          distance=math.nextafter(shortest, 0.0))
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=shortest)
        for n in range(2, 16):
            for n_e in range(n + 1):
                comp = Composition(n_e, n - n_e)
                fleet = Fleet.from_composition(comp)
                schemes = [stable_allocation(fleet, params, xi_upper_bound(comp, params)),
                           shapley_allocation(fleet, params), even_split(fleet, params)]
                if 0 < n_e < n and not shapley_core_condition_ratio(comp, params):
                    schemes.append(deviation_minimizing_allocation(fleet, params)[0])
                for alloc in schemes:
                    in_core(alloc, fleet, params)  # raises NotEfficient if it fails

    def test_zero_payoffs_not_efficient_on_a_short_trip(self):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=1e-6)
        fleet = Fleet.from_composition(Composition(0, 2))
        alloc = Allocation((0.0, 0.0), leader_id=0, scheme="test")
        with pytest.raises(NotEfficient):
            in_core(alloc, fleet, params)

    def test_nan_payoff_not_efficient(self, params, fleet23):
        total = coalition_value(fleet23.composition(), params)
        alloc = Allocation((float("nan"), total, 0.0, 0.0, 0.0), leader_id=0, scheme="test")
        with pytest.raises(NotEfficient):
            in_core(alloc, fleet23, params)

    @pytest.mark.parametrize("size", [LABELED_SCAN_MAX_FLEET + 1, 64])
    def test_labeled_scan_cap(self, size):
        # a 2^64 scan could never allocate its lists; the cap must come first
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=size)
        fleet = Fleet.from_composition(Composition(2, size - 2))
        alloc = even_split(fleet, params)
        with pytest.raises(FleetTooLarge):
            in_core(alloc, fleet, params, method="slow")
        pay = list(alloc.payoffs)
        pay[2], pay[3] = pay[2] + 1.0, pay[3] - 1.0
        skewed = Allocation(tuple(pay), alloc.leader_id, scheme="test")
        relabeled = Allocation(tuple(pay[::-1]), size - 1 - alloc.leader_id, scheme="test")
        assert (in_core(relabeled, Fleet(fleet.types[::-1]), params)
                == in_core(skewed, fleet, params))

    def test_binomial_rows(self):
        for m in range(401):
            assert stability._binomials(m) == [math.comb(m, k) for k in range(m + 1)]

    @pytest.mark.parametrize("size", [LABELED_SCAN_MAX_FLEET + 1, 64])
    def test_class_scan_cap(self, size):
        # all payoffs distinct: one class per truck, 2^size subset classes
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=size)
        fleet = Fleet.from_composition(Composition(2, size - 2))
        total = coalition_value(fleet.composition(), params)
        raw = [1.0 + i for i in range(size)]
        alloc = Allocation(tuple(p * total / sum(raw) for p in raw), 0, scheme="test")
        assert len(set(alloc.payoffs)) == size
        with pytest.raises(FleetTooLarge, match="subset classes"):
            in_core(alloc, fleet, params)


def _scheme_allocation(scheme, fleet, params, xi):
    if scheme == "stable":
        return stable_allocation(fleet, params, xi)
    if scheme == "at-bound":
        return stable_allocation(fleet, params, xi_upper_bound(fleet.composition(), params))
    if scheme == "shapley":
        return shapley_allocation(fleet, params)
    return even_split(fleet, params)


compositions = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
    lambda c: 2 <= sum(c) <= 15
)
schemes = st.sampled_from(["stable", "at-bound", "shapley", "even-split"])
leader_shares = st.floats(0.001, 1.0)
fuel_rates = st.floats(0.01, 1.0)
rate_ratios = st.floats(0.05, 0.95)
distances = st.floats(1.0, 1000.0)
# both rates scale by 10^k for k in [-9, 3], or the distance for k in [-6, 9]
scalings = st.one_of(st.tuples(st.just("rates"), st.integers(-9, 3)),
                     st.tuples(st.just("distance"), st.integers(-6, 9)))


def _scaled(params, what, factor):
    if what == "rates":
        return params._replace(epsilon_f=params.epsilon_f * factor,
                               epsilon_e=params.epsilon_e * factor)
    return params._replace(distance=params.distance * factor)


class TestMetamorphic:
    """Verdicts are scale-free and do not depend on how trucks are numbered."""

    @given(comp=compositions, scheme=schemes, xi=leader_shares, eps_f=fuel_rates,
           ratio=rate_ratios, distance=distances, scaling=scalings)
    @example(comp=(3, 12), scheme="stable", xi=0.15, eps_f=0.07, ratio=0.048 / 0.07,
             distance=300.0, scaling=("rates", -9))
    @settings(max_examples=150, deadline=None)
    def test_scaling_money_or_distance(self, comp, scheme, xi, eps_f, ratio, distance,
                                       scaling):
        what, k = scaling
        factor = 10.0 ** k
        fleet = Fleet.from_composition(Composition(*comp))
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f, distance=distance)
        scaled = _scaled(params, what, factor)
        x = _scheme_allocation(scheme, fleet, params, xi)
        y = _scheme_allocation(scheme, fleet, scaled, xi)
        assert y.payoffs == pytest.approx([p * factor for p in x.payoffs], rel=1e-9)
        assert in_core(y, fleet, scaled) == in_core(x, fleet, params)

    @given(data=st.data(), comp=compositions.filter(lambda c: sum(c) <= 10),
           scheme=schemes, xi=leader_shares, eps_f=fuel_rates, ratio=rate_ratios,
           distance=distances, k=st.integers(-6, 9))
    @settings(max_examples=60, deadline=None)
    def test_permuting_the_fleet(self, data, comp, scheme, xi, eps_f, ratio, distance, k):
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f,
                               distance=distance * 10.0 ** k)
        fleet = Fleet.from_composition(Composition(*comp))
        order = data.draw(st.permutations(range(fleet.size)))
        moved = Fleet(tuple(fleet.types[j] for j in order))
        x = _scheme_allocation(scheme, fleet, params, xi)
        y = _scheme_allocation(scheme, moved, params, xi)
        # the leader role may land on another truck of the same type
        assert y.payoffs[y.leader_id] == x.payoffs[x.leader_id]
        assert (sorted(zip((t.code for t in moved.types), y.payoffs))
                == sorted(zip((t.code for t in fleet.types), x.payoffs)))
        relabeled = Allocation(tuple(x.payoffs[j] for j in order),
                               order.index(x.leader_id), scheme="test")
        assert (in_core(relabeled, moved, params, method="slow")
                == in_core(x, fleet, params, method="slow"))


def _blocking(alloc, fleet, params):
    classes = Counter(zip(fleet.types, alloc.payoffs))
    return sum(stability._violations(classes, fleet.size, params).values())


def _expected(alloc, fleet, params):
    """A table point's reading, from the per-truck allocation and the class scan,
    its classes tallied in a table's order whatever the roster's: the leader,
    the other ETs, the FPTs (a ``Fleet.from_composition`` roster's order)."""
    order = sorted(range(fleet.size), key=lambda j: (fleet.types[j] is not TruckType.ELECTRIC,
                                                     j != alloc.leader_id))
    classes = Counter((fleet.types[j], alloc.payoffs[j]) for j in order)
    return classes, sum(stability._violations(classes, fleet.size, params).values())


def _read(scan, t):
    """``scan.at(t)`` with its payoff classes tallied by (truck type, pay)."""
    classes, count = scan.at(t)
    tally = Counter()
    for truck_type, pay, size in classes:
        tally[truck_type, pay] += size
    return tally, count


def _probe_points(scan):
    """Each window's edges and centre (its class's root), and their float neighbours."""
    points = set()
    for end, start, *_ in scan.windows:
        for t in (start, end, (start + end) / 2):
            points |= {t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)}
    return points


def _leader_share_family(params):
    """The leader-share pay lines and rates along xi, built here rather than
    read off a table: the follower pays at xi = 0 and 1."""
    at0, at1 = allocate._follower_pays(params, 0.0), allocate._follower_pays(params, 1.0)
    return ([(p0, p1 - p0) for p0, p1 in zip(at0, at1)],
            (params.epsilon_e, params.epsilon_f), (0.0, 0.0))


class TestBreakpoints:
    """The parametric class scan gives the blocking count of ``_violations``."""

    @given(data=st.data(), comp=compositions, eps_f=fuel_rates, ratio=rate_ratios,
           distance=distances, k=st.integers(-6, 9),
           xis=st.lists(leader_shares, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_leader_share_family(self, data, comp, eps_f, ratio, distance, k, xis):
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f,
                               distance=distance * 10.0 ** k)
        fleet = Fleet(tuple(data.draw(st.permutations(
            Fleet.from_composition(Composition(*comp)).types))))
        scan = stable_tables(params)(fleet.composition())
        for xi in sorted(_probe_points(scan) | set(xis)):
            if 0.0 < xi <= 1.0:
                alloc = stable_allocation(fleet, params, xi)
                assert _read(scan, xi) == _expected(alloc, fleet, params)

    @given(data=st.data(), comp=compositions.filter(lambda c: min(c) >= 1),
           eps_f=fuel_rates, distance=distances, k=st.integers(-6, 9),
           ratios=st.lists(rate_ratios, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_electric_rate_family(self, data, comp, eps_f, distance, k, ratios):
        base = SavingsParams(epsilon_f=eps_f, epsilon_e=0.5 * eps_f,
                             distance=distance * 10.0 ** k)
        fleet = Fleet(tuple(data.draw(st.permutations(
            Fleet.from_composition(Composition(*comp)).types))))
        scan = shapley_tables(base)(fleet.composition())
        points = _probe_points(scan) | {r * eps_f for r in ratios}
        for eps_e in sorted(points):
            if 0.0 < eps_e < eps_f:
                params = base._replace(epsilon_e=eps_e)
                alloc = shapley_allocation(fleet, params)
                assert _read(scan, eps_e) == _expected(alloc, fleet, params)

    def test_reads_the_thresholds_away_from_them(self, monkeypatch, params):
        fleet = Fleet.from_composition(Composition(3, 12))
        scan = stable_tables(params)(fleet.composition())
        expected = [_blocking(stable_allocation(fleet, params, xi), fleet, params)
                    for xi in (0.01, 0.1, 0.5)]
        monkeypatch.setattr(stability, "_violations", None)  # any recheck would fail
        assert [scan.at(xi)[1] for xi in (0.01, 0.1, 0.5)] == expected
        assert scan.probability(0.5) < 1.0
        assert expected[0] == 0 < expected[1]

    @pytest.mark.parametrize("change", [{"epsilon_e": 0.2}, {"epsilon_e": 0.5}])
    def test_other_params_are_rechecked(self, change, params, monkeypatch):
        # a point's params can differ from its table's only in the money
        # tolerance: past epsilon_f it grows with epsilon_e, so a table built
        # at the tolerance of epsilon_e <= epsilon_f cannot answer there
        fleet = Fleet.from_composition(Composition(4, 0))
        scan = shapley_tables(params)(fleet.composition())
        other = params._replace(**change)
        assert other.money_tol() > params.money_tol()
        calls = []
        scan_classes = stability._violations
        monkeypatch.setattr(stability, "_violations",
                            lambda *a: calls.append(a) or scan_classes(*a))
        reading = _read(scan, other.epsilon_e)
        assert len(calls) == 1  # the recheck
        assert reading == _expected(shapley_allocation(fleet, other), fleet, other)
        assert len(calls) == 2  # and _blocking
        scan.at(0.05)  # below epsilon_f: read off the table
        assert len(calls) == 2

    @pytest.mark.parametrize("epsilon_e", [0.2, 0.5])
    def test_recheck_scans_the_points_classes(self, epsilon_e, params, monkeypatch):
        # past epsilon_f a fig5 table rechecks at another money tolerance; it
        # scans the point's payoff classes and rebuilds no per-truck allocation
        fleet = Fleet.from_composition(Composition(4, 0))
        other = params._replace(epsilon_e=epsilon_e)
        expected = _blocking(shapley_allocation(fleet, other), fleet, other)
        scan = shapley_tables(params)(fleet.composition())
        built, calls = [], []
        for name in ("Allocation", "shapley_allocation", "stable_allocation"):
            original = getattr(allocate, name)
            monkeypatch.setattr(allocate, name, lambda *a, name=name, original=original, **k:
                                built.append(name) or original(*a, **k))
        scan_classes = stability._violations
        monkeypatch.setattr(stability, "_violations",
                            lambda *a: calls.append(a) or scan_classes(*a))
        assert scan.at(epsilon_e)[1] == expected
        assert len(calls) == 1  # the recheck
        assert built == []

    def test_equal_pay_classes_merge(self, params, monkeypatch):
        # the point pays the leader exactly what it pays each ET follower, and
        # windows at another money tolerance force the recheck: it scans one
        # ET class of 3, as in_core does on the per-truck allocation
        fleet = Fleet.from_composition(Composition(3, 1))
        electric, fuel = TruckType.ELECTRIC, TruckType.FUEL
        pay_e = 0.1 * params.epsilon_e * params.distance
        pay_f = coalition_value(fleet.composition(), params) - 3 * pay_e
        classes = ((electric, pay_e, 1), (electric, pay_e, 2), (fuel, pay_f, 1))
        other = params._replace(distance=2 * params.distance)
        windows = stability.ClassWindows(other, [(1.0, 0.0)] * 2,
                                         (other.epsilon_e, other.epsilon_f), (0.0, 0.0))
        assert windows.tol != params.money_tol()
        scan = stability.Breakpoints(fleet.composition(), windows, lambda t: (classes, params))
        alloc = Allocation((pay_e,) * 3 + (pay_f,), leader_id=0, scheme="test")
        report = in_core(alloc, fleet, params)
        expected = sum(count for _, count in report.blocking_coalitions)
        assert expected > 0
        assert scan.at(0.1)[1] == expected
        # 4 * 2 classes fit a cap of 2^3; two ET classes, 2 * 3 * 2, would not
        monkeypatch.setattr(stability, "LABELED_SCAN_MAX_FLEET", 3)
        assert scan.at(0.1)[1] == expected
        assert in_core(alloc, fleet, params) == report

    @pytest.mark.parametrize("tables", [stable_tables, shapley_tables],
                             ids=["stable_tables", "shapley_tables"])
    def test_fleet_checks(self, tables, params):
        for comp in (Composition(0, 0), Composition(0, 1)):
            with pytest.raises(FleetTooSmall):
                tables(params)(comp)
        with pytest.raises(FleetTooLarge):
            tables(params)(Composition(8, 8))

    @pytest.mark.parametrize("epsilon_e", [0.048, 0.08])  # with and without a bound
    def test_leader_subsets_left_out(self, epsilon_e, params):
        # the table holds only subsets without the leader; the count is the
        # full scan's at the smallest xi, a tiny one and the largest
        params = params._replace(epsilon_e=epsilon_e)
        for n in range(2, 16):
            for n_e in range(n + 1):
                roster = Fleet.from_composition(Composition(n_e, n - n_e))
                scan = stable_tables(params)(roster.composition())
                if 1 <= n_e < n:
                    assert len(scan.windows) == n_e * (n - n_e + 1) - 1
                for fleet in (roster, Fleet(roster.types[::-1])):  # leader at 0, at n_f
                    for xi in (5e-324, 1e-12, 1.0):
                        alloc = stable_allocation(fleet, params, xi)
                        assert _read(scan, xi) == _expected(alloc, fleet, params)

    @pytest.mark.parametrize("epsilon_f", [0.07, 0.5])  # rate ratio test holds, fails
    def test_type_fair_table_keeps_every_class(self, epsilon_f, params):
        # no truck is left out: every sub-composition but the empty and full
        # ones has a window, and each probe reads the full scan's count
        params = params._replace(epsilon_f=epsilon_f)
        for n in range(2, 16):
            for n_e in range(1, n):
                roster = Fleet.from_composition(Composition(n_e, n - n_e))
                scan = shapley_tables(params)(roster.composition())
                assert len(scan.windows) == (n_e + 1) * (n - n_e + 1) - 2
                for fleet in (roster, Fleet(roster.types[::-1])):
                    for eps_e in _probe_points(scan):
                        if 0.0 < eps_e < epsilon_f:
                            at = params._replace(epsilon_e=eps_e)
                            alloc = shapley_allocation(fleet, at)
                            assert _read(scan, eps_e) == _expected(alloc, fleet, at)

    def test_leader_subsets_count_toward_the_cap(self, params, monkeypatch):
        # 2 * 1000 * 701 classes with the leader's, 1000 * 701 without: over 2^20
        big = params._replace(max_platoon_size=1700)
        with pytest.raises(FleetTooLarge, match="subset classes"):
            stable_tables(big)(Composition(1000, 700))
        # at a cap of 2^5, 2 * 2 * 8 classes fit and 2 * 2 * 9 do not
        monkeypatch.setattr(stability, "LABELED_SCAN_MAX_FLEET", 5)
        stable_tables(params)(Composition(2, 7))
        with pytest.raises(FleetTooLarge, match="2\\^5 subset classes"):
            stable_tables(params)(Composition(2, 8))

    def test_not_efficient_raises(self, params, comp23):
        # 2 ETs and 3 FPTs paid 1.0 each fall short of v(N); classes counting
        # 4 trucks index another fleet, whatever they sum to
        total = coalition_value(comp23, params)
        electric, fuel = TruckType.ELECTRIC, TruckType.FUEL
        for classes, error, match in (
                (((electric, 1.0, 2), (fuel, 1.0, 3)), NotEfficient, None),
                (((electric, total / 4, 2), (fuel, total / 4, 2)), ValueError,
                 "payoff classes do not count a fleet of 5")):
            windows = stability.ClassWindows(params, [(1.0, 0.0)] * 2,
                                             (params.epsilon_e, params.epsilon_f), (0.0, 0.0))
            scan = stability.Breakpoints(comp23, windows, lambda t: (classes, params), None)
            with pytest.raises(error, match=match):
                scan.at(0.1)

    def test_efficiency_checked_at_every_point(self, params, comp23):
        # a table holds v(N) for its params, yet checks every point against it:
        # a later point of the same params object short by 2 money_tol fails
        total = coalition_value(comp23, params)
        short = {0.1: 0.0, 0.2: 2 * params.money_tol()}
        electric, fuel = TruckType.ELECTRIC, TruckType.FUEL
        windows = stability.ClassWindows(params, [(1.0, 0.0)] * 2,
                                         (params.epsilon_e, params.epsilon_f), (0.0, 0.0))
        scan = stability.Breakpoints(comp23, windows, lambda t: (
            ((electric, (total - short[t]) / 5, 2), (fuel, (total - short[t]) / 5, 3)),
            params), None)
        assert scan.at(0.1)[0][0][1] == total / 5
        with pytest.raises(NotEfficient):
            scan.at(0.2)

    @pytest.mark.parametrize("kind", ["fig2", "fig3", "fig6"])
    def test_sweeps_compute_invariants_per_table(self, kind, monkeypatch, tmp_path):
        # size 40: 39 tables of 30 or 60 points each; v(N) and the fleet-size
        # check are a table's, so each is made a few times per table at most
        calls = Counter()

        def spy(name, original):
            return lambda *a: calls.update([name]) or original(*a)

        value = spy("value", game.coalition_value)
        for module in (game, allocate, stability):
            monkeypatch.setattr(module, "coalition_value", value)
        monkeypatch.setattr(SavingsParams, "check_fleet_size",
                            spy("size", SavingsParams.check_fleet_size))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert 39 <= calls["value"] <= 3 * 39
        assert 39 <= calls["size"] <= 3 * 39

    @pytest.mark.parametrize("kind", ["fig2", "fig3", "fig5", "fig6"])
    def test_sweeps_build_no_rosters(self, kind, monkeypatch, tmp_path):
        # size 40: a table takes the composition it reads, and fig6's deviation
        # curve takes the table, so no sweep builds a roster
        built = []
        from_composition = game.Fleet.from_composition
        monkeypatch.setattr(game.Fleet, "from_composition", staticmethod(
            lambda comp: built.append(comp) or from_composition(comp)))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert built == []

    # the default rates, fig6's preset and the settings of sweep_settings.sha256
    @pytest.mark.parametrize("change", [{}, {"epsilon_f": 0.72},
                                        {"epsilon_f": 0.13, "distance": 1e-3},
                                        {"epsilon_f": 0.5, "distance": 1e9},
                                        {"distance": 1e-290}])
    def test_shared_tables_match_standalone(self, change, params, monkeypatch):
        # one factory's store grows over every composition of 2-30 trucks,
        # all-FPT ones (FPT leader) among the mixed (ET leader); each table it
        # serves equals the table built for that composition alone, and reads
        # each window edge alike: off the table, or by a recheck. The recheck
        # does not consult the table, so it is stubbed; each point is the
        # composition's own classes. The lone table reads a fresh store of the
        # leader-share lines, built here rather than by the factory
        params = params._replace(max_platoon_size=30, **change)
        monkeypatch.setattr(stability, "_violations", lambda *_: {"recheck": -1})
        tables = stable_tables(params)
        for n in range(2, 31):
            for n_e in range(n):
                comp = Composition(n_e, n - n_e)
                shared = tables(comp)
                own = stability.ClassWindows(params, *_leader_share_family(params))
                alone = stability.Breakpoints(comp, own, shared._point,
                                              game.optimal_leader_type(comp))
                assert shared.windows == alone.windows
                assert shared._counts[0] == alone._counts[0]  # the base count
                edges = {t for end, start, *_ in alone.windows for t in (start, end)}
                for t in sorted(t for t in edges if 0.0 < t <= 1.0):
                    assert shared.at(t) == alone.at(t)

    @pytest.mark.parametrize("kind", ["fig2", "fig3", "fig5", "fig6"])
    def test_sweeps_compute_each_window_once(self, kind, monkeypatch, tmp_path):
        # a size-30 sweep computes each class (e, f) of a store once. The
        # leader-share sweeps share one store of the leader-out classes: the
        # staircase e <= 28, e + f <= 29 for fig2 and fig6, and f <= 29 of
        # FPTs alone for fig3. Each fig5 table of n_e ETs has its own store of
        # every class e <= n_e, f <= 30 - n_e but the empty one
        computed = {}
        windows = stability.ClassWindows._windows

        def spy(self, e, fs):
            computed.setdefault(self, []).extend((e, f) for f in fs)
            return windows(self, e, fs)

        monkeypatch.setattr(stability.ClassWindows, "_windows", spy)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", kind, "--max-platoon-size", "30", "--out", str(out)]) == 0
        if kind == "fig5":
            expected = [{(e, f) for e in range(n_e + 1) for f in range(31 - n_e)} - {(0, 0)}
                        for n_e in range(1, 30)]
        elif kind == "fig3":
            expected = [{(0, f) for f in range(1, 30)}]
        else:
            expected = [{(e, f) for e in range(29) for f in range(30 - e)} - {(0, 0)}]
        assert [len(classes) for classes in computed.values()] == list(map(len, expected))
        assert list(map(set, computed.values())) == expected

    @pytest.mark.parametrize("change", [{}, {"epsilon_f": 0.72}, {"distance": 1e-290}])
    def test_shared_windows_serve_whole_fleet_tables(self, change, params):
        # a store grown over every composition of 2-30 trucks serves each table
        # the rows and base count of a fresh store, read with the leader left
        # out and with every truck kept: a table of its whole fleet cuts off
        # that class, which the store holds as a proper class of larger fleets.
        # The lines are the leader-share ones and one fleet's type-fair ones
        params = params._replace(max_platoon_size=30, **change)
        ef, dist = params.epsilon_f, params.distance
        (w_e, w_f), _ = allocate._type_fair_classes(Composition(3, 12))
        families = [_leader_share_family(params),
                    ([(w[1] * ef * dist, w[0] * dist) for w in (w_e, w_f)], (0.0, ef), (1.0, 0.0))]
        for family in families:
            grown = stability.ClassWindows(params, *family)
            for n in range(2, 31):
                for n_e in range(n + 1):
                    comp = Composition(n_e, n - n_e)
                    for leader in (game.optimal_leader_type(comp), None):
                        own = stability.ClassWindows(params, *family)
                        shared = stability.Breakpoints(comp, grown, None, leader)
                        alone = stability.Breakpoints(comp, own, None, leader)
                        m_e = comp.n_e - (leader is TruckType.ELECTRIC)
                        m_f = comp.n_f - (leader is TruckType.FUEL)
                        # no empty class, and none of the whole fleet
                        assert len(alone.windows) == (m_e + 1) * (m_f + 1) - 1 - (leader is None)
                        assert shared.windows == alone.windows
                        assert shared._counts[0] == alone._counts[0]  # the base count

    def test_tables_share_each_rates_params(self, params, comp23, monkeypatch):
        # two tables of one factory read at one rate build its params once,
        # and each reads as a table of a fresh factory
        comps = [comp23, Composition(3, 4)]
        eps_e = 0.4 * params.epsilon_f
        expected = [shapley_tables(params)(comp).at(eps_e) for comp in comps]
        tables = shapley_tables(params)
        scans = [tables(comp) for comp in comps]
        built = []
        check = SavingsParams._check
        monkeypatch.setattr(SavingsParams, "_check",
                            lambda self: built.append(self) or check(self))
        assert [scan.at(eps_e) for scan in scans] == expected
        assert [at.epsilon_e for at in built] == [eps_e]
        assert [scan.at(eps_e) for scan in scans] == expected
        assert len(built) == 1
        for scan in scans:  # a rate the params refuse is refused at every read
            with pytest.raises(ValueError, match="positive"):
                scan.at(-eps_e)
        assert len(built) == 3

    def test_fig5_validates_params_per_table_not_per_point(self, monkeypatch, tmp_path):
        # size 40: 39 tables of 19 points each; one set of params per grid
        # rate and one for the windows' tolerance, both per sweep, and the
        # run's one and its check at epsilon_e = epsilon_f, built by the config
        built = []
        check = SavingsParams._check
        monkeypatch.setattr(SavingsParams, "_check",
                            lambda self: built.append(self) or check(self))
        out = tmp_path / "fig5.csv"
        assert main(["sweep", "fig5", "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert len(built) == 19 + 1 + 1 + 1

    def test_default_sweeps_never_rescan(self, monkeypatch, tmp_path):
        calls = []
        scan = stability._violations
        monkeypatch.setattr(stability, "_violations", lambda *a: calls.append(a) or scan(*a))
        for kind in ("fig2", "fig3", "fig5", "fig6"):
            out = tmp_path / f"{kind}.csv"
            assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert calls == []
        assert main(["allocate", "--out", str(tmp_path / "a.txt")]) == 0
        assert len(calls) == 1  # the spy sees the class scan

    def test_default_sweeps_build_no_per_truck_allocation(self, monkeypatch, tmp_path):
        # every grid point is read as payoff classes with counts
        built = []
        cls = allocate.Allocation
        monkeypatch.setattr(allocate, "Allocation", lambda *a, **k: built.append(a) or cls(*a, **k))
        for kind in ("fig2", "fig3", "fig5", "fig6"):
            out = tmp_path / f"{kind}.csv"
            assert main(["sweep", kind, "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert built == []
        assert main(["allocate", "--out", str(tmp_path / "a.txt")]) == 0
        assert len(built) == 1  # the spy sees the allocate command's allocation
