import functools
import math
import operator
import random
import sys
import tracemalloc
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
    InvalidInput,
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
from platoonshare.allocate import shapley_table, stable_table
from platoonshare.cli import _RATIO_GRID, _XI_GRID, main
from platoonshare.game import REL_TOL
from platoonshare.oracles import LABELED_SCAN_MAX_FLEET


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
        # each scan lists its compositions in ascending order itself
        alloc = stable_allocation(fleet23, params, 0.9)
        for method in ("auto", "slow"):
            comps = [c for c, _ in in_core(alloc, fleet23, params, method).blocking_coalitions]
            assert len(comps) > 1
            assert comps == sorted(comps)

    def test_blocking_coalitions_are_compositions(self, params, fleet23):
        # built without Composition's own constructor, they are still Compositions
        alloc = stable_allocation(fleet23, params, 0.9)
        for method in ("auto", "slow"):
            blocking = in_core(alloc, fleet23, params, method).blocking_coalitions
            assert blocking
            assert all(type(comp) is Composition for comp, _ in blocking)


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


def _flat_violations(classes, n, params):
    """The flat class scan, one entry per subset class: ``_violations``' twin in
    exact Fractions of the float inputs, each class counted with ``math.comb``."""
    stability._check_class_cap(classes.values())
    ee, ef, dist, tol = map(Fraction, (params.epsilon_e, params.epsilon_f, params.distance,
                                       params.money_tol()))
    picks = [(0, 0, Fraction(0), 1)]  # (e, f, exact sum, count) per subset class
    for (fuel, pay), size in classes.items():
        picks = [(e + k * (not fuel), f + k * fuel, got + k * Fraction(pay),
                  count * math.comb(size, k))
                 for e, f, got, count in picks for k in range(size + 1)]
    out = Counter()
    for e, f, got, count in picks:
        if 0 < e + f < n and game.rate_for_counts(e, f, ee, ef) * dist - got > tol:
            out[(e, f)] += count
    return dict(out)


def _flagged(classes):
    """(truck type, pay) classes keyed as the class scan reads them: (is fuel, pay)."""
    return {(truck_type is TruckType.FUEL, pay): size
            for (truck_type, pay), size in classes.items()}


E, F = TruckType.ELECTRIC, TruckType.FUEL
# tied, zero and cancelling pays; -0.0 and 0.0 are one class
TWIN_PAYS = st.sampled_from([0.0, -0.0, 1.5, 2.5, 1e17, -1e17]) | st.floats(-60.0, 60.0)


@st.composite
def _paid_fleets(draw, max_size=12):
    """Truck types and pays: each pay one of a few levels, the leader's its own."""
    types = draw(st.lists(st.sampled_from(TruckType), min_size=1, max_size=max_size))
    levels = draw(st.lists(TWIN_PAYS, min_size=1, max_size=3))
    pays = draw(st.lists(st.sampled_from(levels), min_size=len(types), max_size=len(types)))
    pays[draw(st.integers(0, len(types) - 1))] = draw(st.sampled_from(levels) | TWIN_PAYS)
    return tuple(types), tuple(pays)


# Summed in the mapping's order, the class scan once gave this allocation
# stability probability 0.785714 and, with ids 0 and 2 swapped, 0.857143.
RELABELING_TYPES = (E, F, F, E)
RELABELING_PAYS = (6.606115254007317, 7.676082903346565, 27.71780182164612, 14.400000020999997)


def _exact_blocking(types, pays, params):
    """The blocking (composition, count) pairs of a labeled fleet from every
    proper subset's exact excess, in Fractions of the float inputs."""
    ee, ef, dist, tol = map(Fraction, (params.epsilon_e, params.epsilon_f, params.distance,
                                       params.money_tol()))
    n, counts = len(types), Counter()
    for mask in range(1, (1 << n) - 1):
        members = [i for i in range(n) if mask >> i & 1]
        e = sum(types[i] is E for i in members)
        f = len(members) - e
        paid = sum(Fraction(pays[i]) for i in members)
        if game.rate_for_counts(e, f, ee, ef) * dist - paid > tol:
            counts[Composition(e, f)] += 1
    return tuple(sorted(counts.items()))


def _scan(classes, n, params):
    """``_violations``' flat counts as a map of each blocking (e, f) to its count."""
    counts, width = stability._violations(classes, n, params)
    return {divmod(key, width): count for key, count in enumerate(counts) if count}


def _twin_report(types, pays, params):
    """The report each exact twin implies: ``_exact_blocking``'s pairs, which
    ``_flat_violations`` must list too, and their share of the proper subsets."""
    blocking = _exact_blocking(types, pays, params)
    flat = _flat_violations(Counter(zip((t is F for t in types), pays)), len(types), params)
    assert blocking == tuple(sorted((Composition(*key), count) for key, count in flat.items()))
    n_blocking = sum(count for _, count in blocking)
    share = 1.0 - n_blocking / (2 ** len(types) - 2) if n_blocking else 1.0
    return stability.CoreReport(not blocking, blocking, share)


RATIOS = st.sampled_from([Fraction(48, 70), Fraction(1, 2), Fraction(1), Fraction(9, 7)])


class TestClassOrder:
    """The class scan gives one report, whatever the mapping's order or the trucks' ids."""

    @given(fleet=_paid_fleets(), exact=st.booleans(), ratio=RATIOS)
    @example(fleet=((F,) * 5, (3.0,) * 5), exact=False, ratio=Fraction(1))  # one class
    # the largest class ET (and a pay tied across types), FPT, and the leader's
    @example(fleet=((E,) * 6 + (F,) * 2 + (E,), (5.0,) * 8 + (40.0,)), exact=False,
             ratio=Fraction(48, 70))
    @example(fleet=((E, E, F, F, F, F, F, E), (1e17, 1e17) + (-1e17,) * 5 + (0.0,)),
             exact=False, ratio=Fraction(48, 70))
    @example(fleet=((E, F, F), (2.0, 1.0, 40.0)), exact=True, ratio=Fraction(1, 2))
    # in floats summed by type first, 1e17 + 36 rounds to 1e17 + 32 and a subset worth 35.4 blocks
    @example(fleet=((E, F, F) + (E,) * 3, (1e17, -1e17, -1e17) + (36.0,) * 3), exact=False,
             ratio=Fraction(48, 70))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_flat_scan_in_canonical_order(self, fleet, exact, ratio):
        types, pays = fleet
        num = Fraction if exact else float
        eps_f = num(Fraction(7, 100))
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=eps_f * num(ratio),
                               distance=num(300))
        classes = Counter(zip((t is F for t in types), map(num, pays)))
        counts, width = stability._violations(classes, len(types), params)
        assert width == types.count(F) + 1
        assert len(counts) == (types.count(E) + 1) * width
        assert all(type(count) is int and count >= 0 for count in counts)
        assert _scan(classes, len(types), params) == _flat_violations(classes, len(types), params)
        reordered = dict(reversed(list(classes.items())))
        assert stability._violations(reordered, len(types), params) == (counts, width)

    def test_relabeling_keeps_the_report(self, params):
        pays = RELABELING_PAYS
        alloc = Allocation(pays, leader_id=0, scheme="test")
        swapped = Allocation((pays[2], pays[1], pays[0], pays[3]), leader_id=2, scheme="test")
        report = in_core(alloc, Fleet(RELABELING_TYPES), params)
        assert in_core(swapped, Fleet((F, F, E, E)), params) == report

    @pytest.mark.parametrize("method", ["auto", "slow"])
    def test_relabeling_allocation_blocks_by_exact_excesses(self, params, method):
        # three of the 14 proper subsets block, {0, 1, 2} by about 2e-15 over the tolerance
        blocking = _exact_blocking(RELABELING_TYPES, RELABELING_PAYS, params)
        assert sum(count for _, count in blocking) == 3
        report = in_core(Allocation(RELABELING_PAYS, 0, scheme="test"),
                         Fleet(RELABELING_TYPES), params, method)
        assert report.blocking_coalitions == blocking
        assert f"{report.stability_probability:.6f}" == "0.785714"

    @given(data=st.data(), n=st.integers(2, 10), ratio=st.floats(0.05, 0.95),
           levels=st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_permuting_the_ids_keeps_the_report(self, data, n, ratio, levels):
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * ratio, distance=300.0)
        fleet = Fleet(tuple(data.draw(st.lists(st.sampled_from(TruckType),
                                               min_size=n, max_size=n))))
        raw = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        assume(sum(raw) > 0)
        scale = coalition_value(fleet.composition(), params) / sum(raw)
        alloc = Allocation(tuple(p * scale for p in raw), 0, scheme="test")
        order = data.draw(st.permutations(range(n)))
        moved = Fleet(tuple(fleet.types[j] for j in order))
        relabeled = Allocation(tuple(alloc.payoffs[j] for j in order), order.index(0),
                               scheme="test")
        assert in_core(relabeled, moved, params) == in_core(alloc, fleet, params)


# Pays on the edge of one rounding: at rates 7 and 3 and distance 2^53 - 1 the
# FPT pair of 1 ET + 2 FPT gains exactly 63,050,393 over its pays, less than the
# tolerance of 63,050,394.78, though 7.0 * (2^53 - 1) rounds to 7 * 2^53 - 8.
EXACT_DISTANCE = 2**53 - 1
EXACT_PAYS = (6.305039484623733e+16, 3.152519736006827e+16, 3.152519736006827e+16)
# at most 40 trucks, default rates and fig6's epsilon_f preset
RULE_PARAMS = st.sampled_from([SavingsParams(0.07, 0.048, 300.0, 40),
                               SavingsParams(0.72, 0.048, 300.0, 40)])
RULE_COMPS = st.integers(2, 40).flatmap(
    lambda n: st.integers(0, n).map(lambda n_e: Composition(n_e, n - n_e)))


def _blocking_count(alloc, fleet, params):
    return sum(count for _, count in in_core(alloc, fleet, params).blocking_coalitions)


class TestOneRule:
    """Sweep cells, the class scan and the labeled oracle decide each subset by
    one rule: v(S) - x(S) > tol, exactly on the float inputs' values."""

    @given(comp=RULE_COMPS, params=RULE_PARAMS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_leader_share_tables_count_what_in_core_counts(self, comp, params, data):
        xi_star = xi_upper_bound(comp, params)
        xi = data.draw(st.sampled_from(
            [*_XI_GRID, xi_star, math.nextafter(xi_star, 0), math.nextafter(xi_star, 1)]))
        fleet = Fleet.from_composition(comp)
        count = _blocking_count(stable_allocation(fleet, params, xi), fleet, params)
        assert stable_table(comp, params).at(xi)[1] == count

    @given(comp=RULE_COMPS, params=RULE_PARAMS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_type_fair_tables_count_what_in_core_counts(self, comp, params, data):
        edge = comp.n_f / comp.total()  # the ratio core condition's threshold
        edges = [edge, math.nextafter(edge, 0), math.nextafter(edge, 1)] if 0 < edge < 1 else []
        ratio = data.draw(st.sampled_from([*_RATIO_GRID, *edges]))
        at_ratio = params._replace(epsilon_e=ratio * params.epsilon_f)
        fleet = Fleet.from_composition(comp)
        count = _blocking_count(shapley_allocation(fleet, at_ratio), fleet, at_ratio)
        assert shapley_table(comp, params).at(ratio)[1] == count

    @given(fleet=_paid_fleets(max_size=10), exact=st.booleans(), ratio=RATIOS)
    @example(fleet=(RELABELING_TYPES, RELABELING_PAYS), exact=False, ratio=Fraction(48, 70))
    # pays at rate ratio 1/2, so v_e = 10.5 and v_f = 21; truck 0's pay makes each
    # efficient. The one-truck classes come first and in the middle, the largest
    # three FPTs, whose gain 10.5 > 0 blocks some picks of a row but not all
    @example(fleet=((E, E, F, F, F, E, E), (21.5, 10.5, 10.5, 10.5, 10.5, 10.0, 21.0)),
             exact=True, ratio=Fraction(1, 2))
    @example(fleet=((E, F, F, E), (-8.5, 20.0, 20.0, 21.0)), exact=True, ratio=Fraction(1, 2))
    # every class one truck, the largest last
    @example(fleet=((F, F, F, E, F, E), (-4.5, 28.5, 0.0, 21.0, 21.0, 28.5)), exact=True,
             ratio=Fraction(1, 2))
    # the largest class two ETs paid 10.5 over their saving (gain < 0): a row blocks at
    # its first pick of them and not its second
    @example(fleet=((F, F, E, E, E, F, E), (-7.0, 27.5, -6.0, 27.5, 21.0, 10.5, 21.0)),
             exact=True, ratio=Fraction(1, 2))
    # the largest class two ETs paid their saving (gain 0). Truck 0 alone, an FPT paid
    # 0, gains nothing; with any of those ETs, one of which then leads, it blocks
    @example(fleet=((F, F, E, F, E, E), (0.0, 21.0, 10.5, 21.0, 10.5, 21.0)), exact=True,
             ratio=Fraction(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_verdicts_count_every_exact_excess(self, fleet, exact, ratio):
        # the whole report: pairs in ascending order, each a Composition and an
        # int count > 0, and the probability, as both exact twins give them
        types, pays = fleet
        num = Fraction if exact else float
        eps_f = num(Fraction(7, 100))
        params = SavingsParams(eps_f, eps_f * num(ratio), num(300))
        total = coalition_value(Fleet(types).composition(), params)
        pays = [num(pay) for pay in pays]
        pays[0] = total - (sum(pays[1:]) if exact else math.fsum(pays[1:]))  # makes it efficient
        alloc = Allocation(tuple(pays), 0, scheme="test")
        try:
            report = in_core(alloc, Fleet(types), params)
        except NotEfficient:  # cancelling pays whose float sum misses v(N)
            assume(False)
        assert report == _twin_report(types, pays, params)
        assert type(report.is_member) is bool
        assert all(type(comp) is Composition and type(count) is int and count > 0
                   for comp, count in report.blocking_coalitions)
        assert in_core(alloc, Fleet(types), params, method="slow") == report

    @pytest.mark.parametrize("case", ["positive gain", "negative gain",
                                      "no pick of the largest class", "zero gain"])
    def test_an_excess_of_exactly_the_tolerance_never_blocks(self, case):
        # exact rates and pays, so that some subsets gain exactly the tolerance t
        params = SavingsParams(Fraction(1), Fraction(1, 2), Fraction(1))
        t = Fraction(params.money_tol())
        if case == "positive gain":  # the first ET and 2 FPTs gain t, and 3 FPTs 2t
            types, pays, ties = (E, E, F, F, F), (t, Fraction(1, 2) + 2 * t) + (1 - t,) * 3, (1, 2)
        elif case == "negative gain":  # ET + 2 FPTs gain t, ET + 1 FPT 2t and the ET 3t
            types, pays, ties = (E, F, F, F), (-3 * t,) + (1 + t,) * 3, (1, 2)
        elif case == "no pick of the largest class":  # the ET alone gains t
            types, pays, ties = (E, F, F, F), (-t,) + ((3 + t) / 3,) * 3, (1, 0)
        else:  # the ETs are paid their saving: the first FPT and any ETs gain t
            half = Fraction(1, 2)
            types, pays, ties = (F, F, E, E, E), (half - t, 1 + t) + (half,) * 3, (3, 1)
        assert sum(pays) == coalition_value(Fleet(types).composition(), params)
        blocking = _exact_blocking(types, pays, params)
        assert ties not in dict(blocking)
        assert len(blocking) == {"positive gain": 1, "negative gain": 2}.get(case, 0)
        for method in ("auto", "slow"):
            report = in_core(Allocation(pays, 0, scheme="test"), Fleet(types), params, method)
            assert report.blocking_coalitions == blocking

    def test_int_and_float_params_of_one_value_give_one_report(self):
        exact = SavingsParams(7, 3, EXACT_DISTANCE)
        twin = SavingsParams(7.0, 3.0, float(EXACT_DISTANCE))
        assert exact == twin and exact.money_tol() == twin.money_tol()
        fleet = Fleet((TruckType.ELECTRIC, TruckType.FUEL, TruckType.FUEL))
        alloc = Allocation(EXACT_PAYS, 0, scheme="test")
        report = in_core(alloc, fleet, twin)
        assert report.is_member
        for params in (exact, twin):
            for method in ("auto", "slow"):
                assert in_core(alloc, fleet, params, method) == report
        small = Fleet.from_composition(Composition(2, 3))
        reports = {in_core(even_split(small, params), small, params)
                   for params in (SavingsParams(7, 3, 11), SavingsParams(7.0, 3.0, 11.0))}
        assert len(reports) == 1


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
        # a 64-truck scan could never allocate even its 2^32-entry halves; the cap
        # must come first (the oracle is loaded before tracing, so only the call counts)
        params = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                               max_platoon_size=size)
        fleet = Fleet.from_composition(Composition(2, size - 2))
        alloc = even_split(fleet, params)
        tracemalloc.start()
        try:
            with pytest.raises(FleetTooLarge,
                               match=f"^labeled scan capped at {LABELED_SCAN_MAX_FLEET} trucks$"):
                in_core(alloc, fleet, params, method="slow")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        pay = list(alloc.payoffs)
        pay[2], pay[3] = pay[2] + 1.0, pay[3] - 1.0
        skewed = Allocation(tuple(pay), alloc.leader_id, scheme="test")
        relabeled = Allocation(tuple(pay[::-1]), size - 1 - alloc.leader_id, scheme="test")
        assert (in_core(relabeled, Fleet(fleet.types[::-1]), params)
                == in_core(skewed, fleet, params))

    @pytest.mark.parametrize("method", ["auto", "slow"])
    @pytest.mark.parametrize("types", [(), (E,), (F,)], ids=["empty", "one ET", "one FPT"])
    def test_fleets_with_no_proper_subset_are_in_the_core(self, params, types, method):
        # no proper subset, so nothing blocks: the empty fleet gives the class scan
        # no payoff class at all, and one truck is worth nothing alone
        alloc = Allocation((0.0,) * len(types), leader_id=0, scheme="test")
        report = in_core(alloc, Fleet(types), params, method)
        assert report == stability.CoreReport(True, (), 1.0)
        assert type(report.is_member) is bool

    def test_binomial_rows(self):
        for m in range(401):
            assert stability._binomials(m) == tuple(math.comb(m, k) for k in range(m + 1))

    @pytest.mark.parametrize("size", [stability.CLASS_SCAN_CAP_BITS + 1, 64])
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
    classes = _flagged(Counter(zip(fleet.types, alloc.payoffs)))
    return sum(stability._violations(classes, fleet.size, params)[0])


def _expected(alloc, fleet, params):
    """A table point's reading, from the per-truck allocation and the class scan,
    which sums the classes in one order whatever the roster's."""
    classes = Counter(zip(fleet.types, alloc.payoffs))
    return classes, sum(stability._violations(_flagged(classes), fleet.size, params)[0])


def _read(scan, t):
    """``scan.at(t)`` with its payoff classes tallied by (truck type, pay)."""
    classes, count = scan.at(t)
    tally = Counter()
    for truck_type, pay, size in classes:
        tally[truck_type, pay] += size
    return tally, count


def _counted_classes(comp, leader):
    """The classes (e, f) a table counts, with their labeled subset counts: those
    of the trucks but ``leader``'s, bar the empty class and the whole fleet."""
    m_e, m_f = comp.n_e - (leader is E), comp.n_f - (leader is F)
    return [((e, f), math.comb(m_e, e) * math.comb(m_f, f))
            for e in range(m_e + 1) for f in range(m_f + 1) if 0 < e + f < comp.total()]


def _exact_counter(table, leader):
    """The count ``table.at(t)`` must read, as a function of t: a counted class
    blocks if its excess v(S) - x(S) passes the table's tolerance, recounted
    class by class in ints over one denominator q of the float inputs' values.
    The point's first class is the leader's, if ``leader`` names its type;
    with no leader the ET rate is that of rate ratio t. Each class's v(S)/d is
    a*eps_e + b*eps_f, its (e, f, a, b) worked out once per table."""
    params = table.params
    fixed = [Fraction(x) for x in (params.epsilon_f, params.distance, params.money_tol())]
    rows = [(e, f, max(e - 1, 0), f if e else f - 1, count)
            for (e, f), count in _counted_classes(table.comp, leader)]

    def count(t):
        classes, _ = table.at(t)
        pays = {truck_type: pay for truck_type, pay, _ in classes[leader is not None:]}
        ee = params.epsilon_e if leader else t * params.epsilon_f
        values = [Fraction(x) for x in (ee, pays.get(E, 0), pays.get(F, 0))] + fixed
        q = math.lcm(*(v.denominator for v in values))
        ee, pay_e, pay_f, ef, dist, tol = (int(v * q) for v in values)
        # each side times q^2
        return sum(c for e, f, a, b, c in rows
                   if dist * (a * ee + b * ef) > q * (e * pay_e + f * pay_f + tol))
    return count


def _exact_roots(comp, params, leader):
    """Each counted class's root, in Fractions with the pays unrounded: where its
    excess crosses the tolerance along xi (with ``leader``), or along the rate
    ratio (without)."""
    ee, ef, dist, tol = map(Fraction, (params.epsilon_e, params.epsilon_f, params.distance,
                                       params.money_tol()))
    n_e, n_f = comp
    n = n_e + n_f

    def excess(e, f, t):
        if leader:
            rate_e, pay_e, pay_f = ee, (1 - t) * ee, (1 - t) * ef
        else:
            rate_e = t * ef
            pay_e = (1 - Fraction(1, n_e)) * rate_e + Fraction(n_f, n * n_e) * ef if n_e else 0
            pay_f = (1 - Fraction(1, n)) * ef
        return dist * (game.rate_for_counts(e, f, rate_e, ef) - e * pay_e - f * pay_f) - tol

    roots = set()
    for (e, f), _ in _counted_classes(comp, leader):
        at0, at1 = excess(e, f, 0), excess(e, f, 1)
        if at0 != at1:
            roots.add(at0 / (at0 - at1))
    return roots


def _probes(roots):
    """Each root as a float, and its float neighbours."""
    points = set()
    for root in roots:
        t = float(root)
        points |= {t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)}
    return points


class TestBreakpoints:
    """Each sweep table read is the exact count of the subsets blocking its point."""

    @given(data=st.data(), comp=compositions, eps_f=fuel_rates, ratio=rate_ratios,
           distance=distances, k=st.integers(-6, 9),
           xis=st.lists(leader_shares, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_leader_share_family(self, data, comp, eps_f, ratio, distance, k, xis):
        # each read at a class's root, next to it or at a random xi is the exact
        # count; at the random xis, off every root, it is also the per-truck
        # allocation's classes and the class scan's count, on a permuted roster
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=ratio * eps_f,
                               distance=distance * 10.0 ** k)
        fleet = Fleet(tuple(data.draw(st.permutations(
            Fleet.from_composition(Composition(*comp)).types))))
        comp = fleet.composition()
        leader = game.optimal_leader_type(comp)
        scan = stable_table(comp, params)
        exact = _exact_counter(scan, leader)
        for xi in sorted(_probes(_exact_roots(comp, params, leader)) | set(xis)):
            if 0.0 < xi <= 1.0:
                assert scan.at(xi)[1] == exact(xi)
        for xi in xis:
            alloc = stable_allocation(fleet, params, xi)
            assert _read(scan, xi) == _expected(alloc, fleet, params)

    @given(data=st.data(), comp=compositions, eps_f=fuel_rates, distance=distances,
           k=st.integers(-6, 9), ratios=st.lists(rate_ratios, min_size=1, max_size=5))
    @example(data=None, comp=(0, 5), eps_f=0.07, distance=300.0, k=0, ratios=[0.3, 0.9])
    @example(data=None, comp=(5, 0), eps_f=0.07, distance=300.0, k=0, ratios=[0.3, 0.9])
    @settings(max_examples=150, deadline=None)
    def test_electric_rate_family(self, data, comp, eps_f, distance, k, ratios):
        # as along xi, at the rate ratio's roots and random ratios; there the
        # per-truck allocation is shapley_allocation's at epsilon_e = r*epsilon_f.
        # A single-type fleet's point has no pay for its absent type; an example
        # draws no roster order, which a single-type fleet does not have
        base = SavingsParams(epsilon_f=eps_f, epsilon_e=0.5 * eps_f,
                             distance=distance * 10.0 ** k)
        types = Fleet.from_composition(Composition(*comp)).types
        fleet = Fleet(tuple(data.draw(st.permutations(types)) if data else types))
        comp = fleet.composition()
        scan = shapley_table(comp, base)
        exact = _exact_counter(scan, None)
        for r in sorted(_probes(_exact_roots(comp, base, None)) | set(ratios)):
            if 0.0 < r * eps_f < eps_f:  # the table's own rate
                assert scan.at(r)[1] == exact(r)
        for r in ratios:
            params = base._replace(epsilon_e=r * eps_f)
            alloc = shapley_allocation(fleet, params)
            assert _read(scan, r) == _expected(alloc, fleet, params)

    @pytest.mark.parametrize("table", [stable_table, shapley_table],
                             ids=["stable_table", "shapley_table"])
    def test_exact_params_read_exact_counts(self, table):
        # with Fraction rates and distance, every root is read at itself, where
        # the excess equals the tolerance and so does not block, and just off it
        params = SavingsParams(Fraction(7, 100), Fraction(6, 125), Fraction(300))
        comp = Composition(3, 12)
        leader = game.optimal_leader_type(comp) if table is stable_table else None
        scan = table(comp, params)
        eps = Fraction(1, 10**12)
        points = {t + d for t in _exact_roots(comp, params, leader) for d in (-eps, 0, eps)}
        readings = [(t, scan.at(t)[1]) for t in sorted(points) if 0 < t < 1]
        assert readings == [(t, _exact_counter(scan, leader)(t)) for t, _ in readings]
        assert len({count for _, count in readings}) > 2

    def test_reads_the_thresholds_away_from_them(self, monkeypatch, params):
        fleet = Fleet.from_composition(Composition(3, 12))
        scan = stable_table(fleet.composition(), params)
        expected = [_blocking(stable_allocation(fleet, params, xi), fleet, params)
                    for xi in (0.01, 0.1, 0.5)]
        monkeypatch.setattr(stability, "_violations", None)  # no table scans classes
        assert [scan.at(xi)[1] for xi in (0.01, 0.1, 0.5)] == expected
        assert scan.probability(0.5) < 1.0
        assert expected[0] == 0 < expected[1]

    @pytest.mark.parametrize("comp", [Composition(4, 0), Composition(2, 3)],
                             ids=["single-type", "mixed"])
    def test_type_fair_tables_read_ratios_in_their_domain(self, comp, params):
        # a type-fair table reads rate ratios in (0, 1], where its one money
        # tolerance, that of ratio 1, holds; any other ratio raises, whatever
        # the fleet. At ratio 1 a mixed fleet breaks the closed form's order
        scan = shapley_table(comp, params)
        for r in (-0.4, 0.0, 1.5, math.nan):
            with pytest.raises(InvalidInput, match=r"^rate ratio must be in \(0, 1\], got"):
                scan.at(r)
        if comp.n_f:
            with pytest.raises(EpsilonOrderError):
                scan.at(1.0)
        else:
            assert scan.at(1.0)[1] == 0

    @pytest.mark.parametrize("epsilon_e", [0.048, 0.07, 0.09], ids=["below", "equal", "above"])
    def test_type_fair_tables_read_only_epsilon_f(self, epsilon_e, params):
        # a type-fair table's rates are (r*epsilon_f, epsilon_f) whatever the
        # params' epsilon_e: it reads as the table of the params at ratio 1,
        # which it reuses when the params are at ratio 1 and copies otherwise
        params = params._replace(epsilon_e=epsilon_e)
        at_one = params._replace(epsilon_e=params.epsilon_f)
        for comp in (Composition(2, 3), Composition(7, 8), Composition(4, 0), Composition(0, 5)):
            scan, reference = shapley_table(comp, params), shapley_table(comp, at_one)
            assert (scan.params is params) == (epsilon_e == params.epsilon_f)
            assert scan.params == at_one
            assert [scan.at(r) for r in _RATIO_GRID] == [reference.at(r) for r in _RATIO_GRID]

    @pytest.mark.parametrize("table", [stable_table, shapley_table],
                             ids=["stable_table", "shapley_table"])
    def test_fleet_checks(self, table, params):
        for comp in (Composition(0, 0), Composition(0, 1)):
            with pytest.raises(FleetTooSmall):
                table(comp, params)
        with pytest.raises(FleetTooLarge):
            table(Composition(8, 8), params)

    @pytest.mark.parametrize("epsilon_e", [0.048, 0.08])  # with and without a bound
    def test_leader_subsets_left_out(self, epsilon_e, params):
        # the table holds only subsets without the leader; the count is the
        # exact one and the full scan's at the smallest xi, tiny ones and the
        # largest. Near xi = 0, 0.07*300 rounds above the exact saving, so each
        # FPT follower is paid more than it brings: a slope below zero
        params = params._replace(epsilon_e=epsilon_e)
        for xi in (5e-324, 1e-17):
            _, pay_f = allocate._follower_pays(params, xi)
            assert Fraction(params.distance) * Fraction(params.epsilon_f) < Fraction(pay_f)
        for n in range(2, 16):
            for n_e in range(n + 1):
                roster = Fleet.from_composition(Composition(n_e, n - n_e))
                scan = stable_table(roster.composition(), params)
                exact = _exact_counter(scan, game.optimal_leader_type(roster.composition()))
                for xi in (5e-324, 1e-17, 1e-12, 1.0):
                    assert scan.at(xi)[1] == exact(xi)
                    for fleet in (roster, Fleet(roster.types[::-1])):  # leader at 0, at n_f
                        alloc = stable_allocation(fleet, params, xi)
                        assert _read(scan, xi) == _expected(alloc, fleet, params)

    @pytest.mark.parametrize("change, code", [
        # epsilon_f*distance and epsilon_e*distance exact: near xi = 0 each
        # follower is paid exactly its saving, so slope and step are 0
        ({"epsilon_f": 0.5, "epsilon_e": 0.25, "distance": 4.0}, 0),
        # a subnormal rate: fig6 reads 1 ET + 14 FPT, then refuses the grid of 2 + 13
        ({"epsilon_e": 1e-320}, 3),
    ], ids=["exact-savings", "subnormal-rate"])
    def test_flat_slopes(self, change, code, params, tmp_path, capsys):
        params = params._replace(**change)
        for comp in (Composition(0, 2), Composition(1, 1), Composition(3, 12)):
            leader = game.optimal_leader_type(comp)
            scan = stable_table(comp, params)
            for xi in (5e-324, 1e-17, 0.5, 1.0):
                assert scan.at(xi)[1] == _exact_counter(scan, leader)(xi)
        out = tmp_path / "fig6.csv"
        flags = [arg for name, value in change.items()
                 for arg in (f"--{name.replace('_', '-')}", repr(value))]
        assert main(["sweep", "fig6", *flags, "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: XiOutOfRange: " if code else "")

    @given(sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)), leader=st.booleans(),
           ints=st.tuples(st.integers(-40, -1), *[st.integers(-40, 40)] * 3))
    @settings(max_examples=300, deadline=None)
    def test_row_count_matches_every_class(self, sizes, leader, ints):
        # the kernel alone, on small ints: c0 < 0, and c_e = c1 + (e - 1)*step,
        # each sign of step and slope; the brute force visits every counted class
        m_e, m_f = sizes
        c0, c1, step, slope = ints
        assume(leader or m_e + m_f >= 1)
        comp = Composition(m_e + leader, m_f)
        table = stability.SweepTable(comp, SavingsParams(0.07, 0.048, 300.0, 20), None,
                                     E if leader else None)
        expected = sum(count for (e, f), count in _counted_classes(comp, E if leader else None)
                       if (c1 + (e - 1) * step if e else c0) + f * slope > 0)
        assert table._count(c0, c1, step, slope) == expected

    @pytest.mark.parametrize("fine", ["ET", "FPT"])
    def test_fine_pays_rescale_the_table(self, fine):
        # d*epsilon_e = 1, d*epsilon_f = 2, and the leader's pay absorbs the
        # rest. A class of 1 ET and 1 FPT has excess err - fine pay, err the
        # rounding error of the other follower's float pay, 2 - tol; the fine
        # pay is err's float neighbour across it, a denominator finer than the
        # table's, so it alone decides whether that class blocks
        params = SavingsParams(0.5, 0.25, 4.0)
        comp, tol = Composition(2, 2), params.money_tol()
        coarse = 2.0 - tol
        err = 2 - Fraction(tol) - Fraction(coarse)
        assert err != 0
        pay = math.nextafter(float(err), math.inf if err > 0 else -math.inf)

        def table(pay):
            pay_e, pay_f = (pay, coarse) if fine == "ET" else (coarse, pay)
            total = coalition_value(comp, params)
            pays = (total - pay_e - 2 * pay_f, pay_e, pay_f)
            return stability.SweepTable(comp, params, lambda t: pays, E)

        scan = table(pay)
        assert scan.at(0.5)[1] == _exact_counter(scan, E)(0.5)
        assert scan.at(0.5)[1] != table(0.0).at(0.5)[1]  # the fine pay decides

    @pytest.mark.parametrize("epsilon_f", [0.07, 0.5])  # rate ratio test holds, fails
    def test_type_fair_table_keeps_every_class(self, epsilon_f, params):
        # no truck is left out: each read at a root of any class but the empty
        # and full ones, or next to it, is the exact count over all of them
        params = params._replace(epsilon_f=epsilon_f)
        for n in range(2, 16):
            for n_e in range(1, n):
                comp = Composition(n_e, n - n_e)
                scan = shapley_table(comp, params)
                exact = _exact_counter(scan, None)
                for r in _probes(_exact_roots(comp, params, None)):
                    if 0.0 < r * epsilon_f < epsilon_f:
                        assert scan.at(r)[1] == exact(r)

    def test_leader_subsets_count_toward_the_cap(self, params, monkeypatch):
        # 2 * 1000 * 701 classes with the leader's, 1000 * 701 without: over 2^20
        big = params._replace(max_platoon_size=1700)
        with pytest.raises(FleetTooLarge, match="subset classes"):
            stable_table(Composition(1000, 700), big)
        # at a cap of 2^5, 2 * 2 * 8 classes fit and 2 * 2 * 9 do not
        monkeypatch.setattr(stability, "CLASS_SCAN_CAP_BITS", 5)
        stable_table(Composition(2, 7), params)
        with pytest.raises(FleetTooLarge, match="2\\^5 subset classes"):
            stable_table(Composition(2, 8), params)

    def test_not_efficient_raises(self, params, comp23):
        # 2 ETs and 3 FPTs paid 1.0 each fall short of v(N)
        scan = stability.SweepTable(comp23, params, lambda t: (None, 1.0, 1.0))
        with pytest.raises(NotEfficient):
            scan.at(0.1)

    def test_efficiency_checked_at_every_point(self, params, comp23):
        # a table holds v(N) along its family, yet checks every point against
        # it at its one money tolerance: a later point short by 2 money_tol fails
        total = coalition_value(comp23, params)
        short = {0.1: 0.0, 0.2: 2 * params.money_tol()}
        scan = stability.SweepTable(comp23, params, lambda t: (
            None, (total - short[t]) / 5, (total - short[t]) / 5))
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

    def test_tables_share_each_rates_params(self, params, comp23, monkeypatch):
        # tables of params at ratio 1, epsilon_e = epsilon_f, as fig5's run
        # holds, share those params and build none; other params build their
        # copy at ratio 1 once per table. Reads at a ratio build none
        comps = [comp23, Composition(3, 4)]
        ratio, at_one = 0.4, params._replace(epsilon_e=params.epsilon_f)
        expected = [shapley_table(comp, params).at(ratio) for comp in comps]
        built = []
        check = SavingsParams._check
        monkeypatch.setattr(SavingsParams, "_check",
                            lambda self: built.append(self) or check(self))
        scans = [shapley_table(comp, at_one) for comp in comps]
        assert built == [] and all(scan.params is at_one for scan in scans)
        assert [scan.at(ratio) for scan in scans] == expected
        assert [scan.at(ratio) for scan in scans] == expected
        assert built == []
        for scan in scans:  # a ratio the family refuses is refused at every read
            with pytest.raises(InvalidInput, match=r"^rate ratio must be in \(0, 1\]"):
                scan.at(-ratio)
        assert built == []
        for comp in comps:
            shapley_table(comp, params)
        assert built == [at_one, at_one]

    def test_type_fair_tables_name_rate_ratio_one(self):
        # valid params, but at rate ratio 1 the money tolerance underflows
        params = SavingsParams(1e-320, 0.048, 300.0, 10**30)
        with pytest.raises(InvalidInput, match=(
                r"^epsilon_f x distance is too small for a money tolerance at rate ratio 1, "
                r"the tolerance of every table$")):
            shapley_table(Composition(4, 2), params)

    def test_fig5_validates_params_per_table_not_per_point(self, monkeypatch, tmp_path):
        # size 40: 39 tables of 19 points each validate no params of their
        # own; the run's, built by the config at epsilon_e = epsilon_f, the
        # rate ratio 1 that every table reads, are the only ones
        built = []
        check = SavingsParams._check
        monkeypatch.setattr(SavingsParams, "_check",
                            lambda self: built.append(self) or check(self))
        out = tmp_path / "fig5.csv"
        assert main(["sweep", "fig5", "--max-platoon-size", "40", "--out", str(out)]) == 0
        assert len(built) == 1
        assert all(at.epsilon_e == at.epsilon_f for at in built)

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
