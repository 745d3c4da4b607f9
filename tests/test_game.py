import csv
import io
import tokenize
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platoonshare
from platoonshare import (
    Composition,
    DeviationPoint,
    Fleet,
    FleetTooLarge,
    FleetTooSmall,
    InvalidPartition,
    SavingsParams,
    TruckType,
    coalition_value,
    enumerate_type_structures,
    in_core,
    optimal_leader_type,
    oracles,
    shapley_allocation,
)
from platoonshare.cli import _csv_text, main, money
from platoonshare.game import block_notation
from platoonshare.oracles import (
    check_superadditivity,
    coalition_value_with_leader,
    labeled_partitions,
    structure_value,
)

# Expected totals for the (2,3) fleet at the default rates, in canonical order.
TABLE_TOTALS = [77.4, 56.4, 63.0, 56.4, 63.0, 56.4, 42.0, 42.0,
                35.4, 42.0, 42.0, 35.4, 21.0, 21.0, 14.4, 0.0]


class TestCoalitionValue:
    def test_mixed_grand_coalition(self, params):
        assert coalition_value(Composition(2, 3), params) == pytest.approx(77.4, abs=1e-6)

    def test_all_fuel(self, params):
        assert coalition_value(Composition(0, 3), params) == pytest.approx(42.0, abs=1e-6)

    def test_empty_and_singleton(self, params):
        assert coalition_value(Composition(0, 0), params) == 0.0
        assert coalition_value(Composition(1, 0), params) == 0.0
        assert coalition_value(Composition(0, 1), params) == 0.0

    def test_all_electric_pair(self, params):
        assert coalition_value(Composition(2, 0), params) == pytest.approx(14.4, abs=1e-6)

    def test_depends_only_on_composition(self, params, fleet23):
        # {0,2,3} and {1,3,4} are both one ET + two FPTs
        a = fleet23.subset_composition({0, 2, 3})
        b = fleet23.subset_composition({1, 3, 4})
        assert a == b
        assert coalition_value(a, params) == coalition_value(b, params)


class TestLeaderSelection:
    def test_electric_leads_when_present(self):
        assert optimal_leader_type(Composition(2, 3)) is TruckType.ELECTRIC

    def test_fuel_leads_otherwise(self):
        assert optimal_leader_type(Composition(0, 3)) is TruckType.FUEL

    def test_empty_has_no_leader(self):
        assert optimal_leader_type(Composition(0, 0)) is None

    @pytest.mark.parametrize("n_e,n_f", [(1, 1), (2, 3), (5, 4), (1, 9)])
    def test_electric_lead_gains_rate_difference(self, params, n_e, n_f):
        comp = Composition(n_e, n_f)
        et_led = coalition_value_with_leader(comp, TruckType.ELECTRIC, params)
        fpt_led = coalition_value_with_leader(comp, TruckType.FUEL, params)
        gain = (params.epsilon_f - params.epsilon_e) * params.distance
        assert et_led - fpt_led == pytest.approx(gain, abs=1e-9)
        assert coalition_value(comp, params) == pytest.approx(et_led, abs=1e-12)

    def test_forced_leader_of_an_empty_coalition(self, params):
        for leader in TruckType:
            assert coalition_value_with_leader(Composition(0, 0), leader, params) == 0.0

    @pytest.mark.parametrize("comp, leader", [
        (Composition(0, 3), TruckType.ELECTRIC), (Composition(2, 0), TruckType.FUEL),
    ])
    def test_forced_leader_must_be_present(self, params, comp, leader):
        with pytest.raises(ValueError, match="to lead"):
            coalition_value_with_leader(comp, leader, params)


class TestStructureValue:
    def test_two_platoon_split(self, params, fleet23):
        # ETs are ids 0-1, FPTs are ids 2-4
        blocks = [frozenset({0, 1}), frozenset({2, 3, 4})]
        assert structure_value(blocks, fleet23, params) == pytest.approx(56.4, abs=1e-6)

    def test_all_singletons(self, params, fleet23):
        blocks = [frozenset({i}) for i in range(5)]
        assert structure_value(blocks, fleet23, params) == 0.0

    def test_grand_coalition(self, params, fleet23):
        assert structure_value([frozenset(range(5))], fleet23, params) == pytest.approx(
            77.4, abs=1e-6
        )

    def test_overlap_rejected(self, params, fleet23):
        with pytest.raises(InvalidPartition):
            structure_value([frozenset({0, 1}), frozenset({1, 2, 3, 4})], fleet23, params)

    def test_empty_block_rejected(self, params, fleet23):
        with pytest.raises(InvalidPartition, match="empty block"):
            structure_value([frozenset(range(5)), frozenset()], fleet23, params)

    def test_incomplete_cover_rejected(self, params, fleet23):
        with pytest.raises(InvalidPartition):
            structure_value([frozenset({0, 1})], fleet23, params)

    def test_grand_coalition_is_unique_maximum(self, params, comp23, fleet23):
        totals = [
            sum(coalition_value(b, params) for b in blocks)
            for blocks in enumerate_type_structures(comp23)
        ]
        grand = coalition_value(comp23, params)
        assert totals[0] == pytest.approx(grand, abs=1e-9)
        assert all(t < grand - 1e-6 for t in totals[1:])


def _dedup_count(n_e, n_f):
    """Independent oracle: labeled set partitions, then type-level dedup."""
    types = ["E"] * n_e + ["D"] * n_f
    seen = set()
    for part in labeled_partitions(list(range(len(types)))):
        key = tuple(sorted(
            (sum(1 for i in b if types[i] == "E"), sum(1 for i in b if types[i] == "D"))
            for b in part
        ))
        seen.add(key)
    return len(seen)


def reference_structures(comp):
    """Reference enumerator: every non-increasing block sequence, each node
    trying every block of its remainder, then sorted by the table key."""
    results = []

    def extend(rem_e, rem_f, min_key, acc):
        if rem_e == 0 and rem_f == 0:
            results.append(tuple(acc))
            return
        for b_e in range(rem_e + 1):
            for b_f in range(rem_f + 1):
                if b_e + b_f == 0:
                    continue
                key = (-(b_e + b_f), -b_e)
                if key < min_key:  # keep blocks non-increasing: no duplicates
                    continue
                acc.append(Composition(b_e, b_f))
                extend(rem_e - b_e, rem_f - b_f, key, acc)
                acc.pop()

    extend(comp.n_e, comp.n_f, (-comp.total(), -comp.n_e), [])
    results.sort(key=partition_sort_key)
    return results


def partition_sort_key(blocks):
    # fewer blocks first, larger smallest block first, then larger blocks
    # first, then fewer electric trucks in the leading blocks first
    sizes = tuple(b.total() for b in blocks)
    return (len(blocks), -min(sizes), tuple(-s for s in sizes),
            tuple(b.n_e for b in blocks))


def reference_table1(comp, params):
    """Reference ``table1`` text: each block valued and rendered per row."""
    def notation(blocks):
        ordered = sorted(blocks, key=lambda b: (b.total(), -b.n_e))
        return ",".join(block_notation(b) for b in ordered)

    return _csv_text(
        "# columns: case_index, structure (platoon blocks), total_benefit [EUR]",
        ["case_index", "structure", "total_benefit"],
        ([idx, notation(blocks), money(sum(coalition_value(b, params) for b in blocks))]
         for idx, blocks in enumerate(reference_structures(comp), start=1)),
    )


# all 65 compositions of 1 to 10 trucks, the sizes table1 accepts
TABLE_COMPOSITIONS = [Composition(n_e, n - n_e) for n in range(1, 11) for n_e in range(n + 1)]


class TestEnumerateTypeStructures:
    def test_mixed_five_truck_count(self, comp23):
        assert len(enumerate_type_structures(comp23)) == 16

    def test_singleton(self):
        assert enumerate_type_structures(Composition(1, 0)) == [(Composition(1, 0),)]

    def test_empty_rejected(self):
        with pytest.raises(FleetTooSmall, match="need at least one truck"):
            enumerate_type_structures(Composition(0, 0))

    def test_ten_trucks_is_the_cap(self):
        assert len(enumerate_type_structures(Composition(4, 6))) == 323

    def test_cap_comes_before_the_walk(self):
        # 6 ET + 5 FPT would build 589 structures; the refusal allocates none
        tracemalloc.start()
        try:
            with pytest.raises(FleetTooLarge,
                               match="^structure table capped at 10 trucks, got 11$"):
                enumerate_type_structures(Composition(6, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("n_e,n_f", [(2, 2), (2, 3), (1, 4), (3, 3), (0, 5), (4, 0)])
    def test_count_matches_labeled_dedup_oracle(self, n_e, n_f):
        got = len(enumerate_type_structures(Composition(n_e, n_f)))
        assert got == _dedup_count(n_e, n_f)

    def test_count_matches_oracle_for_all_small_fleets(self):
        for n in range(1, 9):
            for n_e in range(0, n + 1):
                got = len(enumerate_type_structures(Composition(n_e, n - n_e)))
                assert got == _dedup_count(n_e, n - n_e), (n_e, n - n_e)

    def test_structures_are_partitions(self, comp23):
        for blocks in enumerate_type_structures(comp23):
            assert sum(b.n_e for b in blocks) == comp23.n_e
            assert sum(b.n_f for b in blocks) == comp23.n_f
            assert all(b.total() >= 1 for b in blocks)

    def test_canonical_order_totals(self, params, comp23):
        totals = [
            sum(coalition_value(b, params) for b in blocks)
            for blocks in enumerate_type_structures(comp23)
        ]
        assert totals == pytest.approx(TABLE_TOTALS, abs=1e-6)

    def test_notation_of_first_rows(self, tmp_path):
        out_path = tmp_path / "table.csv"
        assert main(["table1", "--ne", "2", "--nf", "3", "--out", str(out_path)]) == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            notations = [row[1] for row in csv.reader(fh)][2:]
        assert notations[0] == "(EEDDD)"
        assert notations[1] == "(EE),(DDD)"
        assert notations[-1] == "(E),(E),(D),(D),(D)"

    def test_matches_reference_enumerator(self):
        for comp in TABLE_COMPOSITIONS:
            assert enumerate_type_structures(comp) == reference_structures(comp), comp

    @pytest.mark.parametrize("flags,changes", [
        ([], {}),
        (["--epsilon-e", "0.09", "--epsilon-f", "0.07"], {"epsilon_e": 0.09, "epsilon_f": 0.07}),
        (["--distance", "1e-3"], {"distance": 1e-3}),
    ])
    def test_table1_matches_reference_bytes(self, flags, changes, params, capsys):
        params = params._replace(**changes)
        for comp in TABLE_COMPOSITIONS:
            assert main(["table1", "--ne", str(comp.n_e), "--nf", str(comp.n_f), *flags]) == 0
            assert capsys.readouterr().out == reference_table1(comp, params), comp

    def test_pair_fleet(self, params):
        structures = enumerate_type_structures(Composition(1, 1))
        assert len(structures) == 2
        values = [sum(coalition_value(b, params) for b in blocks) for blocks in structures]
        assert values[0] == pytest.approx(params.epsilon_f * params.distance, abs=1e-9)
        assert values[1] == 0.0


class TestLabeledPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
    def test_bell_numbers(self, n, bell):
        assert sum(1 for _ in labeled_partitions(list(range(n)))) == bell


class TestSuperadditivity:
    def test_mixed_default(self, params, comp23):
        assert check_superadditivity(comp23, params) == []

    def test_two_fuel_trucks(self, params):
        assert check_superadditivity(Composition(0, 2), params) == []

    @pytest.mark.parametrize("loss, found", [
        (2e-9, [(Composition(0, 1), Composition(0, 1))]),
        (1e-9, []),  # a loss of exactly the tolerance is no violation
    ])
    def test_finds_a_merge_that_loses(self, loss, found, monkeypatch):
        # a subadditive valuation: two fuel trucks are worth 0.5 each alone and
        # 1 - loss together, at a distance of 1 and a money tolerance of 1e-9
        def subadditive(n_e, n_f, epsilon_e, epsilon_f):
            return 0.5 * n_f if n_f < 2 else 1.0 - loss

        monkeypatch.setattr(oracles, "rate_for_counts", subadditive)
        params = SavingsParams(epsilon_f=1.0, epsilon_e=0.5, distance=1.0)
        assert params.money_tol() == 1e-9
        assert check_superadditivity(Composition(0, 2), params) == found

    @given(
        n_e=st.integers(0, 6),
        n_f=st.integers(0, 6),
        num_e=st.integers(1, 59),
        num_f=st.integers(2, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_violated_with_ordered_rates(self, n_e, n_f, num_e, num_f):
        if num_e >= num_f:
            num_e, num_f = num_f - 1, num_f
        eps_e, eps_f = Fraction(num_e, 100), Fraction(num_f, 100)
        params = SavingsParams(epsilon_f=float(eps_f), epsilon_e=float(eps_e), distance=250.0)
        comp = Composition(n_e, n_f)
        assert check_superadditivity(comp, params) == []
        # exact-arithmetic re-check of the same enumeration
        def v(a_e, a_f):
            if a_e >= 1:
                return eps_e * (a_e - 1) + eps_f * a_f
            if a_f >= 1:
                return eps_f * (a_f - 1)
            return Fraction(0)
        for a_e in range(n_e + 1):
            for a_f in range(n_f + 1):
                for b_e in range(n_e - a_e + 1):
                    for b_f in range(n_f - a_f + 1):
                        assert v(a_e + b_e, a_f + b_f) >= v(a_e, a_f) + v(b_e, b_f)


class TestDomainTypes:
    def test_fleet_roster_order(self, comp23):
        fleet = Fleet.from_composition(comp23)
        assert fleet.size == 5
        assert fleet.types[:2] == (TruckType.ELECTRIC,) * 2
        assert fleet.composition() == comp23

    def test_fleet_is_its_roster(self, comp23):
        # the roster alone makes equality, hashing and repr; counts come from it
        types = (TruckType.FUEL, TruckType.ELECTRIC, TruckType.FUEL)
        fleet = Fleet(types)
        assert Fleet._fields == ("types",)
        assert repr(fleet) == ("Fleet(types=(<TruckType.FUEL: 'FPT'>, "
                               "<TruckType.ELECTRIC: 'ET'>, <TruckType.FUEL: 'FPT'>))")
        assert fleet == Fleet(types) and hash(fleet) == hash(Fleet(types)) == hash((types,))
        assert fleet != Fleet.from_composition(Composition(1, 2))
        assert fleet.composition() == Composition(1, 2)
        moved = fleet._replace(types=types[:2])
        assert moved.composition() == Composition(1, 1)
        assert Fleet.from_composition(comp23) == Fleet(Fleet.from_composition(comp23).types)

    def test_subset_composition_validates(self, fleet23):
        with pytest.raises(ValueError):
            fleet23.subset_composition({0, 7})

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Composition(-1, 2)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SavingsParams(epsilon_f=0.0, epsilon_e=0.048, distance=300.0)
        with pytest.raises(ValueError):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=-1.0)
        with pytest.raises(ValueError):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0, max_platoon_size=1)

    def test_params_reject_overflowing_worth(self):
        with pytest.raises(ValueError, match="finite"):
            SavingsParams(epsilon_f=10.0, epsilon_e=0.048, distance=1e308)
        with pytest.raises(ValueError, match="finite"):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=1e306,
                          max_platoon_size=10**6)
        # below a distance of 1 a rate sum overflows before any worth does
        with pytest.raises(ValueError, match="finite"):
            SavingsParams(epsilon_f=0.07, epsilon_e=1.7e308, distance=1e-12)
        assert SavingsParams(epsilon_f=0.07, epsilon_e=1e307, distance=1e-12)

    @pytest.mark.parametrize("distance", [1e-315, 1e-313, 3e-298])
    def test_params_reject_underflowing_tolerance(self, distance):
        # a subnormal money tolerance fails even exact payoff sums as inefficient
        with pytest.raises(ValueError, match="too small"):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=distance)

    def test_params_reject_cap_beyond_float_range(self):
        # an integer cap too large for a float is a ValueError, not OverflowError
        with pytest.raises(ValueError, match="finite"):
            SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0,
                          max_platoon_size=10**400)

    @pytest.mark.parametrize("field", ["epsilon_f", "epsilon_e", "distance"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_params_reject_non_finite(self, field, bad):
        values = {"epsilon_f": 0.07, "epsilon_e": 0.048, "distance": 300.0, field: bad}
        with pytest.raises(ValueError):
            SavingsParams(**values)

    @pytest.mark.parametrize("record, change", [
        (SavingsParams(0.07, 0.048, 300.0), {"distance": -1.0}),
        (SavingsParams(0.07, 0.048, 300.0), {"epsilon_e": float("nan")}),
        (SavingsParams(0.07, 0.048, 300.0), {"max_platoon_size": 1}),
        (SavingsParams(0.07, 1e307, 1e-12), {"max_platoon_size": 100}),
        (Composition(2, 3), {"n_e": -1}),
        (Composition(2, 3), {"n_f": -2}),
    ])
    def test_validated_however_built(self, record, change):
        # the constructor, _replace and _make all run the same check
        cls = type(record)
        values = record._asdict() | change
        with pytest.raises(ValueError):
            cls(**values)
        with pytest.raises(ValueError):
            record._replace(**change)
        with pytest.raises(ValueError):
            cls._make(values.values())
        assert record._replace() == record == cls._make(record)
        assert type(record._replace()) is cls

    def test_records_are_read_only(self, params, comp23, fleet23):
        alloc = shapley_allocation(fleet23, params)
        records = [params, comp23, fleet23, alloc, in_core(alloc, fleet23, params),
                   DeviationPoint(0.1, 0.2, True)]
        for record in records:
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                record.extra = 1


def test_tolerances_live_only_in_game():
    # every tolerance derives from game.REL_TOL; no module keeps its own
    package = Path(platoonshare.__file__).parent  # the modules this run imports
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "game.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        offenders += [
            f"{path.name}:{tok.start[0]}: {tok.string}"
            for tok in tokens
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
        ]
    assert offenders == []
