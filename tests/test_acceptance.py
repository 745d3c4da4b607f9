"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""

import csv
import random
import time

from platoonshare import (
    Allocation,
    Composition,
    Fleet,
    SavingsParams,
    coalition_value,
    deviation_curve,
    default_xi_grid,
    even_split,
    in_core,
    mean_relative_deviation,
    shapley_allocation,
    shapley_closed_form,
    shapley_core_condition_exact,
    shapley_core_condition_ratio,
    stable_allocation,
    stable_table,
    xi_upper_bound,
)
from platoonshare.cli import main
from platoonshare.oracles import check_superadditivity, shapley_bruteforce

DEFAULT = SavingsParams(epsilon_f=0.07, epsilon_e=0.048, distance=300.0)

EXPECTED_TOTALS = [77.4, 56.4, 63.0, 56.4, 63.0, 56.4, 42.0, 42.0,
                   35.4, 42.0, 42.0, 35.4, 21.0, 21.0, 14.4, 0.0]


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def _mixed_compositions(max_total):
    for n in range(2, max_total + 1):
        for n_e in range(1, n):
            yield Composition(n_e, n - n_e)


def _all_compositions(min_total, max_total):
    for n in range(min_total, max_total + 1):
        for n_e in range(0, n + 1):
            yield Composition(n_e, n - n_e)


def test_criterion_01_benefit_table(tmp_path):
    failures = []
    out = tmp_path / "table.csv"
    start = time.perf_counter()
    rc = main(["table1", "--ne", "2", "--nf", "3", "--epsilon-f", "0.07",
               "--epsilon-e", "0.048", "--distance", "300", "--out", str(out)])
    elapsed = time.perf_counter() - start
    if rc != 0:
        failures.append(f"exit code {rc}")
    _, rows = _read_rows(out)
    if len(rows) != 16:
        failures.append(f"{len(rows)} rows")
    totals = [float(r[2]) for r in rows]
    for i, (got, want) in enumerate(zip(totals, EXPECTED_TOTALS), start=1):
        if abs(got - want) > 0.05:
            failures.append(f"row {i}: {got} vs {want}")
    if not (totals[0] > max(totals[1:])):
        failures.append("grand coalition is not the unique maximum")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s")
    _finish(1, "benefit-table reproduction", failures)


def test_criterion_02_shapley_oracle_equivalence():
    failures = []
    start = time.perf_counter()
    for comp in _mixed_compositions(8):
        fleet = Fleet.from_composition(comp)
        for i in range(1, 10):
            params = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * i * 0.1,
                                   distance=300.0)
            phi_e, phi_f = shapley_closed_form(comp, params)
            oracle = shapley_bruteforce(fleet, params)
            per_km = 1.0 / params.distance
            for truck in range(fleet.size):
                want = phi_e if truck < comp.n_e else phi_f
                diff = abs(oracle.payoffs[truck] - want) * per_km
                if diff > 1e-9:
                    failures.append(f"{comp} ratio {i*0.1:.1f} truck {truck}: {diff}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    _finish(2, "closed-form vs brute-force Shapley", failures)


def test_criterion_03_efficiency():
    failures = []
    rng = random.Random(23)
    schemes = ("stable", "shapley", "even-split", "brute-force", "deviation-min")
    draws = 0
    while draws < 200:
        scheme = rng.choice(schemes)
        n_e = rng.randint(0, 7)
        n_f = rng.randint(0, 7)
        comp = Composition(n_e, n_f)
        if comp.total() < 2:
            continue
        fleet = Fleet.from_composition(comp)
        xi = rng.uniform(1e-9, 1.0)
        if scheme == "stable":
            alloc = stable_allocation(fleet, DEFAULT, xi)
        elif scheme == "shapley":
            alloc = shapley_allocation(fleet, DEFAULT)
        elif scheme == "even-split":
            alloc = even_split(fleet, DEFAULT)
        elif scheme == "brute-force":
            if fleet.size > 10:
                continue
            alloc = shapley_bruteforce(fleet, DEFAULT)
        else:
            if n_e < 1 or n_f < 1 or shapley_core_condition_ratio(comp, DEFAULT):
                continue
            alloc = stable_allocation(fleet, DEFAULT, xi_upper_bound(comp, DEFAULT))
        draws += 1
        gap = abs(alloc.total() - coalition_value(comp, DEFAULT))
        if gap > 1e-6:
            failures.append(f"{scheme} on {comp}: gap {gap}")
    _finish(3, "efficiency of every scheme", failures)


def test_criterion_04_certified_leader_share_region():
    failures = []
    for comp in _all_compositions(2, 12):
        fleet = Fleet.from_composition(comp)
        bound = xi_upper_bound(comp, DEFAULT)
        for k in range(1, 6):
            xi = bound * k / 5
            alloc = stable_allocation(fleet, DEFAULT, xi)
            report = in_core(alloc, fleet, DEFAULT, method="slow")
            if not report.is_member:
                failures.append(f"{comp} xi={xi:.6f}: {report.blocking_coalitions[:2]}")
    _finish(4, "leader-share allocation certified up to the bound", failures)


def test_criterion_05_exact_condition_iff_core():
    failures = []
    cells = 0
    for comp in _mixed_compositions(10):
        fleet = Fleet.from_composition(comp)
        for i in range(1, 20):
            params = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * i * 0.05,
                                   distance=300.0)
            predicted = shapley_core_condition_exact(comp, params)
            phi = shapley_allocation(fleet, params)
            actual = in_core(phi, fleet, params, method="slow").is_member
            cells += 1
            if predicted != actual:
                failures.append(f"{comp} ratio {i*0.05:.2f}: {predicted} vs {actual}")
    print(f"  ({cells} cells checked)")
    _finish(5, "composition condition iff exhaustive core", failures)


def test_criterion_06_ratio_condition_sufficient_not_necessary():
    failures = []
    gap_cells = []
    for comp in _mixed_compositions(10):
        fleet = Fleet.from_composition(comp)
        for i in range(1, 20):
            params = SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * i * 0.05,
                                   distance=300.0)
            sufficient = shapley_core_condition_ratio(comp, params)
            phi = shapley_allocation(fleet, params)
            member = in_core(phi, fleet, params).is_member
            if sufficient and not member:
                failures.append(f"{comp} ratio {i*0.05:.2f}: condition held, not in core")
            if not sufficient and member:
                gap_cells.append((comp.n_e, comp.n_f, round(i * 0.05, 2)))
    if not gap_cells:
        failures.append("no sufficiency-gap cell found on the grid")
    else:
        print(f"  ({len(gap_cells)} gap cells, e.g. {gap_cells[:3]}: condition fails "
              "yet the payoff stays in the core)")
    _finish(6, "ratio condition sufficient but not necessary", failures)


def test_criterion_07_deviation_minimizing_regime():
    failures = []
    params = SavingsParams(epsilon_f=0.72, epsilon_e=0.048, distance=300.0)
    for n_e in range(1, 15):
        comp = Composition(n_e, 15 - n_e)
        fleet = Fleet.from_composition(comp)
        xi_star = xi_upper_bound(comp, params)
        alloc = stable_allocation(fleet, params, xi_star)
        if not in_core(alloc, fleet, params, method="slow").is_member:
            failures.append(f"n_e={n_e}: x(xi*) not in core")
        phi = shapley_allocation(fleet, params)
        delta_star = mean_relative_deviation(alloc, phi)
        if not delta_star < 1.0:
            failures.append(f"n_e={n_e}: delta {delta_star} >= 1")
        curve = deviation_curve(stable_table(comp, params), default_xi_grid(comp, params))
        deltas = [p.delta for p in curve]
        if not all(b < a for a, b in zip(deltas, deltas[1:])):
            failures.append(f"n_e={n_e}: deviation not strictly decreasing")
    _finish(7, "deviation-minimizing allocation across mixed fleets", failures)


def test_criterion_08_sweep_csv_properties(tmp_path):
    failures = []

    fig2 = tmp_path / "fig2.csv"
    main(["sweep", "fig2", "--out", str(fig2)])
    _, rows = _read_rows(fig2)
    beyond = 0
    for n_e, n_f, xi, prob, bound in rows:
        if float(xi) <= float(bound) and prob != "1.000000":
            failures.append(f"fig2 certified side n_e={n_e} xi={xi}: {prob}")
        if float(xi) > float(bound) and float(prob) < 1.0:
            beyond += 1
    if beyond == 0:
        failures.append("fig2: no point below 1 beyond the bound")

    fig3 = tmp_path / "fig3.csv"
    main(["sweep", "fig3", "--out", str(fig3)])
    _, rows = _read_rows(fig3)
    for n, xi, prob, bound in rows:
        if float(xi) <= float(bound) and prob != "1.000000":
            failures.append(f"fig3 certified side n={n} xi={xi}: {prob}")

    fig5 = tmp_path / "fig5.csv"
    main(["sweep", "fig5", "--out", str(fig5)])
    _, rows = _read_rows(fig5)
    below = 0
    for n_e, n_f, ratio, prob, threshold in rows:
        if float(ratio) >= float(threshold) and prob != "1.000000":
            failures.append(f"fig5 certified side n_e={n_e} ratio={ratio}: {prob}")
        if float(prob) < 1.0:
            below += 1
    if below == 0:
        failures.append("fig5: no point below 1 on the uncertified side")

    _finish(8, "sweep CSVs respect the analytic boundaries", failures)


def test_criterion_09_superadditivity():
    failures = []
    rng = random.Random(42)
    for _ in range(50):
        eps_f = rng.uniform(0.01, 1.0)
        eps_e = rng.uniform(0.001, eps_f * 0.999)
        params = SavingsParams(epsilon_f=eps_f, epsilon_e=eps_e, distance=300.0)
        for comp in _all_compositions(0, 12):
            bad = check_superadditivity(comp, params)
            if bad:
                failures.append(f"{comp} eps=({eps_e:.4f},{eps_f:.4f}): {bad[:2]}")
    _finish(9, "superadditivity never violated", failures)


def test_criterion_10_fast_slow_agreement():
    failures = []
    rng = random.Random(99)
    for trial in range(100):
        n_e = rng.randint(0, 8)
        n_f = rng.randint(2 if n_e < 2 else 0, 12 - min(n_e, 8))
        comp = Composition(n_e, n_f)
        if comp.total() < 2 or comp.total() > 12:
            comp = Composition(1, 3)
        fleet = Fleet.from_composition(comp)
        total = coalition_value(comp, DEFAULT)
        leader = rng.randrange(fleet.size)
        if trial % 3 == 0:
            # deliberately non-core: leader hoards almost everything
            raw = [0.05] * fleet.size
            raw[leader] = 10.0
        else:
            pay = {"E": rng.uniform(0.0, 2.0), "D": rng.uniform(0.0, 2.0)}
            raw = [pay[fleet.types[i].code] for i in range(fleet.size)]
            raw[leader] = rng.uniform(0.0, 3.0)
        scale = total / sum(raw)
        alloc = Allocation(tuple(p * scale for p in raw), leader_id=leader,
                           scheme="random")
        fast = in_core(alloc, fleet, DEFAULT)
        slow = in_core(alloc, fleet, DEFAULT, method="slow")
        if fast != slow:
            failures.append(f"trial {trial} {comp}: fast {fast} vs slow {slow}")
    _finish(10, "fast and labeled core checks agree", failures)
