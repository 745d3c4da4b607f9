"""The oracles live in one module that the CLI never loads, nor dataclasses or argparse.

Their names load only from ``platoonshare.oracles``; ``allocate`` still
re-exports ``shapley_bruteforce`` lazily, and ``in_core(method="slow")``
loads the labeled scan only when asked.
"""

import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platoonshare
from platoonshare import (
    Allocation,
    Composition,
    Fleet,
    SavingsParams,
    TruckType,
    coalition_value,
    in_core,
    stable_allocation,
    xi_upper_bound,
)
from platoonshare.game import rate_for_counts
from platoonshare.oracles import LABELED_SCAN_MAX_FLEET, labeled_violations

# The cross-check names that load only from ``platoonshare.oracles``.
ORACLE_NAMES = ("check_superadditivity", "coalition_value_with_leader",
                "labeled_partitions", "shapley_bruteforce", "structure_value")

# Runs in a fresh interpreter, so no other test has loaded the oracles yet.
FRESH_PROCESS = f"""
ORACLE_NAMES = {ORACLE_NAMES!r}
import contextlib, io, sys
import platoonshare.cli as cli

assert "platoonshare.oracles" not in sys.modules, "import platoonshare.cli"
for argv in (["value"], ["allocate"], ["sweep", "fig3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "platoonshare.oracles" not in sys.modules, argv

import platoonshare
first_use = platoonshare.allocate.shapley_bruteforce
oracles = sys.modules["platoonshare.oracles"]
assert first_use is oracles.shapley_bruteforce
for name in ORACLE_NAMES:
    assert not hasattr(platoonshare, name), name
    assert hasattr(oracles, name), name
"""


# The cold CLI path, on the package the suite imports: neither the
# oracles nor dataclasses, which brings inspect and the code it generates,
# nor argparse, which brings gettext and, at its first message, locale.
COLD_IMPORT = ("import platoonshare.cli, sys; "
               "loaded = {'argparse', 'gettext', 'locale', 'dataclasses', 'inspect', "
               "'platoonshare.oracles'} & set(sys.modules); "
               "assert not loaded, loaded")


# The benchmark's import contract: its core-audit set-up and its tracer read
# these modules from sys.modules after importing platoonshare.cli alone, so a
# lazy import of any of them breaks traced runs while untraced ones pass.
CLI_LOADS = ("import platoonshare.cli, sys; "
             "missing = {'platoonshare.game', 'platoonshare.allocate', "
             "'platoonshare.stability', 'platoonshare.fairness'} - set(sys.modules); "
             "assert not missing, missing")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    src = str(Path(platoonshare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_never_loads_the_oracles():
    done = run_fresh(FRESH_PROCESS)
    assert done.returncode == 0, done.stderr


def test_cold_cli_import_is_lean():
    done = run_fresh(COLD_IMPORT)
    assert done.returncode == 0, done.stderr


def test_cli_import_loads_what_the_benchmark_reads():
    done = run_fresh(CLI_LOADS)
    assert done.returncode == 0, done.stderr


def test_public_oracle_names_resolve_to_the_oracles_module():
    from platoonshare import oracles

    for name in ORACLE_NAMES:
        assert not hasattr(platoonshare, name), name
        assert callable(getattr(oracles, name)), name
    assert platoonshare.allocate.shapley_bruteforce is oracles.shapley_bruteforce


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        platoonshare.no_such_name
    assert not hasattr(platoonshare, "no_such_name")
    assert not hasattr(platoonshare.allocate, "no_such_name")


def test_slow_method_takes_the_labeled_scan(monkeypatch, params):
    from platoonshare import oracles

    fleet = Fleet.from_composition(Composition(3, 4))
    alloc = stable_allocation(fleet, params, 0.5)  # beyond the bound: it blocks
    labeled, scans = oracles.labeled_violations, []

    def spy(*args):
        scans.append(args)
        return labeled(*args)

    monkeypatch.setattr(oracles, "labeled_violations", spy)
    slow = in_core(alloc, fleet, params, method="slow")
    assert len(scans) == 1
    assert not slow.is_member
    assert slow == in_core(alloc, fleet, params)
    assert len(scans) == 1


def per_mask_violations(alloc, fleet, params):
    """Reference loop in exact Fractions of the float inputs: each mask's sum is
    its rest's (lowest bit dropped) plus that pay. Returned as the scans return
    it: the blocking count of each key n_e*(n + 1) + n_f, flat, and the width n + 1."""
    n = fleet.size
    ee, ef, dist, tol = map(Fraction, (params.epsilon_e, params.epsilon_f, params.distance,
                                       params.money_tol()))
    et = [t is TruckType.ELECTRIC for t in fleet.types]
    sums, nes, sizes = [Fraction(0)] * (1 << n), [0] * (1 << n), [0] * (1 << n)
    out = [0] * (n + 1) ** 2
    for mask in range(1, (1 << n) - 1):
        idx = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << idx)
        sums[mask] = sums[rest] + Fraction(alloc.payoffs[idx])
        nes[mask], sizes[mask] = nes[rest] + et[idx], sizes[rest] + 1
        n_e, n_f = nes[mask], sizes[mask] - nes[mask]
        if rate_for_counts(n_e, n_f, ee, ef) * dist - sums[mask] > tol:
            out[n_e * (n + 1) + n_f] += 1
    return out, n + 1


rates = st.builds(lambda ratio, distance: SavingsParams(epsilon_f=0.07, epsilon_e=0.07 * ratio,
                                                        distance=distance),
                  st.floats(0.05, 0.95), st.sampled_from([1e-3, 1.0, 300.0, 1e6]))


class TestLabeledScan:
    @given(data=st.data(), params=rates, n=st.integers(1, 12),
           levels=st.lists(st.just(0.0) | st.floats(0.01, 2.0), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_tied_and_zero_pays_match_the_per_mask_loop(self, data, params, n, levels):
        # pays tie within and across types, some are zero; rescaled to efficiency
        fleet = Fleet(tuple(data.draw(st.lists(st.sampled_from(TruckType),
                                               min_size=n, max_size=n))))
        raw = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        scale = coalition_value(fleet.composition(), params) / (sum(raw) or 1.0)
        pay = [p * scale for p in raw]
        if n > 1 and data.draw(st.booleans()):
            # two pays that cancel: a float sum holding both would depend on its order
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            pay[i] += 1e17
            pay[j] -= 1e17
        alloc = Allocation(tuple(pay), 0, scheme="test")
        assert labeled_violations(alloc, fleet, params) == per_mask_violations(alloc, fleet, params)

    @given(data=st.data(), params=rates, n=st.integers(2, 12))
    @settings(max_examples=100, deadline=None)
    def test_stable_allocation_at_the_bound_matches_the_per_mask_loop(self, data, params, n):
        # xi exactly at xi* sits on the core's face, where a sum's last bit decides
        types = data.draw(st.lists(st.sampled_from(TruckType), min_size=n, max_size=n))
        fleet = Fleet(tuple(types))
        alloc = stable_allocation(fleet, params, xi_upper_bound(fleet.composition(), params))
        assert labeled_violations(alloc, fleet, params) == per_mask_violations(alloc, fleet, params)

    def test_sixteen_trucks_hold_no_flat_list(self, params):
        # 2^16 floats alone would take 512 KiB; the two halves take 2^8 entries
        params = params._replace(max_platoon_size=16)
        fleet = Fleet.from_composition(Composition(5, 11))
        alloc = stable_allocation(fleet, params, xi_upper_bound(fleet.composition(), params))
        labeled_violations(alloc, fleet, params)  # warm up
        tracemalloc.start()
        try:
            labeled_violations(alloc, fleet, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_twenty_trucks_in_three_pay_classes_match_the_class_scan(self, params):
        params = params._replace(max_platoon_size=LABELED_SCAN_MAX_FLEET)
        fleet = Fleet.from_composition(Composition(5, 15))
        xi = 1.5 * xi_upper_bound(fleet.composition(), params)  # beyond the bound: it blocks
        alloc = stable_allocation(fleet, params, xi)
        assert len(set(alloc.payoffs)) == 3
        slow = in_core(alloc, fleet, params, method="slow")
        assert not slow.is_member
        assert slow == in_core(alloc, fleet, params)
