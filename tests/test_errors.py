"""The error contract: every precondition the library checks raises a GameError.

The CLI maps a GameError, and only a GameError, to exit code 3, so any other
exception that escapes a public function is a bug and ends as a traceback.
"""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from platoonshare import (
    Composition,
    Fleet,
    GameError,
    SavingsParams,
    TruckType,
    default_xi_grid,
    deviation_curve,
    deviation_minimizing_allocation,
    errors,
    even_split,
    game,
    in_core,
    mean_relative_deviation,
    shapley_allocation,
    shapley_closed_form,
    stable_allocation,
    stable_tables,
    xi_upper_bound,
)
from platoonshare.allocate import shapley_tables
from platoonshare.cli import main
from platoonshare.oracles import (
    check_superadditivity,
    coalition_value_with_leader,
    shapley_bruteforce,
    structure_value,
)

PACKAGE = Path(__file__).parents[1] / "src" / "platoonshare"


def raised_names(tree):
    """(enclosing function, exception name, line) of each ``raise`` in ``tree``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((function, getattr(exc, "id", ast.dump(exc)) if exc else None,
                              child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_every_raise_names_a_game_error():
    # a module __getattr__ signals a missing name by AttributeError, and the
    # CLI's own usage and config errors map to exit 2
    allowed = {"cli.py": {"ConfigError", "UsageError"}}
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, name, line in raised_names(ast.parse(path.read_text(encoding="utf-8"))):
            exc = getattr(errors, name or "", None)
            if isinstance(exc, type) and issubclass(exc, GameError):
                continue
            if name in allowed.get(path.name, ()) or (function, name) == ("__getattr__",
                                                                          "AttributeError"):
                continue
            offenders.append(f"{path.name}:{line}: raise {name}")
    assert offenders == []


def test_a_bug_is_no_precondition_failure(monkeypatch):
    # a ValueError that no precondition raised escapes main, so it prints a
    # traceback and exits 1 rather than exit 3
    def bug(*args):
        raise ValueError("math domain error")

    monkeypatch.setattr(game, "coalition_value", bug)
    with pytest.raises(ValueError, match="math domain error"):
        main(["value"])


def attempt(function, *args):
    """``function(*args)``, or None if it raises a GameError; any other exception escapes."""
    try:
        return function(*args)
    except GameError:
        return None


RATES = st.one_of(
    st.sampled_from([1e-320, 1e-300, 0.048, 0.07, 0.72, 1.0, 1e300, 0.0, -1.0,
                     math.nan, math.inf]),
    st.floats(1e-6, 1e3),
)
CAPS = st.one_of(st.sampled_from([-1, 1, 2, 12, 10**8, 10**30]), st.integers(2, 15))
COUNTS = st.tuples(st.integers(-1, 12), st.integers(-1, 12)).filter(lambda c: sum(c) <= 12)
POINTS = st.one_of(st.sampled_from([0.0, -0.5, math.nan, 1.0, 1.5, 2.0, math.inf]),
                   st.floats(0.0, 1.0))


@given(rates=st.tuples(RATES, RATES, RATES), cap=CAPS, counts=COUNTS, t=POINTS,
       grid=st.lists(POINTS, max_size=3), skew=st.integers(-1, 1),
       method=st.sampled_from(["auto", "slow", "fast"]))
# the type-fair tables hold params at rate ratio 1, and a ratio of 2 doubles a rate
@example(rates=(1e-320, 0.048, 300.0), cap=10**30, counts=(4, 2), t=0.5, grid=[0.1],
         skew=0, method="auto")
@example(rates=(1.0, 0.048, 1e300), cap=10**8, counts=(0, 3), t=2.0, grid=[0.1],
         skew=0, method="auto")
# a subnormal epsilon_f: the leader-share table's slope d*epsilon_f - pay_f is tiny
@example(rates=(1e-320, 0.048, 1e-05), cap=10**30, counts=(0, 2), t=1.0, grid=[0.1],
         skew=0, method="auto")
@settings(max_examples=300, deadline=None)
def test_public_functions_raise_only_game_errors(rates, cap, counts, t, grid, skew, method):
    params, comp = attempt(SavingsParams, *rates, cap), attempt(Composition, *counts)
    if params is None or comp is None:
        return
    fleet = Fleet.from_composition(comp)
    for function in (xi_upper_bound, shapley_closed_form, default_xi_grid,
                     check_superadditivity):
        attempt(function, comp, params)
    for leader in TruckType:
        attempt(coalition_value_with_leader, comp, leader, params)
    table = attempt(stable_tables(params), comp)
    if table is not None:
        attempt(table.at, t)
        attempt(deviation_curve, table, grid)
    table = attempt(shapley_tables(params), comp)
    if table is not None:
        attempt(table.at, t)
    allocations = [
        attempt(stable_allocation, fleet, params, t),
        attempt(shapley_allocation, fleet, params),
        attempt(even_split, fleet, params),
        (attempt(deviation_minimizing_allocation, fleet, params) or [None])[0],
        attempt(shapley_bruteforce, fleet, params),
    ]
    for alloc in filter(None, allocations):  # skew -1 drops a payoff, 1 adds one
        skewed = alloc._replace(payoffs=(*alloc.payoffs, 0.0)[:len(alloc.payoffs) + skew])
        attempt(in_core, skewed, fleet, params, method)
        attempt(mean_relative_deviation, skewed, alloc)
    cut = fleet.size // 2  # skew -1 overlaps the two blocks, 1 leaves a gap
    attempt(structure_value, [fleet.ids()[:cut], fleet.ids()[cut + skew:]], fleet, params)
    attempt(fleet.subset_composition, range(fleet.size + skew))


@pytest.mark.parametrize("build, args, match", [
    # exact int distances past float range, checked in floats like any other
    (SavingsParams, (0.07, 0.048, 10**400), "must be finite$"),
    (SavingsParams, (7, 3, 10**400), "must be finite$"),
    # a float count would reach a roster, a structure table or a worth
    (Composition, (2.5, 3), "^counts must be non-negative integers$"),
    (Composition, (2.0, 3), "^counts must be non-negative integers$"),
    (Composition, (2, 3.0), "^counts must be non-negative integers$"),
    (SavingsParams, (0.07, 0.048, 300.0, 15.5), "^max_platoon_size must be an integer"),
], ids=["float-rates", "int-rates", "count-2.5", "count-2.0", "count-3.0", "cap-15.5"])
def test_non_integer_counts_and_huge_int_distances_raise_invalid_input(build, args, match):
    with pytest.raises(errors.InvalidInput, match=match):
        build(*args)
