"""Distance from the type-fair benchmark: mean relative deviation and sweeps."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .allocate import Allocation, shapley_closed_form, stable_tables, xi_upper_bound
from .errors import ZeroShapleyPayoff
from .game import Fleet, SavingsParams, TruckType


@dataclass(frozen=True)
class DeviationPoint:
    xi: float
    delta: float
    in_core: bool


def _check_benchmark(phis) -> None:
    """Each phi that ``_deviation`` divides by must be positive."""
    if any(p <= 0 for p in phis):
        raise ZeroShapleyPayoff("benchmark payoff is zero for some truck")


def _deviation(classes, n: int) -> float:
    """delta from ((phi, x), count) classes: the sum of count*|phi - x|/phi over n."""
    return sum(count * abs(p - q) / p for (p, q), count in classes) / n


def mean_relative_deviation(x: Allocation, phi: Allocation) -> float:
    """Average of |phi_i - x_i| / phi_i across trucks."""
    if len(x.payoffs) != len(phi.payoffs):
        raise ValueError("allocations index different fleets")
    _check_benchmark(phi.payoffs)
    return _deviation(Counter(zip(phi.payoffs, x.payoffs)).items(), len(x.payoffs))


def deviation_curve(
    fleet: Fleet, params: SavingsParams, xi_grid: Sequence[float],
    tables: Optional[Callable] = None,
) -> tuple[DeviationPoint, ...]:
    """Deviation from the type-fair payoff and core verdict along a xi grid.

    On the certified interval (0, xi*] of a fleet where the ratio core
    condition fails, the deviation decreases strictly and bottoms out at
    xi*; points beyond the bound are reported as-is for inspection. Core
    flags and payoff classes are read off the fleet composition's table of
    ``tables``, a sweep's shared ``stable_tables(params)`` factory (by default
    a fresh one), and delta sums over the classes; a point within rounding of
    a threshold gets the class scan. Tables of other params are refused.
    """
    if not xi_grid:
        raise ValueError("empty xi grid")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise ValueError("grid must be strictly increasing")
    scan = (tables or stable_tables(params))(fleet.composition())
    if scan.params != params:
        raise ValueError("tables of other params")
    phi = dict(zip(TruckType, shapley_closed_form(fleet.composition(), params)))
    _check_benchmark(p for p in phi.values() if p is not None)  # the types present
    points = []
    for xi in xi_grid:
        classes, blocking = scan.at(xi)
        delta = _deviation([((phi[t], pay), k) for t, pay, k in classes], fleet.size)
        points.append(DeviationPoint(xi, delta, blocking == 0))
    return tuple(points)


def default_xi_grid(fleet: Fleet, params: SavingsParams) -> list[float]:
    """60 evenly spaced points from 0.002 up to the instance's ``xi_upper_bound``."""
    n = 60
    xi_star = xi_upper_bound(fleet.composition(), params)
    start = 0.002 if xi_star > 0.002 else xi_star / n
    step = (xi_star - start) / (n - 1)
    return [start + i * step for i in range(n)]
