"""Distance from the type-fair benchmark: mean relative deviation and sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocate import Allocation, shapley_allocation, stable_breakpoints, xi_upper_bound
from .errors import ZeroShapleyPayoff
from .game import Fleet, SavingsParams


@dataclass(frozen=True)
class DeviationPoint:
    xi: float
    delta: float
    in_core: bool


def mean_relative_deviation(x: Allocation, phi: Allocation) -> float:
    """Average of |phi_i - x_i| / phi_i across trucks."""
    if len(x.payoffs) != len(phi.payoffs):
        raise ValueError("allocations index different fleets")
    if any(p <= 0 for p in phi.payoffs):
        raise ZeroShapleyPayoff("benchmark payoff is zero for some truck")
    n = len(phi.payoffs)
    return sum(abs(p - q) / p for p, q in zip(phi.payoffs, x.payoffs)) / n


def deviation_curve(
    fleet: Fleet, params: SavingsParams, xi_grid: Sequence[float]
) -> tuple[DeviationPoint, ...]:
    """Deviation from the type-fair payoff and core verdict along a xi grid.

    On the certified interval (0, xi*] of a fleet where the ratio core
    condition fails, the deviation decreases strictly and bottoms out at
    xi*; points beyond the bound are reported as-is for inspection. Core
    flags and allocations are read off the fleet's ``stable_breakpoints``,
    built once; a point within rounding of a threshold gets the class scan.
    """
    if not xi_grid:
        raise ValueError("empty xi grid")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise ValueError("grid must be strictly increasing")
    phi = shapley_allocation(fleet, params)
    scan = stable_breakpoints(fleet, params)
    points = []
    for xi in xi_grid:
        x, blocking = scan.at(xi)
        points.append(DeviationPoint(xi, mean_relative_deviation(x, phi), blocking == 0))
    return tuple(points)


def default_xi_grid(fleet: Fleet, params: SavingsParams) -> list[float]:
    """60 evenly spaced points from 0.002 up to the instance's ``xi_upper_bound``."""
    n = 60
    xi_star = xi_upper_bound(fleet.composition(), params)
    start = 0.002 if xi_star > 0.002 else xi_star / n
    step = (xi_star - start) / (n - 1)
    return [start + i * step for i in range(n)]
