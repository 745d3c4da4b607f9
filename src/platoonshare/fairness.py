"""Distance from the type-fair benchmark: mean relative deviation and sweeps."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .allocate import Allocation, shapley_closed_form, xi_upper_bound
from .errors import FleetTooSmall, InvalidInput, XiOutOfRange, ZeroShapleyPayoff
from .game import Composition, SavingsParams, TruckType


class DeviationPoint(NamedTuple):
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
        raise InvalidInput("allocations index different fleets")
    if not x.payoffs:
        raise FleetTooSmall("need at least one truck")
    _check_benchmark(phi.payoffs)
    return _deviation(Counter(zip(phi.payoffs, x.payoffs)).items(), len(x.payoffs))


def deviation_curve(table, xi_grid: Sequence[float]) -> tuple[DeviationPoint, ...]:
    """Deviation from the type-fair payoff and core verdict along a xi grid.

    On the certified interval (0, xi*] of a fleet where the ratio core
    condition fails, the deviation decreases strictly and bottoms out at
    xi*; points beyond the bound are reported as-is for inspection. ``table``
    is one composition's leader-share ``SweepTable``, whose composition, size
    and params the curve takes. Each point's payoff classes and exact count
    of blocking subsets are read off it, and delta sums over the classes.
    """
    if not xi_grid:
        raise InvalidInput("empty xi grid")
    if any(b <= a for a, b in zip(xi_grid, xi_grid[1:])):
        raise InvalidInput("grid must be strictly increasing")
    phi = dict(zip(TruckType, shapley_closed_form(table.comp, table.params)))
    _check_benchmark(p for p in phi.values() if p is not None)  # the types present
    points = []
    for xi in xi_grid:
        classes, blocking = table.at(xi)
        delta = _deviation([((phi[t], pay), k) for t, pay, k in classes], table.size)
        points.append(DeviationPoint(xi, delta, blocking == 0))
    return tuple(points)


def default_xi_grid(comp: Composition, params: SavingsParams) -> list[float]:
    """60 evenly spaced points to ``xi_upper_bound`` xi*, from 0.002, or from xi*/60
    if xi* <= 0.002 or too close to 0.002 for 60 distinct floats. A subnormal xi*
    may be too small for 60 distinct floats."""
    n = 60
    xi_star = xi_upper_bound(comp, params)
    for start in (0.002, xi_star / n):  # at xi* <= 0.002 the first grid falls
        step = (xi_star - start) / (n - 1)
        grid = [start + i * step for i in range(n - 1)] + [xi_star]
        if all(a < b for a, b in zip(grid, grid[1:])):
            return grid
    raise XiOutOfRange(f"xi* = {xi_star:.3g} of {comp.n_e} ET + {comp.n_f} FPT is too "
                       f"small for {n} distinct grid points")
