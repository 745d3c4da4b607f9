"""Payoff allocation schemes for the grand platoon coalition.

Four ways to split the total benefit among the trucks: a leader-share
scheme parameterized by xi, the closed-form type-fair (Shapley) payoff
with its brute-force twin used as an oracle, a plain even split, and the
deviation-minimizing fallback used when the type-fair payoff is not
core-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .errors import (
    BothTypesRequired,
    ConditionHolds,
    EpsilonOrderError,
    FleetTooLarge,
    FleetTooSmall,
    XiOutOfRange,
)
from .game import (
    REL_TOL,
    Composition,
    Fleet,
    SavingsParams,
    TruckType,
    coalition_value,
    optimal_leader_type,
)
from .stability import shapley_core_condition_ratio

SCHEME_STABLE = "stable"
SCHEME_SHAPLEY = "shapley-closed-form"
SCHEME_SHAPLEY_BF = "shapley-brute-force"
SCHEME_EVEN_SPLIT = "even-split"
SCHEME_DEVIATION_MIN = "deviation-min"

BRUTE_FORCE_MAX_FLEET = 10


@dataclass(frozen=True)
class Allocation:
    """Payoff vector indexed by truck id plus scheme metadata.

    ``within_bound`` is only meaningful for the leader-share schemes: it
    records whether xi respected the certified upper bound (the scheme is
    still constructed beyond it, since sweeps deliberately cross over).
    """

    payoffs: tuple[float, ...]
    leader_id: int
    scheme: str
    xi: Optional[float] = None
    within_bound: Optional[bool] = None

    def total(self) -> float:
        return sum(self.payoffs)


def _leader_id(fleet: Fleet) -> int:
    kind = optimal_leader_type(fleet.composition())
    if kind is None:
        raise FleetTooSmall("empty fleet has no leader")
    return min(i for i in fleet.ids() if fleet.types[i] is kind)


def _xi_bound_raw(comp: Composition, params: SavingsParams) -> float:
    # Upper end of the certified leader-share interval; well defined for
    # any positive rates even where the certification needs an ordering.
    if comp.n_e >= 1:
        return params.epsilon_e / (
            params.epsilon_e * (comp.n_e - 1) + params.epsilon_f * comp.n_f
        )
    return 1.0 / (comp.total() - 1)


def xi_upper_bound(comp: Composition, params: SavingsParams) -> float:
    """Largest leader share xi certified to keep the allocation stable."""
    if comp.total() < 2:
        raise FleetTooSmall("need at least two trucks")
    if comp.n_e >= 1 and comp.n_f >= 1 and not params.epsilon_e < params.epsilon_f:
        raise EpsilonOrderError("bound requires epsilon_e < epsilon_f")
    return _xi_bound_raw(comp, params)


def stable_allocation(fleet: Fleet, params: SavingsParams, xi: float) -> Allocation:
    """Leader takes xi of the total; followers keep (1 - xi) of their rate."""
    if not 0.0 < xi <= 1.0:
        raise XiOutOfRange(f"xi must be in (0, 1], got {xi}")
    _check_fleet_size(fleet, params)
    comp = fleet.composition()
    leader = _leader_id(fleet)
    total = coalition_value(comp, params)
    follower = {
        TruckType.ELECTRIC: (1.0 - xi) * params.epsilon_e * params.distance,
        TruckType.FUEL: (1.0 - xi) * params.epsilon_f * params.distance,
    }
    payoffs = tuple(
        xi * total if i == leader else follower[fleet.types[i]] for i in fleet.ids()
    )
    within = xi <= _xi_bound_raw(comp, params) + REL_TOL
    return Allocation(payoffs, leader, SCHEME_STABLE, xi=xi, within_bound=within)


def shapley_closed_form(
    comp: Composition, params: SavingsParams
) -> tuple[Optional[float], Optional[float]]:
    """Per-truck type-fair payoffs (phi_e, phi_f) in money over the trip.

    Each entry is None when no truck of that type is present. Requires
    epsilon_e < epsilon_f on mixed compositions; the electric-leads rule
    baked into the valuation is only the optimum under that ordering.
    """
    if comp.total() < 1:
        raise FleetTooSmall("need at least one truck")
    if comp.n_e >= 1 and comp.n_f >= 1 and not params.epsilon_e < params.epsilon_f:
        raise EpsilonOrderError("closed form requires epsilon_e < epsilon_f")
    n = comp.total()
    phi_e = phi_f = None
    if comp.n_e >= 1:
        rate = (1.0 - 1.0 / comp.n_e) * params.epsilon_e + (
            comp.n_f / (n * comp.n_e)
        ) * params.epsilon_f
        phi_e = rate * params.distance
    if comp.n_f >= 1:
        phi_f = (1.0 - 1.0 / n) * params.epsilon_f * params.distance
    return phi_e, phi_f


def shapley_allocation(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Closed-form type-fair payoff as a per-truck allocation."""
    _check_fleet_size(fleet, params)
    phi_e, phi_f = shapley_closed_form(fleet.composition(), params)
    by_type = {TruckType.ELECTRIC: phi_e, TruckType.FUEL: phi_f}
    payoffs = tuple(by_type[t] for t in fleet.types)
    # the scheme is role-free; the leader id is metadata only
    return Allocation(payoffs, _leader_id(fleet), SCHEME_SHAPLEY)


def shapley_bruteforce(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Subset-weighted marginal-contribution payoff, the slow oracle.

    Sums s!(N-s-1)!/N! * (v(S+i) - v(S)) over every subset S that
    excludes i. Capped at small fleets; the closed form exists for a
    reason.
    """
    n = fleet.size
    if n > BRUTE_FORCE_MAX_FLEET:
        raise FleetTooLarge(f"brute force capped at {BRUTE_FORCE_MAX_FLEET} trucks")
    _check_fleet_size(fleet, params)
    weights = [
        math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
        for s in range(n)
    ]
    payoffs = []
    for i in fleet.ids():
        others = [j for j in fleet.ids() if j != i]
        phi = 0.0
        for size in range(n):
            for subset in combinations(others, size):
                before = fleet.subset_composition(subset)
                after = fleet.subset_composition(subset + (i,))
                phi += weights[size] * (
                    coalition_value(after, params) - coalition_value(before, params)
                )
        payoffs.append(phi)
    return Allocation(tuple(payoffs), _leader_id(fleet), SCHEME_SHAPLEY_BF)


def even_split(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Everyone gets v(N)/N, the customary homogeneous-platoon split."""
    _check_fleet_size(fleet, params)
    share = coalition_value(fleet.composition(), params) / fleet.size
    return Allocation((share,) * fleet.size, _leader_id(fleet), SCHEME_EVEN_SPLIT)


def deviation_minimizing_allocation(
    fleet: Fleet, params: SavingsParams
) -> tuple[Allocation, float]:
    """Leader-share allocation at xi*, the stable point closest to type-fair.

    Applies only on mixed fleets where the ratio core condition fails;
    when it holds the type-fair payoff itself is core-stable and should
    be used instead.
    """
    comp = fleet.composition()
    if comp.n_e < 1 or comp.n_f < 1:
        raise BothTypesRequired("fallback scheme needs both truck types")
    if shapley_core_condition_ratio(comp, params):
        raise ConditionHolds("ratio core condition holds; use shapley")
    xi_star = _xi_bound_raw(comp, params)
    base = stable_allocation(fleet, params, xi_star)
    return replace(base, scheme=SCHEME_DEVIATION_MIN), xi_star


def _check_fleet_size(fleet: Fleet, params: SavingsParams) -> None:
    if fleet.size < 2:
        raise FleetTooSmall("grand coalition needs at least two trucks")
    params.check_fleet_size(fleet.size)
