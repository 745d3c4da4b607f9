"""Payoff allocation schemes for the grand platoon coalition.

Four ways to split the total benefit among the trucks: a leader-share
scheme parameterized by xi, the closed-form type-fair (Shapley) payoff, a
plain even split, and the deviation-minimizing fallback used when the
type-fair payoff is not core-stable. The brute-force Shapley twin that
cross-checks the closed form lives in ``platoonshare.oracles``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    BothTypesRequired,
    ConditionHolds,
    EpsilonOrderError,
    FleetTooSmall,
    InvalidInput,
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
    rate_for_counts,
)
from .stability import SweepTable, shapley_core_condition_ratio

SCHEME_STABLE = "stable"
SCHEME_SHAPLEY = "shapley-closed-form"
SCHEME_EVEN_SPLIT = "even-split"
SCHEME_DEVIATION_MIN = "deviation-min"


class Allocation(NamedTuple):
    """Payoff vector indexed by truck id plus scheme metadata.

    ``within_bound`` is only meaningful for the leader-share schemes: it
    records whether xi respected the certified upper bound (the scheme is
    still constructed beyond it, since sweeps deliberately cross over), and
    stays None where no bound is certified (a mixed fleet with
    epsilon_e >= epsilon_f).
    """

    payoffs: tuple[float, ...]
    leader_id: int
    scheme: str
    xi: Optional[float] = None
    within_bound: Optional[bool] = None

    def total(self) -> float:
        return sum(self.payoffs)


def _leader_id(fleet: Fleet) -> int:
    return fleet.types.index(optimal_leader_type(fleet.composition()))


def xi_upper_bound(comp: Composition, params: SavingsParams) -> float:
    """Largest leader share xi certified to keep the allocation stable."""
    if comp.total() < 2:
        raise FleetTooSmall("grand coalition needs at least two trucks")
    if comp.n_e >= 1 and comp.n_f >= 1 and not params.epsilon_e < params.epsilon_f:
        raise EpsilonOrderError("bound requires epsilon_e < epsilon_f")
    if comp.n_e >= 1:  # the leader's rate over the coalition's
        return params.epsilon_e / rate_for_counts(*comp, params.epsilon_e, params.epsilon_f)
    return 1.0 / (comp.total() - 1)  # epsilon_f over its rate may differ in the last place


def _follower_pays(params: SavingsParams, xi: float) -> tuple[float, float]:
    """Leader-share payoffs (ET, FPT) of a follower: (1 - xi) of its saving."""
    return ((1 - xi) * params.epsilon_e * params.distance,
            (1 - xi) * params.epsilon_f * params.distance)


def _check_xi(xi: float) -> None:
    if not 0.0 < xi <= 1.0:
        raise XiOutOfRange(f"xi must be in (0, 1], got {xi}")


def _stable_pays(comp: Composition, params: SavingsParams):
    """The leader-share pays (leader, ET follower, FPT follower) as a function
    of xi."""
    _check_fleet_size(comp.total(), params)
    total = coalition_value(comp, params)

    def pays(xi: float) -> tuple:
        _check_xi(xi)
        return (xi * total, *_follower_pays(params, xi))
    return pays


def stable_allocation(fleet: Fleet, params: SavingsParams, xi: float) -> Allocation:
    """Leader takes xi of the total; followers keep (1 - xi) of their rate."""
    _check_xi(xi)  # before the fleet checks
    lead, pay_e, pay_f = _stable_pays(fleet.composition(), params)(xi)
    leader, electric = _leader_id(fleet), TruckType.ELECTRIC
    payoffs = tuple(lead if i == leader else pay_e if t is electric else pay_f
                    for i, t in enumerate(fleet.types))
    try:
        within = xi <= xi_upper_bound(fleet.composition(), params) + REL_TOL
    except EpsilonOrderError:  # no certified bound
        within = None
    return Allocation(payoffs, leader, SCHEME_STABLE, xi=xi, within_bound=within)


def stable_table(comp: Composition, params: SavingsParams) -> SweepTable:
    """The ``SweepTable`` of ``stable_allocation`` along xi for ``comp``. It
    leaves out the subsets holding the leader: each is paid (1 - xi)*v(S) +
    xi*v(N), so its excess xi*(v(S) - v(N)) - tol is negative on (0, 1]."""
    return SweepTable(comp, params, _stable_pays(comp, params), optimal_leader_type(comp))


def _type_fair_pays(comp: Composition):
    """The type-fair pays (no leader, ET, FPT) as a function of the rates and
    distance: each type's pay is its weights of (epsilon_e, epsilon_f) times the
    distance, or None if no truck of that type is present."""
    n = comp.total()
    if n < 1:
        raise FleetTooSmall("need at least one truck")
    w_e = (1.0 - 1.0 / comp.n_e, comp.n_f / (n * comp.n_e)) if comp.n_e else None
    w_f = (0.0, 1.0 - 1.0 / n) if comp.n_f else None

    def pays(ee, ef, dist) -> tuple:
        if w_e and w_f and not ee < ef:  # a mixed fleet
            raise EpsilonOrderError("closed form requires epsilon_e < epsilon_f")
        return None, *((w[0] * ee + w[1] * ef) * dist if w else None for w in (w_e, w_f))
    return pays


def shapley_closed_form(
    comp: Composition, params: SavingsParams
) -> tuple[Optional[float], Optional[float]]:
    """Per-truck type-fair payoffs (phi_e, phi_f) in money over the trip.

    Each entry is None when no truck of that type is present. Requires
    epsilon_e < epsilon_f on mixed compositions; the electric-leads rule
    baked into the valuation is only the optimum under that ordering.
    """
    return _type_fair_pays(comp)(params.epsilon_e, params.epsilon_f, params.distance)[1:]


def shapley_allocation(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Closed-form type-fair payoff as a per-truck allocation."""
    _check_fleet_size(fleet.size, params)
    phi_e, phi_f = shapley_closed_form(fleet.composition(), params)
    electric = TruckType.ELECTRIC
    payoffs = tuple(phi_e if t is electric else phi_f for t in fleet.types)
    # the scheme is role-free; the leader id is metadata only
    return Allocation(payoffs, _leader_id(fleet), SCHEME_SHAPLEY)


def shapley_table(comp: Composition, params: SavingsParams) -> SweepTable:
    """The ``SweepTable`` of ``shapley_allocation`` along the rate ratio r in
    (0, 1], at epsilon_e = r*epsilon_f, for ``comp``; no truck is left out. The
    family's rates are (r*epsilon_f, epsilon_f), whatever ``params``' epsilon_e,
    so its one money tolerance, that of ratio 1, holds at every r; the table
    reads params at ratio 1, ``params`` themselves if they are."""
    _check_fleet_size(comp.total(), params)
    ef, dist, pays = params.epsilon_f, params.distance, _type_fair_pays(comp)
    if params.epsilon_e != ef:  # at ratio 1 only the money tolerance can fail
        try:
            params = params._replace(epsilon_e=ef)
        except InvalidInput:
            raise InvalidInput("epsilon_f x distance is too small for a money tolerance at "
                               "rate ratio 1, the tolerance of every table") from None

    def point(r: float) -> tuple:
        if not 0.0 < r <= 1.0:
            raise InvalidInput(f"rate ratio must be in (0, 1], got {r}")
        return pays(r * ef, ef, dist)
    return SweepTable(comp, params, point, rate_e=lambda r: r * ef)


def even_split(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Everyone gets v(N)/N, the customary homogeneous-platoon split."""
    _check_fleet_size(fleet.size, params)
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
    xi_star = xi_upper_bound(comp, params)
    base = stable_allocation(fleet, params, xi_star)
    return base._replace(scheme=SCHEME_DEVIATION_MIN), xi_star


def _check_fleet_size(size: int, params: SavingsParams) -> None:
    if size < 2:
        raise FleetTooSmall("grand coalition needs at least two trucks")
    params.check_fleet_size(size)


def __getattr__(name: str):
    # perfbench still calls allocate.shapley_bruteforce: delete once it calls oracles.
    if name == "shapley_bruteforce":
        from .oracles import shapley_bruteforce
        return shapley_bruteforce
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
