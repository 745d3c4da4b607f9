"""Core-membership certification and the stability probability.

Two interchangeable subset scans back the verdict: a labeled enumeration
over all 2^N - 2 proper subsets, and a composition-level scan that
exploits the within-type symmetry of the scheme-built allocations and
weights each class by its binomial multiplicity. Both must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BothTypesRequired, FleetTooLarge, NotEfficient
from .game import (
    REL_TOL,
    Composition,
    Fleet,
    SavingsParams,
    TruckType,
    coalition_value,
    rate_for_counts,
)

if TYPE_CHECKING:
    from .allocate import Allocation

# A subset blocks only if it gains more than params.money_tol(); boundary
# allocations (xi exactly at the bound) sit on the core's face and must not flip.
# The labeled scan keeps three lists of 2^N entries, hence its cap.
LABELED_SCAN_MAX_FLEET = 20


@dataclass(frozen=True)
class CoreReport:
    """Verdict plus the blocking subset classes and the stability probability.

    ``blocking_coalitions`` lists (composition, labeled-subset count)
    pairs in ascending composition order; the counts feed the
    probability's numerator directly.
    """

    is_member: bool
    blocking_coalitions: tuple[tuple[Composition, int], ...]
    stability_probability: float


def _violations_slow(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Labeled scan of every non-empty proper subset."""
    n = fleet.size
    if n > LABELED_SCAN_MAX_FLEET:
        raise FleetTooLarge(f"labeled scan capped at {LABELED_SCAN_MAX_FLEET} trucks")
    full = 1 << n
    tol = params.money_tol()
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    pay = alloc.payoffs
    et = [1 if t is TruckType.ELECTRIC else 0 for t in fleet.types]

    sums = [0.0] * full
    nes = [0] * full
    sizes = [0] * full
    out: dict[tuple[int, int], int] = {}
    for mask in range(1, full - 1):
        low = mask & -mask
        idx = low.bit_length() - 1
        rest = mask ^ low
        got = sums[rest] + pay[idx]
        n_e = nes[rest] + et[idx]
        size = sizes[rest] + 1
        sums[mask] = got
        nes[mask] = n_e
        sizes[mask] = size
        if rate_for_counts(n_e, size - n_e, ee, ef) * dist > got + tol:
            key = (n_e, size - n_e)
            out[key] = out.get(key, 0) + 1
    return out


def _type_payoffs(alloc: "Allocation", fleet: Fleet) -> dict[TruckType, float] | None:
    """Per-type follower payoff if all non-leader trucks of a type agree exactly."""
    by_type: dict[TruckType, float] = {}
    for i, (t, pay) in enumerate(zip(fleet.types, alloc.payoffs)):
        if i != alloc.leader_id and by_type.setdefault(t, pay) != pay:
            return None
    return by_type


def _violations_fast(
    alloc: "Allocation",
    fleet: Fleet,
    params: SavingsParams,
    by_type: dict[TruckType, float],
) -> dict[tuple[int, int], int]:
    """Composition-class scan weighted by binomial counts.

    Valid only when every non-leader truck of a type receives the same
    payoff, which holds for all scheme-built allocations; ``by_type`` is
    that payoff as found by ``_type_payoffs``.
    """
    comp = fleet.composition()
    tol = params.money_tol()
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    leader_type = fleet.types[alloc.leader_id]
    leader_pay = alloc.payoffs[alloc.leader_id]
    leader_e = 1 if leader_type is TruckType.ELECTRIC else 0
    free_e = comp.n_e - leader_e
    free_f = comp.n_f - (1 - leader_e)
    pay_e = by_type.get(TruckType.ELECTRIC, 0.0)
    pay_f = by_type.get(TruckType.FUEL, 0.0)

    out: dict[tuple[int, int], int] = {}
    for with_leader in (0, 1):
        for a in range(free_e + 1):
            for b in range(free_f + 1):
                size = a + b + with_leader
                if size == 0 or size == fleet.size:
                    continue
                sub_e = a + with_leader * leader_e
                sub_f = b + with_leader * (1 - leader_e)
                got = a * pay_e + b * pay_f + with_leader * leader_pay
                if rate_for_counts(sub_e, sub_f, ee, ef) * dist > got + tol:
                    count = math.comb(free_e, a) * math.comb(free_f, b)
                    key = (sub_e, sub_f)
                    out[key] = out.get(key, 0) + count
    return out


def in_core(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> CoreReport:
    """Decide core membership of an efficient allocation.

    ``method`` selects the subset scan: "slow" (labeled), "fast"
    (composition classes), or "auto" (fast when the allocation is
    type-symmetric, labeled otherwise).
    """
    params.check_fleet_size(fleet.size)
    total = coalition_value(fleet.composition(), params)
    # written so that a nan or inf sum fails the check
    if not abs(sum(alloc.payoffs) - total) <= params.money_tol():
        raise NotEfficient(
            f"payoffs sum to {sum(alloc.payoffs):.8f}, grand value is {total:.8f}"
        )

    if method not in ("auto", "fast", "slow"):
        raise ValueError(f"unknown method {method!r}")
    by_type = None if method == "slow" else _type_payoffs(alloc, fleet)
    if by_type is not None:
        violations = _violations_fast(alloc, fleet, params, by_type)
    elif method == "fast":
        raise ValueError("allocation is not type-symmetric; use the labeled scan")
    else:
        violations = _violations_slow(alloc, fleet, params)

    n_violating = sum(violations.values())
    denom = (1 << fleet.size) - 2
    probability = 1.0 if n_violating == 0 else 1.0 - n_violating / denom
    blocking = tuple(
        (Composition(n_e, n_f), count)
        for (n_e, n_f), count in sorted(violations.items())
    )
    return CoreReport(n_violating == 0, blocking, probability)


def stability_probability(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> float:
    """Share of non-trivial subsets with no incentive to walk away."""
    return in_core(alloc, fleet, params, method=method).stability_probability


def shapley_core_condition_exact(comp: Composition, params: SavingsParams) -> bool:
    """Necessary and sufficient composition-level test for the type-fair payoff.

    Only subset classes with some but not all of the electric trucks can
    gain by leaving; classes with zero or all of them are satisfied
    unconditionally, so the scan covers 1 <= n_e^S < n_e. In particular
    a single-ET fleet passes vacuously at any rate ratio.
    """
    if comp.n_e < 1 or comp.n_f < 1:
        raise BothTypesRequired("condition is defined for mixed fleets")
    ratio = params.epsilon_e / params.epsilon_f
    n = comp.total()
    for sub_f in range(comp.n_f + 1):
        for sub_e in range(1, comp.n_e):
            rhs = (sub_f * comp.n_e - comp.n_f * sub_e) / (n * (comp.n_e - sub_e))
            if ratio < rhs - REL_TOL:
                return False
    return True


def shapley_core_condition_ratio(comp: Composition, params: SavingsParams) -> bool:
    """One-line sufficient test: rate ratio at least the fuel-truck share."""
    if comp.n_e < 1 or comp.n_f < 1:
        raise BothTypesRequired("condition is defined for mixed fleets")
    ratio = params.epsilon_e / params.epsilon_f
    return ratio >= comp.n_f / comp.total() - REL_TOL
