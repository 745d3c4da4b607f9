"""Core-membership certification and the stability probability.

One subset scan backs every verdict: trucks of the same type paid exactly
the same are interchangeable, so it visits the classes of such subsets
and weights each by its binomial multiplicity. The labeled enumeration
over all 2^N - 2 proper subsets that cross-checks it is an oracle in
``platoonshare.oracles``, run only on request (``method="slow"``).
"""

from __future__ import annotations

import math
from collections import Counter
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
# The class scan and the labeled oracle hold flat lists of one entry per subset
# class or labeled subset, at most 2^LABELED_SCAN_MAX_FLEET of them.
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


def _violations(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Scan of the subset classes of interchangeable trucks, weighted by count.

    Trucks of the same type with exactly the same payoff are
    interchangeable, so a subset is fixed up to relabeling by how many
    trucks it takes from each such class; that choice stands for the
    product of ``comb(class size, taken)`` labeled subsets.
    """
    classes = Counter(zip(fleet.types, alloc.payoffs))
    if math.prod(size + 1 for size in classes.values()) > 1 << LABELED_SCAN_MAX_FLEET:
        raise FleetTooLarge(f"scan capped at 2^{LABELED_SCAN_MAX_FLEET} subset classes")
    n, tol = fleet.size, params.money_tol()
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    # flat parallel lists, one entry per class of subsets: n_e, n_f, x(S), labeled count
    nes, nfs, sums, counts = [0], [0], [0.0], [1]
    for (truck_type, pay), size in classes.items():
        taken = range(size + 1)
        if truck_type is TruckType.ELECTRIC:
            nes, nfs = [e + k for k in taken for e in nes], nfs * (size + 1)
        else:
            nes, nfs = nes * (size + 1), [f + k for k in taken for f in nfs]
        sums = [s + g for g in [k * pay for k in taken] for s in sums]
        counts = [c * w for w in [math.comb(size, k) for k in taken] for c in counts]
    out: dict[tuple[int, int], int] = {}
    for e, f, got, count in zip(nes, nfs, sums, counts):
        if 0 < e + f < n and rate_for_counts(e, f, ee, ef) * dist > got + tol:
            out[(e, f)] = out.get((e, f), 0) + count
    return out


def in_core(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> CoreReport:
    """Decide core membership of an efficient allocation.

    ``method`` "auto" and "fast" both take the class scan, which is exact
    for any allocation; "slow" takes the labeled oracle instead, loaded
    from ``platoonshare.oracles`` only then.
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
    scan = _violations
    if method == "slow":
        from .oracles import labeled_violations as scan
    violations = scan(alloc, fleet, params)

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
