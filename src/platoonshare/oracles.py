"""Exhaustive twins of the closed forms and the class scan, to cross-check them.

No production module imports this one at load time: ``in_core(method="slow")``
and ``allocate.shapley_bruteforce`` load it on first use.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import compress, repeat
from typing import Iterable, Iterator, Sequence

from .allocate import Allocation, _check_fleet_size, _leader_id
from .errors import FleetTooLarge, InvalidInput, InvalidPartition
from .game import (
    Composition,
    Fleet,
    SavingsParams,
    TruckType,
    coalition_value,
    rate_for_counts,
)
from .stability import _scaled

SCHEME_SHAPLEY_BF = "shapley-brute-force"
BRUTE_FORCE_MAX_FLEET = 10
LABELED_SCAN_MAX_FLEET = 20


def coalition_value_with_leader(
    comp: Composition, leader: TruckType, params: SavingsParams
) -> float:
    """Benefit when a specific truck type is forced to lead."""
    if comp.total() == 0:
        return 0.0
    if leader is TruckType.ELECTRIC:
        if comp.n_e < 1:
            raise InvalidInput("no electric truck to lead")
        rate = params.epsilon_e * (comp.n_e - 1) + params.epsilon_f * comp.n_f
    else:
        if comp.n_f < 1:
            raise InvalidInput("no fuel-powered truck to lead")
        rate = params.epsilon_e * comp.n_e + params.epsilon_f * (comp.n_f - 1)
    return rate * params.distance


def structure_value(
    blocks: Sequence[Iterable[int]], fleet: Fleet, params: SavingsParams
) -> float:
    """Total benefit of a partition of the fleet into platoons."""
    seen: set[int] = set()
    for block in blocks:
        ids = set(block)
        if not ids:
            raise InvalidPartition("empty block")
        if ids & seen:
            raise InvalidPartition("blocks overlap")
        seen |= ids
    if seen != set(fleet.ids()):
        raise InvalidPartition("blocks do not cover the fleet")
    return sum(coalition_value(fleet.subset_composition(b), params) for b in blocks)


def labeled_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Every partition of a labeled set, for brute-force cross-checks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in labeled_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def check_superadditivity(
    comp: Composition, params: SavingsParams
) -> list[tuple[Composition, Composition]]:
    """Scan all disjoint sub-composition pairs for merge losses.

    Returns the pairs whose merged value falls short of the sum of parts
    by more than the money tolerance; an empty list certifies
    superadditivity on this instance.
    """
    tol = params.money_tol()
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    violations: list[tuple[Composition, Composition]] = []
    for a_e in range(comp.n_e + 1):
        for a_f in range(comp.n_f + 1):
            va = rate_for_counts(a_e, a_f, ee, ef) * dist
            for b_e in range(comp.n_e - a_e + 1):
                for b_f in range(comp.n_f - a_f + 1):
                    if (b_e, b_f) < (a_e, a_f):
                        continue  # unordered pairs once
                    merged = rate_for_counts(a_e + b_e, a_f + b_f, ee, ef) * dist
                    if merged < va + rate_for_counts(b_e, b_f, ee, ef) * dist - tol:
                        violations.append((Composition(a_e, a_f), Composition(b_e, b_f)))
    return violations


def shapley_bruteforce(fleet: Fleet, params: SavingsParams) -> Allocation:
    """Subset-weighted marginal-contribution payoff, the slow oracle.

    Shapley's sum of w[s] * (v(S+i) - v(S)) over every subset S that
    excludes i, w[s] = s!(N-s-1)!/N!, regrouped by subset: phi_i sums
    (w[|T|-1] + w[|T|]) * v(T) over the subsets T holding i, less
    w[|T|] * v(T) over every T, with w[N] = 0. Each of the 2^N bit masks
    (bit i is truck i) is keyed by its (ET count, size), so v is computed
    once per key; halving the mask list from the top bit down then gives
    each truck's sum over the masks holding it. Labeled and exhaustive:
    it values every subset and assumes no type symmetry, so it stays
    independent of the closed form. Capped at small fleets; the closed
    form exists for a reason.
    """
    n = fleet.size
    if n > BRUTE_FORCE_MAX_FLEET:
        raise FleetTooLarge(f"brute force capped at {BRUTE_FORCE_MAX_FLEET} trucks")
    _check_fleet_size(fleet.size, params)
    weights = [
        math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
        for s in range(n)
    ] + [0.0]
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    keys = [0]  # ET count * (n + 1) + size, for each mask in mask order
    for t in fleet.types:
        step = n + 2 if t is TruckType.ELECTRIC else 1
        keys += [key + step for key in keys]
    holding = [0.0] * (n + 1) ** 2  # (w[s-1] + w[s]) * v, per key
    every = [0.0] * (n + 1) ** 2  # w[s] * v, per key
    for key in set(keys) - {0}:
        n_e, size = divmod(key, n + 1)
        worth = rate_for_counts(n_e, size - n_e, ee, ef) * dist
        holding[key] = (weights[size - 1] + weights[size]) * worth
        every[key] = weights[size] * worth
    base = sum(map(every.__getitem__, keys))
    terms = list(map(holding.__getitem__, keys))
    payoffs = [0.0] * n
    for i in reversed(range(n)):
        low, high = terms[: 1 << i], terms[1 << i:]
        payoffs[i] = sum(high) - base
        terms = list(map(operator.add, low, high))
    return Allocation(tuple(payoffs), _leader_id(fleet), SCHEME_SHAPLEY_BF)


def _subset_sums(terms: Sequence[int]) -> list[int]:
    """The sum of each subset of ``terms``; bit i of an entry's index picks terms[i]."""
    sums = [0]
    for term in terms:
        sums += list(map(operator.add, sums, repeat(term)))
    return sums


def labeled_violations(
    alloc: Allocation, fleet: Fleet, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Labeled scan of every non-empty proper subset, keyed like the class scan.

    A subset S blocks if v(S) - x(S) > ``params.money_tol()``, exactly on the
    float inputs' values, as in the class scan: in ints from its ``_scaled``,
    with v(S) = v_e*e + v_f*f - lead, v_e = d*eps_e, v_f = d*eps_f and lead
    that of S's leader. Meet in the middle: the subsets of the high half of
    the ids, n//2 and up, are built once, and each is extended over the low
    half, so the scan holds about 2^(N/2) entries, never 2^N. Each (ET count,
    FPT count) key is valued once; the empty set and the whole fleet never block.
    """
    n = fleet.size
    if n > LABELED_SCAN_MAX_FLEET:
        raise FleetTooLarge(f"labeled scan capped at {LABELED_SCAN_MAX_FLEET} trucks")
    _, v_e, v_f, tol, *pay = _scaled(params, *alloc.payoffs)
    n_e = fleet.types.count(TruckType.ELECTRIC)
    worth = [-math.inf] * (n + 1) ** 2  # v - tol per key, ET count * (n + 1) + FPT count
    for e in range(n_e + 1):
        for f in range(n - n_e + 1):
            if 0 < e + f < n:
                worth[e * (n + 1) + f] = v_e * e + v_f * f - (v_e if e else v_f) - tol
    steps = [n + 1 if t is TruckType.ELECTRIC else 1 for t in fleet.types]
    half = n // 2
    low_sums, low_keys = _subset_sums(pay[:half]), _subset_sums(steps[:half])

    blocking: Counter[int] = Counter()
    for got, head in zip(_subset_sums(pay[half:]), _subset_sums(steps[half:])):
        blocks = map(operator.gt, map(worth[head:].__getitem__, low_keys),
                     map(got.__add__, low_sums))
        blocking.update(map(head.__add__, compress(low_keys, blocks)))
    # ascending (e, f), as the class scan
    return {divmod(key, n + 1): count for key, count in sorted(blocking.items())}
