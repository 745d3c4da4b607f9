"""Core-membership certification and the stability probability.

One subset scan backs every verdict: trucks of the same type paid exactly
the same are interchangeable, so it visits the classes of such subsets
and weights each by its binomial multiplicity. Sweeps along a family of
allocations affine in one parameter read ``Breakpoints``, the same classes
turned into sorted thresholds per composition, each point given as payoff
classes. The labeled enumeration over all 2^N - 2 proper subsets that
cross-checks both is an oracle in ``platoonshare.oracles``, run only on
request (``method="slow"``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, product
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping

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
# Breakpoints' rounding bound, relative to the magnitude of an excess's terms
_ROUNDING = 32 * sys.float_info.epsilon


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


def _check_class_cap(sizes) -> None:
    """The scan cap: classes of ``sizes`` trucks make prod(size + 1) subset classes."""
    if math.prod(size + 1 for size in sizes) > 1 << LABELED_SCAN_MAX_FLEET:
        raise FleetTooLarge(f"scan capped at 2^{LABELED_SCAN_MAX_FLEET} subset classes")


def _binomials(m: int) -> list[int]:
    """The row comb(m, k) for k = 0..m, each entry from the one before."""
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def _violations(
    classes: Mapping[tuple[TruckType, float], int], n: int, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Scan of the subset classes of interchangeable trucks, weighted by count.

    ``classes`` maps (truck type, pay) to its number of trucks in a fleet of
    ``n``; such trucks are interchangeable: a subset takes k of a class of m
    in comb(m, k) ways. The classes are summed in the mapping's order.
    """
    _check_class_cap(classes.values())
    nes, nfs, counts, sums = [0], [0], [1], [0]
    for (truck_type, pay), size in classes.items():
        taken = range(size + 1)
        if truck_type is TruckType.ELECTRIC:
            nes, nfs = [e + k for k in taken for e in nes], nfs * (size + 1)
        else:
            nes, nfs = nes * (size + 1), [f + k for k in taken for f in nfs]
        sums = [s + k * pay for k in taken for s in sums]
        counts = [c * w for w in _binomials(size) for c in counts]
    tol = params.money_tol()
    ee, ef, dist = params.epsilon_e, params.epsilon_f, params.distance
    out: dict[tuple[int, int], int] = {}
    for e, f, got, count in zip(nes, nfs, sums, counts):
        if 0 < e + f < n and rate_for_counts(e, f, ee, ef) * dist > got + tol:
            out[(e, f)] = out.get((e, f), 0) + count
    return out


def _grand_value(comp: Composition, params: SavingsParams) -> tuple:
    """v(N) and money_tol(), the terms of ``_check_efficient``."""
    params.check_fleet_size(comp.total())
    return coalition_value(comp, params), params.money_tol()


def _check_efficient(paid, total: float, tol: float) -> None:
    """The payoffs' sum ``paid`` must be v(N) ``total`` within ``tol``; nan or inf fails."""
    if not abs(paid - total) <= tol:
        raise NotEfficient(f"payoffs sum to {float(paid):.8f}, grand value is {total:.8f}")


def _share(n_violating: int, size: int) -> float:
    return 1.0 if n_violating == 0 else 1.0 - n_violating / ((1 << size) - 2)


class ClassWindows:
    """The windows of one family's subset classes, computed for each table.

    Each truck of a type is paid ``p0 + p1*t`` for its type's ``(p0, p1)`` in
    ``lines`` (ET line, FPT line), and the rates are ``rates0 + t*rates1``, at
    the distance and money tolerance of ``params``. A class (e, f) counting
    ``count`` subsets has excess v(S) - x(S) - tol = ``a + b*t``; rounding can
    flip its sign only where ``|a + b*t| <= err0 + err1*t``, the errs being
    ``_ROUNDING`` times the terms' magnitudes: near the root ``-a/b``, or from
    some t on where ``b`` is rounding noise. That span is the class's window
    ``(end, start, change, below)``: ``below`` of its subsets block before
    it, and ``below + change`` after it.

    Tables that share no window, as fig5's, build faster in this one pass:
    through a ``SharedWindows`` store fig5's 39 tables at size 40 took a quarter
    longer (median of 60 interleaved runs, 2-vCPU host, Python 3.11).
    """

    def __init__(self, params: SavingsParams, lines, rates0, rates1):
        self.params, self.tol = params, params.money_tol()
        self._family = (params.distance, lines, rates0, rates1)

    def rows(self, combs, n: int) -> list:
        """The windows of the classes (e, f) with e, f indexing ``combs``' two
        lists of subset counts, in one pass; none for the empty class or a
        class of all ``n`` trucks."""
        return self._windows(product(*map(enumerate, combs)), n)

    def _windows(self, classes, n: int) -> list:
        """The one excess and rounding rule, over ((e, ways_e), (f, ways_f)) pairs."""
        dist, ((pe0, pe1), (pf0, pf1)), (ee0, ef0), (ee1, ef1) = self._family
        tol, inf = self.tol, math.inf
        tiny = sys.float_info.min  # a floor for underflow
        ape0, apf0, ape1, apf1 = abs(pe0), abs(pf0), abs(pe1), abs(pf1)
        rows = []
        for (e, ways_e), (f, ways_f) in classes:
            if not 0 < e + f < n:
                continue
            count = ways_e * ways_f
            v0 = rate_for_counts(e, f, ee0, ef0) * dist
            v1 = rate_for_counts(e, f, ee1, ef1) * dist
            a, b = v0 - (e * pe0 + f * pf0) - tol, v1 - (e * pe1 + f * pf1)
            err0 = _ROUNDING * (abs(v0) + (e * ape0 + f * apf0) + tol) + tiny
            err1 = _ROUNDING * (abs(v1) + (e * ape1 + f * apf1)) + tiny
            slope = abs(b)
            root = -a / b if slope > 2 * err1 else inf
            if -inf < root < inf:
                half = 2 * (err0 + err1 * abs(root)) / slope
                rows.append((root + half, root - half, count if b > 0 else -count,
                             count if b < 0 else 0))
            else:
                rows.append((inf, (abs(a) - err0) / (slope + err1), 0, count if a > 0 else 0))
        return rows


class SharedWindows(ClassWindows):
    """``ClassWindows`` that the tables of one family share, each (e, f)'s
    window stored at count 1 and multiplied by each table's counts.

    A window depends on (e, f) and the family alone wherever the family's pay
    lines do not depend on the fleet: true of the leader-share lines, not of
    fig5's type-fair ones. A table of ``n`` trucks cuts its row of e ETs at
    n - e FPTs, since the store may hold the class of its whole fleet.
    """

    def __init__(self, params: SavingsParams, lines, rates0, rates1):
        super().__init__(params, lines, rates0, rates1)
        self._store: list[list] = []  # _store[e][f - (e == 0)]: (e, f)'s window at count 1

    def rows(self, combs, n: int) -> list:
        comb_e, comb_f = combs
        store = self._store
        store += [[] for _ in range(len(comb_e) - len(store))]
        rows = []
        for e, (kept, ways_e) in enumerate(zip(store, comb_e)):
            first = e == 0  # the empty class has no window
            if len(kept) + first < len(comb_f):
                fs = [(f, 1) for f in range(len(kept) + first, len(comb_f))]
                kept += self._windows(product([(e, 1)], fs), math.inf)
            rows += [(end, start, change * count, count if below else 0)
                     for (end, start, change, below), ways_f in zip(kept, comb_f[first:n - e])
                     for count in [ways_e * ways_f]]
        return rows


class Breakpoints:
    """Class scan of a composition along allocations affine in a parameter t.

    ``point(t)`` gives the member at t as ``(classes, params)``, its
    ``(truck type, pay, count)`` classes counting ``comp``'s trucks. A table
    class is a sub-composition (e, f) of the trucks other than ``leader`` (a
    ``TruckType``, or None), counting comb(m_e, e)*comb(m_f, f) subsets; a
    named leader's subsets must block at no point, and the class cap counts
    them. A point must sum to v(N) within its params' money tolerance; its
    count bisects ``windows``' rows sorted by end, with cumulative labeled
    counts. Inside a window, or at another money tolerance than the windows',
    ``_violations`` scans the point's classes, equal (type, pay) pairs merged
    in order, as ``in_core`` merges them on ``Fleet.from_composition(comp)``.
    ``params`` are the windows' params.
    """

    def __init__(self, comp: Composition, windows: ClassWindows, point, leader=None):
        m_e = comp.n_e - (leader is TruckType.ELECTRIC)
        m_f = comp.n_f - (leader is TruckType.FUEL)
        _check_class_cap((leader is not None, m_e, m_f))  # the leader's class still counts
        self.comp, self.size, self._point = comp, comp.total(), point
        self.params, self._tol = windows.params, windows.tol
        self._grand = None, None, None  # (params, v(N), money_tol) of the last point
        # a stable sort keeps windows of equal end (every flat one ends at inf) in
        # (e, f) order, whichever windows built them
        self.windows = sorted(windows.rows(map(_binomials, (m_e, m_f)), self.size),
                              key=itemgetter(0))
        self._ends = list(map(itemgetter(0), self.windows))
        base = sum(map(itemgetter(3), self.windows))
        self._counts = list(accumulate(map(itemgetter(2), self.windows), initial=base))
        # _starts[j]: the earliest start among windows j and later
        starts, least = [math.inf], math.inf
        for _, start, _, _ in reversed(self.windows):
            least = start if start < least else least
            starts.append(least)
        self._starts = starts[::-1]

    def at(self, t: float) -> tuple[tuple, int]:
        """The payoff classes at ``t`` and the labeled count of subsets blocking them."""
        classes, params = self._point(t)
        if sum(count for _, _, count in classes) != self.size:
            raise ValueError(f"payoff classes do not count a fleet of {self.size}")
        if params is not self._grand[0]:
            self._grand = params, *_grand_value(self.comp, params)
        _, total, tol = self._grand
        _check_efficient(sum(count * pay for _, pay, count in classes), total, tol)
        j = bisect_left(self._ends, t)
        if t >= self._starts[j] or tol != self._tol:
            tally = Counter()
            for truck_type, pay, count in classes:
                tally[truck_type, pay] += count
            return classes, sum(_violations(tally, self.size, params).values())
        return classes, self._counts[j]

    def probability(self, t: float) -> float:
        return _share(self.at(t)[1], self.size)


def in_core(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> CoreReport:
    """Decide core membership of an efficient allocation.

    Efficiency sums count*pay over the (type, pay) classes, as ``Breakpoints.at``
    does. ``method`` "auto" takes the class scan, exact for any allocation;
    "slow" the labeled oracle, loaded from ``platoonshare.oracles`` only then.
    """
    if method not in ("auto", "slow"):
        raise ValueError(f"unknown method {method!r}")
    if len(alloc.payoffs) != fleet.size:
        raise ValueError(f"{len(alloc.payoffs)} payoffs for a fleet of {fleet.size}")
    classes = Counter(zip(fleet.types, alloc.payoffs))
    paid = sum(count * pay for (_, pay), count in classes.items())
    _check_efficient(paid, *_grand_value(fleet.composition(), params))
    if method == "slow":
        from .oracles import labeled_violations
        violations = labeled_violations(alloc, fleet, params)
    else:
        violations = _violations(classes, fleet.size, params)

    n_violating = sum(violations.values())
    blocking = tuple(
        (Composition(n_e, n_f), count)
        for (n_e, n_f), count in sorted(violations.items())
    )
    return CoreReport(n_violating == 0, blocking, _share(n_violating, fleet.size))


def shapley_core_condition_exact(comp: Composition, params: SavingsParams) -> bool:
    """Necessary and sufficient composition-level test for the type-fair payoff.

    Only subset classes with some but not all of the electric trucks can
    gain by leaving. Of those, the ones keeping every fuel truck gain the
    most, and their bound on the rate ratio is n_f/n whatever their number
    of electric trucks; so for n_e >= 2 the ratio test is also necessary,
    and a single-ET fleet, with no such class, passes at any rate ratio.
    """
    return shapley_core_condition_ratio(comp, params) or comp.n_e == 1


def shapley_core_condition_ratio(comp: Composition, params: SavingsParams) -> bool:
    """One-line sufficient test: rate ratio at least the fuel-truck share."""
    if comp.n_e < 1 or comp.n_f < 1:
        raise BothTypesRequired("condition is defined for mixed fleets")
    ratio = params.epsilon_e / params.epsilon_f
    return ratio >= comp.n_f / comp.total() - REL_TOL
