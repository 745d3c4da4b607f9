"""Core-membership certification and the stability probability.

One subset scan backs every verdict: trucks of the same type paid exactly
the same are interchangeable, so it visits the classes of such subsets
and weights each by its binomial multiplicity, summing the payoff classes
in one order whatever the trucks' ids, its v(S) tables and binomial rows
memoized (128 of each, of up to 256 entries) for verdicts that repeat a
composition and rates, or a class size. Sweeps along a family of
allocations affine in one parameter read ``Breakpoints``, the same classes
turned into sorted thresholds per composition: a point is its payoff classes,
and a table reads its windows, rates and one money tolerance from its family's
``ClassWindows`` (a type-fair table reads rate ratios in (0, 1] only).
The labeled enumeration over all 2^N - 2 proper subsets that cross-checks
both is an oracle in ``platoonshare.oracles``, run only on request
(``method="slow"``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, gt, is_, itemgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import BothTypesRequired, FleetTooLarge, InvalidInput, NotEfficient
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
# The class scan holds one entry per pick of all payoff classes but the
# largest, and is capped at 2^CLASS_SCAN_CAP_BITS subset classes.
CLASS_SCAN_CAP_BITS = 20
# Breakpoints' rounding bound, relative to the magnitude of an excess's terms
_ROUNDING = 32 * sys.float_info.epsilon
_MEMO_SIZE, _MEMO_ENTRIES = 128, 256  # results per memo, and entries per result at most


class CoreReport(NamedTuple):
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
    if math.prod(size + 1 for size in sizes) > 1 << CLASS_SCAN_CAP_BITS:
        raise FleetTooLarge(f"scan capped at 2^{CLASS_SCAN_CAP_BITS} subset classes")


@lru_cache(maxsize=_MEMO_SIZE)
def _binomial_row(m: int) -> tuple[int, ...]:
    """The row comb(m, k) for k = 0..m, each entry from the one before."""
    row = [1]
    for k in range(m):
        row.append(row[-1] * (m - k) // (k + 1))
    return tuple(row)


def _binomials(m: int) -> tuple[int, ...]:
    """``_binomial_row(m)``, memoized if it has at most ``_MEMO_ENTRIES`` entries."""
    return (_binomial_row if m < _MEMO_ENTRIES else _binomial_row.__wrapped__)(m)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)  # typed: exact int params keep their own table
def _worth(n_e: int, n_f: int, ee, ef, dist) -> tuple:
    """v(S) of each (e, f) at key e*(n_f + 1) + f; -inf, never blocking, for {} and N."""
    return tuple(rate_for_counts(e, f, ee, ef) * dist if 0 < e + f < n_e + n_f else -math.inf
                 for e in range(n_e + 1) for f in range(n_f + 1))


def _violations(
    classes: Mapping[tuple[bool, float], int], n: int, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Scan of the subset classes of interchangeable trucks, weighted by count.

    ``classes`` maps (is fuel, pay) to its number of trucks in a fleet of
    ``n``; such trucks are interchangeable: a subset takes k of a class of m
    in comb(m, k) ways. The classes are summed in ascending (count, type,
    pay) order, ET before FPT, whatever the mapping's. One list of rows (key
    e*(n_f + 1) + f, sum, count) holds the picks of all classes but the last,
    the largest, each class extending every row by its k = 0..m trucks, and a
    row's m + 1 picks of the last class are compared together, each as v(S) >
    (row sum + k*pay) + tol, v(S) and the binomial rows read from memos. The
    result lists (e, f) in ascending order.
    """
    _check_class_cap(classes.values())
    order = sorted(zip(classes.values(), classes))  # (count, (is fuel, pay))
    if not order:
        return {}
    n_f = sum(size for size, (fuel, _) in order if fuel)
    rows = [(0, 0, 1)]
    for size, (fuel, pay) in order[:-1]:
        step = 1 if fuel else n_f + 1  # a truck's step in a key
        rows = [(key + k * step, s + k * pay, c * w)
                for k, w in enumerate(_binomials(size)) for key, s, c in rows]
    m, (fuel, pay) = order[-1]
    # one endless repeat of the money tolerance serves every row
    step, tols, taken = 1 if fuel else n_f + 1, repeat(params.money_tol()), range(m + 1)
    memo = _worth if (n - n_f + 1) * (n_f + 1) <= _MEMO_ENTRIES else _worth.__wrapped__
    worth = memo(n - n_f, n_f, params.epsilon_e, params.epsilon_f, params.distance)
    picks, ways, blocking = [k * pay for k in taken], _binomials(m), [0] * len(worth)
    for key, row_sum, count in rows:
        got = map(add, map(add, repeat(row_sum), picks), tols)
        for k in compress(taken, map(gt, worth[key:key + m * step + 1:step], got)):
            blocking[key + k * step] += count * ways[k]
    return {divmod(key, n_f + 1): c for key, c in compress(enumerate(blocking), blocking)}


def _check_efficient(paid, total: float, tol: float) -> None:
    """The payoffs' sum ``paid`` must be v(N) ``total`` within ``tol``; nan or inf fails."""
    if not abs(paid - total) <= tol:
        raise NotEfficient(f"payoffs sum to {float(paid):.8f}, grand value is {total:.8f}")


def _share(n_violating: int, size: int) -> float:
    return 1.0 if n_violating == 0 else 1.0 - n_violating / ((1 << size) - 2)


class ClassWindows:
    """The windows of one family's subset classes, stored at count 1 and
    multiplied by each table's subset counts.

    Each truck of a type is paid ``p0 + p1*t`` for its type's ``(p0, p1)`` in
    ``lines`` (ET line, FPT line), and the rates, which every table reads from
    here, are ``rates0 + t*rates1``, at the distance and one money tolerance of
    ``params``. A class (e, f) counting ``count`` subsets has excess
    v(S) - x(S) - tol = ``a + b*t``; rounding can flip its sign only where
    ``|a + b*t| <= err0 + err1*t``, the errs being ``_ROUNDING`` times the
    terms' magnitudes: near the root ``-a/b``, or from some t on where ``b``
    is rounding noise. That span is the class's window ``(end, start,
    change, below)``: ``below`` of its subsets block before it, and
    ``below + change`` after it.

    A window depends on (e, f) and the family alone, so one store serves
    every table of a family: all leader-share tables of a sweep share one,
    and each type-fair table, whose lines depend on its fleet, has its own.
    A table of ``n`` trucks cuts its row of e ETs at n - e FPTs, since the
    store may hold the class of its whole fleet.
    """

    def __init__(self, params: SavingsParams, lines, rates0, rates1):
        self.params, self.tol = params, params.money_tol()
        self._family = (params.distance, lines, rates0, rates1)
        self._store: list[list] = []  # _store[e][f - (e == 0)]: (e, f)'s window at count 1

    def rows(self, combs, n: int) -> list:
        """The windows of the classes (e, f) with e, f indexing ``combs``' two
        lists of subset counts; none for the empty class or a class of all
        ``n`` trucks. The store grows by the rows and columns it lacks."""
        comb_e, comb_f = combs
        store = self._store
        store += [[] for _ in range(len(comb_e) - len(store))]
        rows = []
        for e, (kept, ways_e) in enumerate(zip(store, comb_e)):
            first = e == 0  # the empty class has no window
            if len(kept) + first < len(comb_f):
                kept += self._windows(e, range(len(kept) + first, len(comb_f)))
            rows += [(end, start, change * count, count if below else 0)
                     for (end, start, change, below), ways_f in zip(kept, comb_f[first:n - e])
                     for count in [ways_e * ways_f]]
        return rows

    def _windows(self, e: int, fs) -> list:
        """The one excess and rounding rule: the count-1 windows of the
        classes (e, f) for f in ``fs``, the terms in e computed once."""
        dist, ((pe0, pe1), (pf0, pf1)), (ee0, ef0), (ee1, ef1) = self._family
        tol, inf = self.tol, math.inf
        tiny = sys.float_info.min  # a floor for underflow
        apf0, apf1 = abs(pf0), abs(pf1)
        ep0, ep1, eap0, eap1 = e * pe0, e * pe1, e * abs(pe0), e * abs(pe1)
        rows = []
        for f in fs:
            v0 = rate_for_counts(e, f, ee0, ef0) * dist
            v1 = rate_for_counts(e, f, ee1, ef1) * dist
            a, b = v0 - (ep0 + f * pf0) - tol, v1 - (ep1 + f * pf1)
            err0 = _ROUNDING * (abs(v0) + (eap0 + f * apf0) + tol) + tiny
            err1 = _ROUNDING * (abs(v1) + (eap1 + f * apf1)) + tiny
            slope = abs(b)
            root = -a / b if slope > 2 * err1 else inf
            if -inf < root < inf:
                half = 2 * (err0 + err1 * abs(root)) / slope
                rows.append((root + half, root - half, 1 if b > 0 else -1, 1 if b < 0 else 0))
            else:
                rows.append((inf, (abs(a) - err0) / (slope + err1), 0, 1 if a > 0 else 0))
        return rows


class Breakpoints:
    """Class scan of a composition along allocations affine in a parameter t.

    ``point(t)`` gives the member at t as its payoff classes, ``(truck type,
    pay, count)`` triples counting ``comp``'s trucks; its rates come from the
    family of ``windows``. A table class is a sub-composition (e, f) of the
    trucks other than ``leader`` (a ``TruckType``, or None), counting
    comb(m_e, e)*comb(m_f, f) subsets; a named leader's subsets must block at
    no point, and the class cap counts them. A point must sum to v(N) at t,
    v0 + t*v1 from the family's rates, within the table's one money
    tolerance; its count bisects ``windows``' rows sorted by end, with
    cumulative labeled counts. Inside a window ``_violations`` scans the
    point's classes at the params at t, each rate that moves along the family
    set and the others kept, equal (type, pay) pairs merged, as ``in_core``
    merges them on any roster of ``comp``. ``params`` are the windows' params.
    """

    def __init__(self, comp: Composition, windows: ClassWindows, point, leader=None):
        m_e = comp.n_e - (leader is TruckType.ELECTRIC)
        m_f = comp.n_f - (leader is TruckType.FUEL)
        _check_class_cap((leader is not None, m_e, m_f))  # the leader's class still counts
        self.comp, self.size, self._point = comp, comp.total(), point
        self.params, self._tol = windows.params, windows.tol
        dist, _, *self._rates = windows._family  # v(N) at t is v0 + t*v1, or v0 if v1 is 0
        self._total = [rate_for_counts(*comp, *rates) * dist for rates in self._rates]
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
        classes = self._point(t)
        if sum(count for _, _, count in classes) != self.size:
            raise InvalidInput(f"payoff classes do not count a fleet of {self.size}")
        v0, v1 = self._total
        _check_efficient(sum(count * pay for _, pay, count in classes),
                         v0 + t * v1 if v1 else v0, self._tol)
        j = bisect_left(self._ends, t)
        if t >= self._starts[j]:
            tally = Counter()
            for truck_type, pay, count in classes:
                tally[truck_type is TruckType.FUEL, pay] += count
            moved = zip(("epsilon_e", "epsilon_f"), *self._rates)  # (name, r0, r1) per rate
            params = self.params._replace(**{k: r0 + t * r1 for k, r0, r1 in moved if r1})
            return classes, sum(_violations(tally, self.size, params).values())
        return classes, self._counts[j]

    def probability(self, t: float) -> float:
        return _share(self.at(t)[1], self.size)


def in_core(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> CoreReport:
    """Decide core membership of an efficient allocation.

    Efficiency sums count*pay over the (type, pay) classes, as ``Breakpoints.at``
    does. ``method`` "auto" takes the class scan, exact for any allocation, its
    v(S) table memoized per composition and params; "slow" the labeled oracle,
    loaded from ``platoonshare.oracles`` only then.
    """
    if method not in ("auto", "slow"):
        raise InvalidInput(f"unknown method {method!r}")
    if len(alloc.payoffs) != fleet.size:
        raise InvalidInput(f"{len(alloc.payoffs)} payoffs for a fleet of {fleet.size}")
    classes = Counter(zip(map(is_, fleet.types, repeat(TruckType.FUEL)), alloc.payoffs))
    paid = sum(count * pay for (_, pay), count in classes.items())
    params.check_fleet_size(fleet.size)
    _check_efficient(paid, coalition_value(fleet.composition(), params), params.money_tol())
    if method == "slow":
        from .oracles import labeled_violations
        violations = labeled_violations(alloc, fleet, params)
    else:
        violations = _violations(classes, fleet.size, params)

    n_violating = sum(violations.values())
    blocking = tuple(zip(map(tuple.__new__, repeat(Composition), violations),
                         violations.values()))
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
