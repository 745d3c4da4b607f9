"""Core-membership certification and the stability probability.

Every verdict follows one rule: a subset S blocks if v(S) - x(S) exceeds
the money tolerance, decided exactly on the float inputs' values, in ints
over one denominator (``_scaled``). One subset scan backs every verdict:
trucks of the same type paid exactly the same are interchangeable, so it
visits the classes of such subsets and weights each by its binomial
multiplicity, one range of picks of the largest class per row of the
others. Sweeps along a family of allocations affine in one parameter read a
``SweepTable`` per composition: a point is its payoff classes, one pay per
follower type, and its count is one range of FPT counts per row of e ETs (a
type-fair table reads rate ratios in (0, 1] only). The labeled enumeration
over all 2^N - 2 proper subsets that cross-checks both is an oracle in
``platoonshare.oracles``, run only on request (``method="slow"``).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import is_, itemgetter
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
_FUEL = TruckType.FUEL


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


def _binomials(m: int) -> tuple[int, ...]:
    """The row comb(m, k) for k = 0..m, each entry of its first half from the one
    before, and mirrored."""
    row = [1] * (m + 1)
    for k in range(1, m // 2 + 1):
        row[k] = row[m - k] = row[k - 1] * (m - k + 1) // k
    return tuple(row)


def _scaled(params: SavingsParams, *pays) -> tuple[int, ...]:
    """q, then d*eps_e, d*eps_f, ``params.money_tol()`` and ``pays`` times q, as
    ints: the exact values of the inputs over one common denominator q."""
    dist = params.distance.as_integer_ratio()
    ratios = [_times(dist, params.epsilon_e.as_integer_ratio()),
              _times(dist, params.epsilon_f.as_integer_ratio()),
              params.money_tol().as_integer_ratio(), *(pay.as_integer_ratio() for pay in pays)]
    q = math.lcm(*(b for _, b in ratios))
    return q, *(a * (q // b) for a, b in ratios)


def _violations(
    classes: Mapping[tuple[bool, float], int], n: int, params: SavingsParams
) -> dict[tuple[int, int], int]:
    """Scan of the subset classes of interchangeable trucks, weighted by count.

    ``classes`` maps (is fuel, pay) to its number of trucks in a fleet of
    ``n``; such trucks are interchangeable: a subset takes k of a class of m
    in comb(m, k) ways. A subset S blocks if v(S) - x(S) > tol, exactly on the
    float inputs' values, in ints from ``_scaled``: v(S) = v_e*e + v_f*f - lead,
    v_e = d*eps_e and v_f = d*eps_f, lead that of S's leader, so its excess is
    the sum of k*(v - pay) over its picks, less lead. One list of rows (key
    e*(n_f + 1) + f, that sum, count) holds the picks of all classes but the
    largest, each class extending every row by its k = 0..m trucks. Along the
    largest class a row's excess is affine in k for k >= 1, where the lead is
    fixed, so its blocking picks are one range; k = 0 is checked on its own.
    The result lists (e, f) in ascending order.
    """
    _check_class_cap(classes.values())
    order = sorted(classes.items(), key=itemgetter(1))  # the largest class last
    if not order:
        return {}
    n_f = sum(size for (fuel, _), size in order if fuel)
    _, v_e, v_f, tol, *pays = _scaled(params, *(pay for (_, pay), _ in order))
    gains = [(v_f if fuel else v_e) - pay for ((fuel, _), _), pay in zip(order, pays)]
    rows = [(0, 0, 1)]
    for ((fuel, _), size), gain in zip(order[:-1], gains):
        step = 1 if fuel else n_f + 1  # a truck's step in a key
        rows = [(key + k * step, s + k * gain, c * w)
                for k, w in enumerate(_binomials(size)) for key, s, c in rows]
    ((fuel, _), m), gain = order[-1], gains[-1]
    step, ways = 1 if fuel else n_f + 1, _binomials(m)
    blocking = [0] * ((n - n_f + 1) * (n_f + 1))
    for key, s, c in rows:  # the row holds an ET, which leads, if key > n_f
        if s - (v_e if key > n_f else v_f) > tol:  # k = 0; the empty row never blocks
            blocking[key] += c
        # for k >= 1 the excess less tol is rest + k*gain
        rest = s - tol - (v_e if key > n_f or not fuel else v_f)
        if gain > 0:
            picks = range(max(1, -rest // gain + 1), m + 1)
        elif gain < 0:
            picks = range(1, min(m, (rest - 1) // -gain) + 1)
        else:
            picks = range(1, m + 1 if rest > 0 else 1)
        for k in picks:
            blocking[key + k * step] += c * ways[k]
    blocking[-1] = 0  # the whole fleet
    return {divmod(key, n_f + 1): c for key, c in compress(enumerate(blocking), blocking)}


def _check_efficient(paid, total: float, tol: float) -> None:
    """The payoffs' sum ``paid`` must be v(N) ``total`` within ``tol``; nan or inf fails."""
    if not abs(paid - total) <= tol:
        raise NotEfficient(f"payoffs sum to {float(paid):.8f}, grand value is {total:.8f}")


def _share(n_violating: int, size: int) -> float:
    return 1.0 if n_violating == 0 else 1.0 - n_violating / ((1 << size) - 2)


class SweepTable:
    """Exact class count of a composition along allocations affine in a parameter t.

    ``point(t)`` gives the member at t as its payoff classes, ``(truck type,
    pay, count)`` triples counting ``comp``'s trucks: the first class of
    ``leader``'s type (a ``TruckType``, or None) holds the leader, and each
    other truck of a type is paid its type's one follower pay. The rates are
    ``params``', but for the ET rate at t, ``rate_e(t)`` if given (the type-fair
    family's t*epsilon_f), at ``params``' distance d and one money tolerance
    tol. A point must sum to v(N) at t within tol. A class (e, f) of the m_e
    ETs and m_f FPTs other than the leader counts comb(m_e, e)*comb(m_f, f)
    subsets; a leader's subsets never block, though the class cap counts
    them, and with no leader the whole fleet is left out. A class blocks if
    v(S) - x(S) > tol, exactly on the float inputs' values over one common
    denominator: that excess is c_e + f*slope, slope = d*eps_f - pay_f, where
    c_0 = -d*eps_f - tol < 0 and c_e = -d*eps_e - tol + e*step for e >= 1,
    step = d*eps_e - pay_e. So a row of e ETs blocks at one range of f,
    counted off suffix sums of the FPTs' binomial row.
    """

    def __init__(self, comp: Composition, params: SavingsParams, point, leader=None,
                 rate_e=None):
        m_e = comp.n_e - (leader is TruckType.ELECTRIC)
        m_f = comp.n_f - (leader is TruckType.FUEL)
        _check_class_cap((leader is not None, m_e, m_f))  # the leader's class still counts
        self.comp, self.size, self.params, self._point = comp, comp.total(), params, point
        self._leader, self._tol, self._rate_e = leader, params.money_tol(), rate_e
        self._ways = _binomials(m_e)
        self._suffix = [*accumulate(reversed(_binomials(m_f)))][::-1] + [0]
        self._dist = params.distance.as_integer_ratio()
        # v(N) and d*eps_e, unless eps_e moves; and d*eps_f and tol over one denominator q
        self._fixed_e = None if rate_e else self._at_rate(params.epsilon_e)
        q, _, d_ef, tol = _scaled(params)
        self._fixed = q, d_ef, tol

    def at(self, t: float) -> tuple[tuple, int]:
        """The payoff classes at ``t`` and the labeled count of subsets blocking them."""
        classes = self._point(t)
        if sum(count for _, _, count in classes) != self.size:
            raise InvalidInput(f"payoff classes do not count a fleet of {self.size}")
        total, d_ee = self._at_rate(self._rate_e(t)) if self._rate_e else self._fixed_e
        _check_efficient(sum(count * pay for _, pay, count in classes), total, self._tol)
        pays, lead = {}, self._leader  # keyed by is fuel
        for truck_type, pay, count in classes:
            if truck_type is lead:  # the leader's class, which may hold followers too
                lead, count = None, count - 1
            if count and pays.setdefault(truck_type is _FUEL, pay) != pay:
                raise InvalidInput(f"the point pays two {truck_type.name} followers differently")
        (a, q_a), (p, q_p), (f, q_f) = (
            d_ee, pays.get(False, 0).as_integer_ratio(), pays.get(True, 0).as_integer_ratio())
        q, d_ef, tol = self._fixed
        if q % q_a or q % q_p or q % q_f:  # a finer denominator than the table's
            k = math.lcm(q, q_a, q_p, q_f) // q
            q, d_ef, tol = q * k, d_ef * k, tol * k
        d_ee, p, f = a * (q // q_a), p * (q // q_p), f * (q // q_f)
        return classes, self._count(-d_ef - tol, -p - tol, d_ee - p, d_ef - f)

    def _at_rate(self, ee) -> tuple:
        """v(N) at ET rate ``ee``, and d*ee as a (numerator, denominator) ratio."""
        return (rate_for_counts(*self.comp, ee, self.params.epsilon_f) * self.params.distance,
                _times(self._dist, ee.as_integer_ratio()))

    def _count(self, c0: int, c1: int, step: int, slope: int) -> int:
        """Labeled subsets whose excess c_e + f*slope is positive, c_e = c1 +
        (e - 1)*step for e >= 1, c0 < 0 for e = 0. Rows that block nothing are
        skipped at once, and if step >= 0, so are those after a row that blocks
        in full: they all do. A row that blocks some takes the most FPTs it can
        if slope > 0, and the fewest if slope < 0."""
        ways, suffix = self._ways, self._suffix
        m_e, m_f = len(ways) - 1, len(suffix) - 2
        top, low = (m_f * slope, 0) if slope > 0 else (0, m_f * slope)  # a row's extreme f*slope
        count = suffix[-c0 // slope + 1] if c0 + top > 0 else 0
        e, c = 1, c1
        while e <= m_e:
            if c + top <= 0:  # the row blocks nothing, nor does a later one if step <= 0
                if step <= 0:
                    break
                jump = (-c - top) // step + 1
                e, c = e + jump, c + jump * step
                continue
            if c + low > 0:  # the row blocks in full
                if step >= 0:
                    count += sum(ways[e:]) * suffix[0]
                    break
                count += ways[e] * suffix[0]
            elif slope > 0:
                count += ways[e] * suffix[-c // slope + 1]
            else:
                count += ways[e] * (suffix[0] - suffix[(c - 1) // -slope + 1])
            e, c = e + 1, c + step
        if self._leader is None and (c1 + (m_e - 1) * step if m_e else c0) + m_f * slope > 0:
            count -= 1  # the whole fleet, a row of every ET and FPT
        return count

    def probability(self, t: float) -> float:
        return _share(self.at(t)[1], self.size)


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two (numerator, denominator) ratios."""
    return a[0] * b[0], a[1] * b[1]


def in_core(
    alloc: "Allocation", fleet: Fleet, params: SavingsParams, method: str = "auto"
) -> CoreReport:
    """Decide core membership of an efficient allocation.

    Efficiency sums count*pay over the (type, pay) classes, as ``SweepTable.at``
    does. ``method`` "auto" takes the class scan, exact for any allocation;
    "slow" the labeled oracle, loaded from ``platoonshare.oracles`` only then.
    Both decide each subset by the exact rule of ``_violations``.
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
