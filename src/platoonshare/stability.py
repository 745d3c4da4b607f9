"""Core-membership certification and the stability probability.

Every verdict follows one rule: a subset S blocks if v(S) - x(S) exceeds
the money tolerance, decided exactly on the float inputs' values, in ints
over one denominator (``_scaled``). One subset scan backs every verdict:
trucks of the same type paid exactly the same are interchangeable, so it
visits the classes of such subsets and weights each by its binomial
multiplicity, one slice of picks of the largest class per row of the
others. Sweeps along a family of allocations affine in one parameter read a
``SweepTable`` per composition: a point is its pays to the leader, each ET
follower and each FPT follower, which the table lays out as payoff classes,
and its count is one range of FPT counts per row of e ETs (a type-fair table
reads rate ratios in (0, 1] only). The labeled enumeration
over all 2^N - 2 proper subsets that cross-checks both is an oracle in
``platoonshare.oracles``, run only on request (``method="slow"``).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, compress, product, repeat
from operator import is_, itemgetter, mul
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
) -> tuple[list[int], int]:
    """Scan of the subset classes of interchangeable trucks, weighted by count.

    ``classes`` maps (is fuel, pay) to its number of trucks in a fleet of
    ``n``; such trucks are interchangeable: a subset takes k of a class of m
    in comb(m, k) ways. A subset S blocks if v(S) - x(S) > tol, exactly on the
    float inputs' values, in ints from ``_scaled``: v(S) = v_e*e + v_f*f - lead,
    v_e = d*eps_e and v_f = d*eps_f, lead that of S's leader, so its excess is
    the sum of k*(v - pay) over its picks, less lead. One list of rows (key
    e*(n_f + 1) + f, that sum less tol, count) holds the picks of all classes
    but the largest: each class keeps the rows it finds, its k = 0 picks, and
    appends each of them extended by k = 1..m of its m trucks. Along the
    largest class a row's excess is affine in k for k >= 1, where the lead is
    fixed, so its blocking picks are a slice of one list of (key offset,
    comb(m, k)) for k = 1..m: a suffix if the excess grows with k, a prefix
    if it falls; k = 0 is checked on its own. Returns the blocking count of
    each key, flat, whole fleet and empty set 0, and the keys' width n_f + 1:
    key e*width + f, so the keys ascend in (e, f).
    """
    _check_class_cap(classes.values())
    # the largest class last; an empty fleet scans one class of no trucks
    order = sorted(classes.items(), key=itemgetter(1)) or [((True, 0.0), 0)]
    n_f = sum(compress(classes.values(), map(itemgetter(0), classes)))
    _, v_e, v_f, tol, *pays = _scaled(params, *(pay for (_, pay), _ in order))
    gains = [(v_f if fuel else v_e) - pay for ((fuel, _), _), pay in zip(order, pays)]
    rows = [(0, -tol, 1)]  # each sum less tol
    for ((fuel, _), size), gain in zip(order[:-1], gains):
        step = 1 if fuel else n_f + 1  # a truck's step in a key
        # the rows with k = 1..size of the class's trucks; one truck takes no binomials
        rows += ([(key + step, s + gain, c) for key, s, c in rows] if size == 1 else
                 [(key + k * step, s + k * gain, c * w)
                  for k, w in enumerate(_binomials(size)[1:], 1) for key, s, c in rows])
    ((fuel, _), m), gain = order[-1], gains[-1]
    step, lead = (1, v_f) if fuel else (n_f + 1, v_e)  # an FPT-led row's lead for k >= 1
    picks = [(k * step, w) for k, w in enumerate(_binomials(m)[1:], 1)]
    blocking = [0] * ((n - n_f + 1) * (n_f + 1))
    for key, s, c in rows:  # the row holds an ET, which leads, if key > n_f
        if s > (v_e if key > n_f else v_f):  # k = 0; the empty row never blocks
            blocking[key] += c
        rest = s - (v_e if key > n_f else lead)  # for k >= 1 the excess less tol is rest + k*gain
        if rest > 0:
            chosen = picks[:(rest - 1) // -gain] if gain < 0 else picks
        elif gain > 0:
            chosen = picks[-rest // gain:]
        else:
            continue
        for offset, w in chosen:
            blocking[key + offset] += c * w
    blocking[-1] = 0  # the whole fleet
    return blocking, n_f + 1


def _check_efficient(paid, total: float, tol: float) -> None:
    """The payoffs' sum ``paid`` must be v(N) ``total`` within ``tol``; nan or inf fails."""
    if not abs(paid - total) <= tol:
        raise NotEfficient(f"payoffs sum to {float(paid):.8f}, grand value is {total:.8f}")


def _share(n_violating: int, size: int) -> float:
    return 1.0 if n_violating == 0 else 1.0 - n_violating / ((1 << size) - 2)


class SweepTable:
    """Exact class count of a composition along allocations affine in a parameter t.

    ``pays(t)`` gives the member at t as its pays ``(lead, pay_e, pay_f)``: the
    leader's, None with no ``leader`` (a ``TruckType``, or None), then each ET
    and each FPT follower's; a type with no followers may be paid anything, or
    None. The table lays ``comp``'s trucks out once as its payoff classes
    ``(truck type, pay, count)``, the leader's, the ET followers' and the FPT
    followers', leaving out any of no trucks, and reads each pay only for a
    class it holds, a follower pay it does not hold as 0. The rates are
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

    def __init__(self, comp: Composition, params: SavingsParams, pays, leader=None,
                 rate_e=None):
        m_e = comp.n_e - (leader is TruckType.ELECTRIC)
        m_f = comp.n_f - (leader is TruckType.FUEL)
        # the trucks each pay goes to: the leader, the ET and the FPT followers
        self._counts = int(leader is not None), m_e, m_f
        _check_class_cap(self._counts)  # the leader's class still counts
        self.comp, self.size, self.params, self._pays = comp, comp.total(), params, pays
        # (index into the pays, truck type, count) of each class the table holds
        self._layout = [(i, truck_type, count) for i, truck_type, count in zip(
            range(3), (leader, TruckType.ELECTRIC, TruckType.FUEL), self._counts) if count]
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
        pays = self._pays(t)
        classes = tuple([(truck_type, pays[i], count) for i, truck_type, count in self._layout])
        total, d_ee = self._at_rate(self._rate_e(t)) if self._rate_e else self._fixed_e
        _check_efficient(sum(count * pay for _, pay, count in classes), total, self._tol)
        _, p, f = [pay if count else 0 for pay, count in zip(pays, self._counts)]
        (a, q_a), (p, q_p), (f, q_f) = d_ee, p.as_integer_ratio(), f.as_integer_ratio()
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
    Both decide each subset by the exact rule of ``_violations`` and return
    its flat counts, one per (e, f) key, and the keys' width; the report's
    pairs are built from the keys of the counts that are not 0, in order,
    and its probability from their sum.
    """
    if method not in ("auto", "slow"):
        raise InvalidInput(f"unknown method {method!r}")
    if len(alloc.payoffs) != fleet.size:
        raise InvalidInput(f"{len(alloc.payoffs)} payoffs for a fleet of {fleet.size}")
    classes = Counter(zip(map(is_, fleet.types, repeat(TruckType.FUEL)), alloc.payoffs))
    paid = sum(map(mul, classes.values(), map(itemgetter(1), classes)))
    params.check_fleet_size(fleet.size)
    _check_efficient(paid, coalition_value(fleet.composition(), params), params.money_tol())
    if method == "slow":
        from .oracles import labeled_violations
        counts, width = labeled_violations(alloc, fleet, params)
    else:
        counts, width = _violations(classes, fleet.size, params)
    keys = compress(product(range(len(counts) // width), range(width)), counts)
    blocking = tuple(zip(map(tuple.__new__, repeat(Composition), keys), filter(None, counts)))
    return CoreReport(not blocking, blocking, _share(sum(counts), fleet.size))


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
