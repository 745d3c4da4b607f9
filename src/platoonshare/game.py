"""Domain types and the coalition valuation for mixed-energy truck platoons.

A platoon coalition earns the per-distance savings of its followers; the
leader earns nothing directly. With both truck types present an electric
truck leads (its follower saving rate is the one worth giving up when the
rates are ordered), so a coalition's value depends only on how many trucks
of each type it contains. The module also enumerates the type-level
platoon structures; their labeled twins and the superadditivity scan are
oracles in ``platoonshare.oracles``.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left
from typing import Iterable, NamedTuple, Optional

from .errors import FleetTooLarge, FleetTooSmall, InvalidInput

# The one numeric tolerance, relative so that no verdict depends on the
# units of money or distance: dimensionless comparisons use it as-is,
# money comparisons through ``SavingsParams.money_tol``.
REL_TOL = 1e-9
# Type-level structures grow about 2.8x per added ET + FPT pair: 339 at 5 + 5.
STRUCTURE_MAX_TRUCKS = 10


class TruckType(enum.Enum):
    ELECTRIC = "ET"
    FUEL = "FPT"

    @property
    def code(self) -> str:
        """One-letter code used in structure notation (E electric, D diesel)."""
        return "E" if self is TruckType.ELECTRIC else "D"


class _Checked:
    """Mixin over a NamedTuple whose ``__new__`` checks its values: stock
    ``_make``, and so ``_replace``, would call ``tuple.__new__`` and skip it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _SavingsFields(NamedTuple):
    epsilon_f: float
    epsilon_e: float
    distance: float
    max_platoon_size: int


class SavingsParams(_Checked, _SavingsFields):
    """Monetary saving rates (EUR/km), trip distance (km) and platoon cap.

    The rates only need to be positive, their product with the platoon cap
    and the larger of 1 and the distance finite, and ``money_tol`` a normal
    float; operations whose derivation relies on epsilon_e < epsilon_f
    enforce that ordering themselves, so ratio sweeps up to
    epsilon_e/epsilon_f = 1 stay expressible.
    """

    __slots__ = ()

    def __new__(cls, epsilon_f: float, epsilon_e: float, distance: float,
                max_platoon_size: int = 15):
        self = tuple.__new__(cls, (epsilon_f, epsilon_e, distance, max_platoon_size))
        self._check()
        return self

    def _check(self) -> None:
        if not (self.epsilon_f > 0 and self.epsilon_e > 0 and self.distance > 0):
            raise InvalidInput("saving rates and distance must be positive")
        if not isinstance(self.max_platoon_size, int) or self.max_platoon_size < 2:
            raise InvalidInput("max_platoon_size must be an integer of at least 2")
        # bounds every rate sum, coalition worth and payoff sum, and rejects inf
        # inputs; below a distance of 1 the rate sums are the larger terms
        try:  # in floats, as exact int or Fraction inputs stay finite past float range
            worth = 1.0 * max(self.epsilon_e, self.epsilon_f) * max(1, self.distance)
            worth *= self.max_platoon_size
        except OverflowError:  # an exact input beyond float range
            worth = math.inf
        if not worth < math.inf:
            raise InvalidInput("max rate x max(1, distance) x max_platoon_size must be finite")
        # a subnormal or zero tolerance would fail exact payoff sums as inefficient
        if self.money_tol() < sys.float_info.min:
            raise InvalidInput("max rate x distance is too small for a money tolerance")

    def money_tol(self) -> float:
        """Money tolerance: REL_TOL of the largest per-truck saving."""
        return REL_TOL * max(self.epsilon_e, self.epsilon_f) * self.distance

    def check_fleet_size(self, size: int) -> None:
        if size > self.max_platoon_size:
            raise FleetTooLarge(
                f"fleet of {size} exceeds max platoon size {self.max_platoon_size}"
            )


class Composition(_Checked, NamedTuple("_CompositionFields", [("n_e", int), ("n_f", int)])):
    """Unordered type counts (electric, fuel-powered) of a coalition."""

    __slots__ = ()

    def __new__(cls, n_e: int, n_f: int):
        if not (isinstance(n_e, int) and isinstance(n_f, int) and n_e >= 0 and n_f >= 0):
            raise InvalidInput("counts must be non-negative integers")
        return tuple.__new__(cls, (n_e, n_f))

    def total(self) -> int:
        return self.n_e + self.n_f


class Fleet(NamedTuple):
    """Labeled roster; truck ids are the positions 0..N-1."""

    types: tuple[TruckType, ...]

    @classmethod
    def from_composition(cls, comp: Composition) -> "Fleet":
        """Deterministic roster: electric trucks first, then fuel-powered."""
        if comp.total() > sys.maxsize:
            raise FleetTooLarge(f"a roster holds at most {sys.maxsize} trucks")
        return cls((TruckType.ELECTRIC,) * comp.n_e + (TruckType.FUEL,) * comp.n_f)

    @property
    def size(self) -> int:
        return len(self.types)

    def ids(self) -> range:
        return range(self.size)

    def composition(self) -> Composition:
        n_e = self.types.count(TruckType.ELECTRIC)
        return Composition(n_e, self.size - n_e)

    def subset_composition(self, members: Iterable[int]) -> Composition:
        ids = set(members)
        if not ids <= set(self.ids()):
            raise InvalidInput("members outside fleet")
        n_e = sum(1 for i in ids if self.types[i] is TruckType.ELECTRIC)
        return Composition(n_e, len(ids) - n_e)


def rate_for_counts(n_e: int, n_f: int, epsilon_e: float, epsilon_f: float) -> float:
    """Saving rate per km for raw type counts; the primitive everything uses.

    An electric truck leads whenever one is present; otherwise a
    fuel-powered truck leads. Empty and singleton coalitions are worth 0.
    """
    if n_e >= 1:
        return epsilon_e * (n_e - 1) + epsilon_f * n_f
    if n_f >= 1:
        return epsilon_f * (n_f - 1)
    return 0.0


def coalition_value(comp: Composition, params: SavingsParams) -> float:
    """Total monetary benefit of a coalition over the trip distance."""
    rate = rate_for_counts(comp.n_e, comp.n_f, params.epsilon_e, params.epsilon_f)
    return rate * params.distance


def optimal_leader_type(comp: Composition) -> Optional[TruckType]:
    """Leader type the valuation assumes; None for an empty coalition."""
    if comp.n_e >= 1:
        return TruckType.ELECTRIC
    if comp.n_f >= 1:
        return TruckType.FUEL
    return None


def enumerate_type_structures(comp: Composition) -> list[tuple[Composition, ...]]:
    """All partitions of the type multiset into non-empty platoons.

    Two structures are the same iff their multisets of block compositions
    are equal. Blocks inside a structure are ordered by (size desc, n_e
    desc); structures are returned in the canonical table order: fewer
    blocks first, larger smallest block first, then larger blocks first,
    then fewer electric trucks in the leading blocks first. Capped at
    ``STRUCTURE_MAX_TRUCKS`` trucks.
    """
    n_e, n_f, n = comp.n_e, comp.n_f, comp.total()
    if n < 1:
        raise FleetTooSmall("need at least one truck")
    if n > STRUCTURE_MAX_TRUCKS:
        raise FleetTooLarge(f"structure table capped at {STRUCTURE_MAX_TRUCKS} trucks, got {n}")
    # Every block of the fleet in structure order, with its counts and its
    # size digit n - size (larger blocks sort first).
    blocks = [(Composition(b_e, size - b_e), b_e, size - b_e, n - size)
              for size in range(n, 0, -1)
              for b_e in range(min(size, n_e), max(0, size - n_f) - 1, -1)]
    # Per remainder, the blocks that fit it and leave what later blocks can
    # fill: (0, 1) comes last, so no block could take an ET left after it.
    fits = {(e, f): [i for i, (_, b_e, b_f, _) in enumerate(blocks)
                     if b_e <= e and b_f <= f and (b_e or b_f > 1 or not e)]
            for e in range(n_e + 1) for f in range(n_f + 1)}
    base, keyed = n + 1, {}

    def extend(rem_e: int, rem_f: int, start: int, acc: tuple, sizes: int, counts: int):
        # sizes, counts: acc's size digits and n_e as base-(n + 1) numerals,
        # which compare as those digit tuples do at one block count
        ids = fits[rem_e, rem_f]
        for i in ids[bisect_left(ids, start):]:  # indices never fall: no duplicates
            block, b_e, b_f, digit = blocks[i]
            e, f = rem_e - b_e, rem_f - b_f
            s, c = sizes * base + digit, counts * base + b_e
            if e or f:
                extend(e, f, i, acc + (block,), s, c)
            else:  # table order: block count, smallest size, sizes, n_e
                keyed[len(acc) + 1, digit, s, c] = acc + (block,)

    extend(n_e, n_f, 0, (), 0, 0)
    return [keyed[key] for key in sorted(keyed)]


def block_notation(comp: Composition) -> str:
    """Render a block as e.g. ``(EDD)``: electric trucks first."""
    return "(" + "E" * comp.n_e + "D" * comp.n_f + ")"
