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
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import FleetTooLarge

# The one numeric tolerance, relative so that no verdict depends on the
# units of money or distance: dimensionless comparisons use it as-is,
# money comparisons through ``SavingsParams.money_tol``.
REL_TOL = 1e-9


class TruckType(enum.Enum):
    ELECTRIC = "ET"
    FUEL = "FPT"

    @property
    def code(self) -> str:
        """One-letter code used in structure notation (E electric, D diesel)."""
        return "E" if self is TruckType.ELECTRIC else "D"


@dataclass(frozen=True)
class SavingsParams:
    """Monetary saving rates (EUR/km), trip distance (km) and platoon cap.

    The rates only need to be positive, and their product with the
    distance and the platoon cap finite; operations whose derivation
    relies on epsilon_e < epsilon_f enforce that ordering themselves, so
    ratio sweeps up to epsilon_e/epsilon_f = 1 stay expressible.
    """

    epsilon_f: float
    epsilon_e: float
    distance: float
    max_platoon_size: int = 15

    def __post_init__(self) -> None:
        if not (self.epsilon_f > 0 and self.epsilon_e > 0 and self.distance > 0):
            raise ValueError("saving rates and distance must be positive")
        if self.max_platoon_size < 2:
            raise ValueError("max_platoon_size must be at least 2")
        # bounds every coalition worth and payoff sum, and rejects inf inputs
        largest = max(self.epsilon_e, self.epsilon_f) * self.distance
        try:
            worth = largest * self.max_platoon_size
        except OverflowError:  # an integer cap beyond float range
            worth = math.inf
        if not worth < math.inf:
            raise ValueError("max rate x distance x max_platoon_size must be finite")

    def money_tol(self) -> float:
        """Money tolerance: REL_TOL of the largest per-truck saving."""
        return REL_TOL * max(self.epsilon_e, self.epsilon_f) * self.distance

    def check_fleet_size(self, size: int) -> None:
        if size > self.max_platoon_size:
            raise FleetTooLarge(
                f"fleet of {size} exceeds max platoon size {self.max_platoon_size}"
            )


@dataclass(frozen=True, order=True)
class Composition:
    """Unordered type counts (electric, fuel-powered) of a coalition."""

    n_e: int
    n_f: int

    def __post_init__(self) -> None:
        if self.n_e < 0 or self.n_f < 0:
            raise ValueError("counts must be non-negative")

    def total(self) -> int:
        return self.n_e + self.n_f


@dataclass(frozen=True)
class Fleet:
    """Labeled roster; truck ids are the positions 0..N-1."""

    types: tuple[TruckType, ...]

    @classmethod
    def from_composition(cls, comp: Composition) -> "Fleet":
        """Deterministic roster: electric trucks first, then fuel-powered."""
        return cls((TruckType.ELECTRIC,) * comp.n_e + (TruckType.FUEL,) * comp.n_f)

    @property
    def size(self) -> int:
        return len(self.types)

    def ids(self) -> range:
        return range(self.size)

    def composition(self) -> Composition:
        n_e = sum(1 for t in self.types if t is TruckType.ELECTRIC)
        return Composition(n_e, self.size - n_e)

    def subset_composition(self, members: Iterable[int]) -> Composition:
        ids = set(members)
        if not ids <= set(self.ids()):
            raise ValueError("members outside fleet")
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


def _partition_sort_key(blocks: tuple[Composition, ...]):
    # Presentation order of the benefit table: fewer blocks first, larger
    # smallest block first, then larger blocks first, then fewer electric
    # trucks in the leading blocks first.
    sizes = tuple(b.total() for b in blocks)
    return (len(blocks), -min(sizes), tuple(-s for s in sizes),
            tuple(b.n_e for b in blocks))


def enumerate_type_structures(comp: Composition) -> list[tuple[Composition, ...]]:
    """All partitions of the type multiset into non-empty platoons.

    Two structures are the same iff their multisets of block compositions
    are equal. Blocks inside a structure are ordered by (size desc, n_e
    desc); structures are returned in the canonical table order.
    """
    if comp.total() < 1:
        raise ValueError("composition must contain at least one truck")

    results: list[tuple[Composition, ...]] = []

    def extend(rem_e: int, rem_f: int, min_key: tuple[int, int],
               acc: list[Composition]) -> None:
        if rem_e == 0 and rem_f == 0:
            results.append(tuple(acc))
            return
        for b_e in range(rem_e + 1):
            for b_f in range(rem_f + 1):
                if b_e + b_f == 0:
                    continue
                key = (-(b_e + b_f), -b_e)
                if key < min_key:  # keep blocks non-increasing: no duplicates
                    continue
                acc.append(Composition(b_e, b_f))
                extend(rem_e - b_e, rem_f - b_f, key, acc)
                acc.pop()

    extend(comp.n_e, comp.n_f, (-comp.total(), -comp.n_e), [])
    results.sort(key=_partition_sort_key)
    return results


def block_notation(comp: Composition) -> str:
    """Render a block as e.g. ``(EDD)``: electric trucks first."""
    return "(" + "E" * comp.n_e + "D" * comp.n_f + ")"


def structure_notation(blocks: Sequence[Composition]) -> str:
    """Render a structure as e.g. ``(EE),(DDD)``: small blocks first."""
    ordered = sorted(blocks, key=lambda b: (b.total(), -b.n_e))
    return ",".join(block_notation(b) for b in ordered)
