"""Benefit allocation for mixed-energy truck platoons.

Coalition valuation with optimal leader selection, four payoff schemes,
subset-class and composition-level core certification, and deviation
analysis against the type-fair benchmark; ``oracles`` cross-checks them.
"""

from .allocate import (
    Allocation,
    deviation_minimizing_allocation,
    even_split,
    shapley_allocation,
    shapley_closed_form,
    stable_allocation,
    xi_upper_bound,
)
from .errors import (
    BothTypesRequired,
    ConditionHolds,
    EpsilonOrderError,
    FleetTooLarge,
    FleetTooSmall,
    GameError,
    InvalidPartition,
    NotEfficient,
    TooManyStructures,
    XiOutOfRange,
    ZeroShapleyPayoff,
)
from .fairness import (
    DeviationCurve,
    DeviationPoint,
    default_xi_grid,
    deviation_curve,
    mean_relative_deviation,
)
from .game import (
    Composition,
    Fleet,
    SavingsParams,
    TruckType,
    coalition_value,
    enumerate_type_structures,
    optimal_leader_type,
)
from .stability import (
    CoreReport,
    in_core,
    shapley_core_condition_exact,
    shapley_core_condition_ratio,
    stability_probability,
)

__version__ = "0.1.0"

# Cross-check-only names from ``oracles``, loaded on first use by __getattr__.
_ORACLES = ("check_superadditivity", "coalition_value_with_leader",
            "labeled_partitions", "shapley_bruteforce", "structure_value")


def __getattr__(name: str):
    if name in _ORACLES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
