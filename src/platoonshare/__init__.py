"""Benefit allocation for mixed-energy truck platoons.

Coalition valuation with optimal leader selection, four payoff schemes,
exhaustive and composition-level core certification, and deviation
analysis against the type-fair benchmark.
"""

from .allocate import (
    Allocation,
    deviation_minimizing_allocation,
    even_split,
    shapley_allocation,
    shapley_bruteforce,
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
    check_superadditivity,
    coalition_value,
    coalition_value_with_leader,
    enumerate_type_structures,
    labeled_partitions,
    optimal_leader_type,
    structure_value,
)
from .stability import (
    CoreReport,
    in_core,
    shapley_core_condition_exact,
    shapley_core_condition_ratio,
    stability_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "BothTypesRequired",
    "ConditionHolds",
    "Composition",
    "CoreReport",
    "DeviationCurve",
    "DeviationPoint",
    "EpsilonOrderError",
    "Fleet",
    "FleetTooLarge",
    "FleetTooSmall",
    "GameError",
    "InvalidPartition",
    "NotEfficient",
    "SavingsParams",
    "TooManyStructures",
    "TruckType",
    "XiOutOfRange",
    "ZeroShapleyPayoff",
    "check_superadditivity",
    "coalition_value",
    "coalition_value_with_leader",
    "default_xi_grid",
    "deviation_curve",
    "deviation_minimizing_allocation",
    "enumerate_type_structures",
    "even_split",
    "in_core",
    "labeled_partitions",
    "mean_relative_deviation",
    "optimal_leader_type",
    "shapley_allocation",
    "shapley_bruteforce",
    "shapley_closed_form",
    "shapley_core_condition_exact",
    "shapley_core_condition_ratio",
    "stability_probability",
    "stable_allocation",
    "structure_value",
    "xi_upper_bound",
]
