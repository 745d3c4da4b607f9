"""Benefit allocation for mixed-energy truck platoons.

Coalition valuation with optimal leader selection, four payoff schemes,
subset-class and composition-level core certification, and deviation
analysis against the type-fair benchmark. The exhaustive twins that
cross-check them load only from ``platoonshare.oracles``.
"""

from .allocate import (
    Allocation,
    deviation_minimizing_allocation,
    even_split,
    shapley_allocation,
    shapley_closed_form,
    stable_allocation,
    stable_tables,
    xi_upper_bound,
)
from .errors import (
    BothTypesRequired,
    ConditionHolds,
    EpsilonOrderError,
    FleetTooLarge,
    FleetTooSmall,
    GameError,
    InvalidInput,
    InvalidPartition,
    NotEfficient,
    XiOutOfRange,
    ZeroShapleyPayoff,
)
from .fairness import (
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
)

__version__ = "0.1.0"
