"""Domain exceptions shared across the package.

Every precondition the library checks raises a GameError, so callers (and
the CLI, whose exit code 3 means one) can tell a broken precondition from a
bug. A value outside an operation's domain is an InvalidInput, a ValueError.
"""


class GameError(Exception):
    """Base class for all domain errors."""


class InvalidInput(GameError, ValueError):
    """A value outside an operation's domain, such as a bad rate, count or length."""


class InvalidPartition(GameError):
    """Coalition structure blocks overlap or do not cover the fleet."""


class FleetTooSmall(GameError):
    """Fleet below an operation's minimum: one truck, or two for a grand coalition."""


class FleetTooLarge(GameError):
    """Fleet exceeds the size cap of an exhaustive operation."""


class XiOutOfRange(GameError):
    """Leader share xi must lie in (0, 1], and a xi* must span a sweep's grid."""


class EpsilonOrderError(GameError):
    """Operation requires the electric saving rate below the fuel rate."""


class ConditionHolds(GameError):
    """The ratio core condition holds; the fallback scheme does not apply."""


class NotEfficient(GameError):
    """Payoffs do not sum to the grand-coalition value."""


class BothTypesRequired(GameError):
    """Operation is defined only for mixed fleets."""


class ZeroShapleyPayoff(GameError):
    """Relative deviation is undefined against a zero benchmark payoff."""
