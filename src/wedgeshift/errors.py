"""Exception types shared across the package."""


class GroundMismatchError(ValueError):
    """Operands live over different ground dimensions, grades, or orders."""


class HomogeneityError(ValueError):
    """A homogeneous multivector was required."""


class ParseError(ValueError):
    """Malformed textual or record input."""


class BudgetExceededError(RuntimeError):
    """An enumeration would pass its node budget, or dense work a size cap."""


class IterationLimitError(RuntimeError):
    """A round-robin limiting drive hit its round cap without stabilizing."""


class FalsificationError(RuntimeError):
    """A claim the computation is supposed to certify failed to hold."""
