"""Exception types shared across the package, and one refusal of bounds.

The split mirrors how callers need to react: bad input data, a violated
call contract, a blown resource budget, a question we could not settle,
and an internal consistency failure that indicates a bug.
"""


class StructureError(ValueError):
    """Input data does not describe a valid tree, point, map, or file."""


class PreconditionError(ValueError):
    """Arguments are well-formed but violate an operation's contract."""


class ResourceLimitError(RuntimeError):
    """A configured budget (piece count, power cap) was exhausted."""


class UndecidedError(RuntimeError):
    """The question could not be settled within the configured bounds."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not a user error."""


def _at_least_one(**bounds) -> None:
    """Refuse a bound below 1, by name: none of them answers below it."""
    for name, value in bounds.items():
        if value < 1:
            raise PreconditionError(f"{name} must be at least 1, got {value}")
