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


def _at_least(name: str, value, low: int, refusal: str = "") -> None:
    """Refuse, by name, a count that is not an `int` (a float or a bool is
    none), or one below `low`, with `refusal` as the message if given."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise PreconditionError(refusal or f"{name} must be at least {low}, got {value}")


def _at_least_one(**bounds) -> None:
    """Refuse, by name, a bound that is not an int or is below 1: none answers below it."""
    for name, value in bounds.items():
        _at_least(name, value, 1)
