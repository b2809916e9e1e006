"""Exception types shared across the package, and the checks that physical
constants are positive and finite and quantum numbers nonnegative integers."""

import math


class DomainError(ValueError):
    """A parameter lies outside its mathematically valid range."""


class InvalidStateError(ValueError):
    """Quantum numbers and parity labels are mutually inconsistent."""


class SingularityError(ValueError):
    """Evaluation requested inside a coordinate-singularity guard band."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its accuracy target."""


class TailLeakWarning(UserWarning):
    """A discretization box is too small for the requested eigenstates."""


def check_positive(**constants: float) -> None:
    """Raise DomainError unless every named constant is positive and finite."""
    for name, value in constants.items():
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def check_count(value, name: str, error: type = DomainError) -> int:
    """value as an int; raise `error` unless it is a nonnegative whole
    number (2.0 passes, 2.5 and -1 do not)."""
    if not (value >= 0 and float(value).is_integer()):
        raise error(f"{name} must be a nonnegative integer, got {value}")
    return int(value)
