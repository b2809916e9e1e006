"""Exception types shared across the package, and the checks that physical
constants are positive and finite and that counts are whole numbers."""

import numbers
import sys


class DomainError(ValueError):
    """A parameter lies outside its mathematically valid range."""


class InvalidStateError(ValueError):
    """Quantum numbers and parity labels are mutually inconsistent."""


class ConvergenceError(RuntimeError):
    """An iterative computation failed to reach its accuracy target."""


class TailLeakWarning(UserWarning):
    """A discretization box is too small for the requested eigenstates."""


def check_positive(**constants: float) -> None:
    """Raise DomainError unless every named constant is positive and finite."""
    for name, value in constants.items():
        if not 0.0 < value <= sys.float_info.max:
            raise DomainError(f"{name} must be positive and finite, got {value}")


def check_count(value, name: str, error: type = DomainError) -> int:
    """value as an int; raise `error` unless it is a nonnegative whole
    number of at most 2**53 (2.0 passes; 2.5, -1, '2' and 2**53 + 1 do not).
    Integers are compared exactly, never converted to float."""
    real = isinstance(value, numbers.Real)
    if real and value > 2 ** 53:
        raise error(f"{name} must be at most 2**53; above it a float no "
                    f"longer holds every whole number")
    if not (real and value >= 0 and int(value) == value):
        raise error(f"{name} must be a nonnegative integer, got {value}")
    return int(value)


def check_levels(k, name: str = "k") -> int:
    """k as an int; DomainError unless it is a whole number of at least 1,
    a count of levels or the size of a rule, as `name` says."""
    k = check_count(k, name)
    if k < 1:
        raise DomainError(f"{name} must be at least 1, got {k}")
    return k
