"""Exception types shared across the package, and the check that every
physical constant is positive and finite."""

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
