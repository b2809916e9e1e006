"""The deformation-parameter record, the coordinate reflections, and the
d-dimensional polar coordinate map.

Conventions. The polar chart uses the cosine-first layout

    x_1 = r cos(t_1) sin(t_2) ... sin(t_{d-1})
    x_2 = r sin(t_1) sin(t_2) ... sin(t_{d-1})
    x_j = r cos(t_{j-1}) sin(t_j) ... sin(t_{d-1})   for 3 <= j <= d

with t_1 in [0, 2pi) and t_j in [0, pi] for j >= 2; d = 2 degenerates to
(x_1, x_2) = (r cos t_1, r sin t_1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, check_count

__all__ = [
    "DeformationParams",
    "ParityVector",
    "reflect_cartesian",
    "polar_to_cartesian",
    "cartesian_to_polar",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DeformationParams:
    """Spatial dimension d and the per-axis deformation couplings mu_j.

    Each mu_j must be finite and exceed -1/2 so |x_j|^{2 mu_j} is integrable
    at the origin; mu_j = 0 on every axis recovers the undeformed theory.
    """
    d: int
    mu: tuple

    def __post_init__(self):
        d = check_count(self.d, "dimension")
        if d < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {d}")
        object.__setattr__(self, "d", d)
        mu = tuple(float(m) for m in self.mu)
        if len(mu) != self.d:
            raise DomainError(
                f"need exactly d={self.d} couplings, got {len(mu)}")
        for j, m in enumerate(mu, start=1):
            if not -0.5 < m < np.inf:
                raise DomainError(f"coupling mu_{j}={m} must be finite and "
                                  f"exceed -1/2")
        object.__setattr__(self, "mu", mu)

    @classmethod
    def uniform(cls, d: int, mu: float) -> "DeformationParams":
        """All axes share one coupling value."""
        return cls(d=d, mu=(float(mu),) * d)

    @property
    def mu_sum(self) -> float:
        return float(sum(self.mu))

    def mu_partial(self, k: int) -> float:
        """Sum of the first k couplings."""
        return float(sum(self.mu[:k]))


@dataclass(frozen=True)
class ParityVector:
    """Reflection eigenvalues s_j = +1 or -1, one per axis."""
    s: tuple

    def __post_init__(self):
        if not self.s or any(v not in (1, -1) for v in self.s):
            raise DomainError(f"parity entries must be +1 or -1, got {self.s}")
        object.__setattr__(self, "s", tuple(int(v) for v in self.s))

    def __len__(self) -> int:
        return len(self.s)


def reflect_cartesian(point: Sequence[float], j: int) -> np.ndarray:
    """Flip the sign of coordinate x_j (1-based axis index)."""
    point = np.asarray(point, dtype=float)
    if not 1 <= j <= point.shape[-1]:
        raise IndexError(f"axis {j} out of range for a point of length {point.shape[-1]}")
    out = point.copy()
    out[..., j - 1] = -out[..., j - 1]
    return out


def polar_to_cartesian(r, theta) -> np.ndarray:
    """Cartesian points (..., d) of the radii r and angles theta (..., d-1)
    on the module docstring's chart, r broadcast against theta[..., 0];
    refuses a radius not positive and finite and an angle out of range."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    if theta.ndim == 0 or theta.shape[-1] == 0:
        raise DomainError("need at least one angle")
    if not np.all((0.0 < r) & (r < np.inf)):
        raise DomainError(f"radius must be positive and finite, got {r}")
    first, rest = theta[..., 0], theta[..., 1:]
    if not (np.all((0.0 <= first) & (first < TWO_PI))
            and np.all((0.0 <= rest) & (rest <= np.pi))):
        raise DomainError(f"angles outside [0, 2pi) x [0, pi]^(d-2): {theta}")
    # (cos t_1, sin t_1); each next t_j scales it by sin t_j, appends cos t_j
    x = np.stack((np.cos(first), np.sin(first)), axis=-1)
    for t in np.moveaxis(rest, -1, 0):
        x = np.concatenate((x * np.sin(t)[..., None], np.cos(t)[..., None]),
                           axis=-1)
    return x * r[..., None]


def cartesian_to_polar(x):
    """Radii, angles (..., d-1) and the mask of determined angles of the
    Cartesian points x (..., d), d >= 2, refusing a radius 0 or not finite.
    On the singular set an angle whose partial radius vanishes is 0.

    Each point is first scaled by the power of two 2^-e, e the exponent of
    its largest |x_j|, which is exact: no square under- or overflows, and
    r is scaled back by 2^e."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise DomainError("need at least two coordinates")
    exp2 = np.frexp(np.max(np.abs(x), axis=-1))[1]
    x = np.ldexp(x, -exp2[..., None])
    r = np.sqrt(np.sum(x * x, axis=-1))
    with np.errstate(over="ignore"):  # a radius past the doubles is refused
        radius = np.ldexp(r, exp2)
    if not np.all((0.0 < radius) & (radius < np.inf)):
        raise DomainError(f"radius must be nonzero and finite, got {radius}")
    # partial radii rho_k = sqrt(x_1^2 + ... + x_k^2); t_{j-1} for j >= 3 is
    # atan2(rho_{j-1}, x_j) and is determined when rho_j does not vanish
    rho = np.sqrt(np.cumsum(x * x, axis=-1))
    theta = np.concatenate(
        (np.arctan2(x[..., 1:2], x[..., :1]) % TWO_PI,
         np.arctan2(rho[..., 1:-1], x[..., 2:])), axis=-1)
    determined = rho[..., 1:] >= 1e-15 * r[..., None]
    return radius, np.where(determined, theta, 0.0), determined
