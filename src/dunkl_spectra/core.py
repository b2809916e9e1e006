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
    "PolarPoint",
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


@dataclass(frozen=True)
class PolarPoint:
    """Radius r > 0 plus d-1 angles in the ranges stated above."""
    r: float
    theta: tuple

    def __post_init__(self):
        r = float(self.r)
        if not r > 0.0:
            raise DomainError(f"radius must be positive, got {r}")
        theta = tuple(float(t) for t in self.theta)
        if not theta:
            raise DomainError("need at least one angle")
        if not 0.0 <= theta[0] < TWO_PI:
            raise DomainError(f"first angle must lie in [0, 2pi), got {theta[0]}")
        for j, t in enumerate(theta[1:], start=2):
            if not 0.0 <= t <= np.pi:
                raise DomainError(f"angle {j} must lie in [0, pi], got {t}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return len(self.theta) + 1


def reflect_cartesian(point: Sequence[float], j: int) -> np.ndarray:
    """Flip the sign of coordinate x_j (1-based axis index)."""
    point = np.asarray(point, dtype=float)
    if not 1 <= j <= point.shape[-1]:
        raise IndexError(f"axis {j} out of range for a point of length {point.shape[-1]}")
    out = point.copy()
    out[..., j - 1] = -out[..., j - 1]
    return out


def polar_to_cartesian(p: PolarPoint) -> np.ndarray:
    """Cartesian coordinates of a polar point (chart in the module docstring)."""
    d = p.d
    theta = np.asarray(p.theta)
    x = np.empty(d)
    # suffix[k] = prod of sin(theta_i) for angle indices i > k (1-based)
    sines = np.sin(theta)
    suffix = np.concatenate((np.cumprod(sines[::-1])[::-1], [1.0]))
    x[0] = np.cos(theta[0]) * suffix[1]
    x[1] = np.sin(theta[0]) * suffix[1]
    for j in range(3, d + 1):
        x[j - 1] = np.cos(theta[j - 2]) * suffix[j - 1]
    return p.r * x


def _chart_inverse(x: np.ndarray):
    """Radii, angles (on the last axis) and the mask of determined angles
    of the Cartesian points x, shape (..., d). On the singular set an angle
    whose partial radius vanishes is undetermined and returned as 0."""
    r = np.sqrt(np.sum(x * x, axis=-1))
    # partial radii rho_k = sqrt(x_1^2 + ... + x_k^2); t_{j-1} for j >= 3 is
    # atan2(rho_{j-1}, x_j) and is determined when rho_j does not vanish
    rho = np.sqrt(np.cumsum(x * x, axis=-1))
    theta = np.concatenate(
        (np.arctan2(x[..., 1:2], x[..., :1]) % TWO_PI,
         np.arctan2(rho[..., 1:-1], x[..., 2:])), axis=-1)
    determined = rho[..., 1:] >= 1e-15 * r[..., None]
    return r, np.where(determined, theta, 0.0), determined


def cartesian_to_polar(point: Sequence[float]) -> tuple[PolarPoint, bool]:
    """Invert the polar chart; returns (point, degenerate).

    degenerate is True on the singular set where some trailing angle has
    vanishing sine, leaving the lower angles undetermined (they are returned
    as 0). The radius must be nonzero.
    """
    x = np.asarray(point, dtype=float)
    if len(x) < 2:
        raise DomainError("need at least two coordinates")
    r, theta, determined = _chart_inverse(x)
    if r == 0.0:
        raise DomainError("polar chart undefined at the origin")
    return PolarPoint(r=float(r), theta=tuple(theta)), not determined.all()
