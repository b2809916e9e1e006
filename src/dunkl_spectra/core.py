"""Reflection-difference (Dunkl) derivative, reflection operators, the
deformation-parameter record, and the d-dimensional polar coordinate map.

Conventions. The polar chart uses the cosine-first layout

    x_1 = r cos(t_1) sin(t_2) ... sin(t_{d-1})
    x_2 = r sin(t_1) sin(t_2) ... sin(t_{d-1})
    x_j = r cos(t_{j-1}) sin(t_j) ... sin(t_{d-1})   for 3 <= j <= d

with t_1 in [0, 2pi) and t_j in [0, pi] for j >= 2; d = 2 degenerates to
(x_1, x_2) = (r cos t_1, r sin t_1). Under this chart the coordinate
reflection x_j -> -x_j acts on angles as

    j = 1:  t_1 -> pi - t_1
    j = 2:  t_1 -> -t_1
    j >= 3: t_{j-1} -> pi - t_{j-1}
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SingularityError, check_count

__all__ = [
    "DeformationParams",
    "ParityVector",
    "PolarPoint",
    "dunkl_derivative_1d",
    "reflect_cartesian",
    "reflect_polar",
    "apply_reflection",
    "polar_to_cartesian",
    "cartesian_to_polar",
    "apply_angular_operator",
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


def dunkl_derivative_1d(f: Callable[[float], float], mu: float, x: float,
                        h: float | None = None) -> float:
    """f'(x) + (mu/x) (f(x) - f(-x)), the one-dimensional deformed derivative.

    The local derivative is a second-order central difference; the default
    step scales with |x| but never drops below 1e-6.
    """
    if x == 0.0:
        raise DomainError("deformed derivative is singular at x = 0")
    if h is None:
        h = max(1e-6, 1e-6 * abs(x))
    deriv = (f(x + h) - f(x - h)) / (2.0 * h)
    return deriv + (mu / x) * (f(x) - f(-x))


def reflect_cartesian(point: Sequence[float], j: int) -> np.ndarray:
    """Flip the sign of coordinate x_j (1-based axis index)."""
    point = np.asarray(point, dtype=float)
    if not 1 <= j <= point.shape[-1]:
        raise IndexError(f"axis {j} out of range for a point of length {point.shape[-1]}")
    out = point.copy()
    out[..., j - 1] = -out[..., j - 1]
    return out


def reflect_polar(p: PolarPoint, j: int) -> PolarPoint:
    """Image of a polar point under the reflection x_j -> -x_j."""
    if not 1 <= j <= p.d:
        raise IndexError(f"axis {j} out of range for dimension {p.d}")
    theta = list(p.theta)
    if j == 1:
        theta[0] = (np.pi - theta[0]) % TWO_PI
    elif j == 2:
        theta[0] = (-theta[0]) % TWO_PI
    else:
        theta[j - 2] = np.pi - theta[j - 2]
    return PolarPoint(r=p.r, theta=tuple(theta))


def apply_reflection(f: Callable, j: int) -> Callable:
    """Compose f with the axis-j reflection.

    The returned callable accepts either a PolarPoint or a Cartesian point
    (any sequence of coordinates) and dispatches on the argument type. The
    axis bound is checked against the point's own dimension at call time.
    """
    if j < 1:
        raise IndexError(f"axis index must be >= 1, got {j}")

    def reflected(point):
        if isinstance(point, PolarPoint):
            return f(reflect_polar(point, j))
        return f(reflect_cartesian(point, j))

    return reflected


def polar_to_cartesian(p: PolarPoint, d: int | None = None) -> np.ndarray:
    """Cartesian coordinates of a polar point (chart in the module docstring)."""
    if d is not None and d != p.d:
        raise DomainError(f"point has dimension {p.d}, caller requested {d}")
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


def cartesian_to_polar(point: Sequence[float]) -> tuple[PolarPoint, bool]:
    """Invert the polar chart; returns (point, degenerate).

    degenerate is True on the singular set where some trailing angle has
    vanishing sine, leaving the lower angles undetermined (they are returned
    as 0). The radius must be nonzero.
    """
    x = np.asarray(point, dtype=float)
    d = len(x)
    if d < 2:
        raise DomainError("need at least two coordinates")
    r = float(np.sqrt(np.sum(x * x)))
    if r == 0.0:
        raise DomainError("polar chart undefined at the origin")
    theta = np.zeros(d - 1)
    degenerate = False
    # partial radii rho_k = sqrt(x_1^2 + ... + x_k^2), k = 2..d
    rho = np.sqrt(np.cumsum(x * x))
    for j in range(d, 2, -1):
        if rho[j - 1] < 1e-15 * r:
            degenerate = True
            break
        theta[j - 2] = np.arctan2(rho[j - 2], x[j - 1])
    if not degenerate:
        if rho[1] < 1e-15 * r:
            degenerate = True
        else:
            theta[0] = np.arctan2(x[1], x[0]) % TWO_PI
    return PolarPoint(r=r, theta=tuple(theta)), degenerate


def apply_angular_operator(j: int, Theta: Callable, params: DeformationParams,
                           lower_ell_sum: float, theta: float,
                           h: float = 1e-5, guard: float = 1e-6) -> float:
    """Numerically apply the level-j angular operator to Theta at one angle.

    For j = 1 the operator is

        -T'' + 2 (mu_1 tan t - mu_2 cot t) T'
        + mu_1 (T(t) - T(pi - t)) / cos^2 t
        + mu_2 (T(t) - T(-t)) / sin^2 t

    and for 2 <= j <= d-1 it is

        -T'' - [(j - 1 + 2 sum_{i<=j} mu_i) cot t - 2 mu_{j+1} tan t] T'
        + mu_{j+1} (T(t) - T(pi - t)) / cos^2 t
        + lam^2 / sin^2 t * T(t)

    where lam^2 = 4 S (S + sum_{i<=j} mu_i + (j-2)/2) is the eigenvalue
    carried up from the level below, S = lower_ell_sum. Derivatives are
    second-order central differences with step h. Angles inside the guard
    band around the cos/sin zeros are rejected.
    """
    if not 1 <= j <= params.d - 1:
        raise DomainError(f"level must lie in [1, {params.d - 1}], got {j}")
    theta = float(theta)
    ct, st = np.cos(theta), np.sin(theta)
    if abs(ct) < guard or abs(st) < guard:
        raise SingularityError(
            f"angle {theta} is within {guard} of a coordinate singularity")
    f0 = Theta(theta)
    fp = Theta(theta + h)
    fm = Theta(theta - h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    mu = params.mu
    if j == 1:
        out = -d2 + 2.0 * (mu[0] * np.tan(theta) - mu[1] / np.tan(theta)) * d1
        out += mu[0] * (f0 - Theta(np.pi - theta)) / (ct * ct)
        out += mu[1] * (f0 - Theta(-theta)) / (st * st)
        return out
    msum = params.mu_partial(j)
    coef = (j - 1 + 2.0 * msum) / np.tan(theta) - 2.0 * mu[j] * np.tan(theta)
    S = float(lower_ell_sum)
    lam_sq = 4.0 * S * (S + msum + (j - 2) / 2.0)
    out = -d2 - coef * d1
    out += mu[j] * (f0 - Theta(np.pi - theta)) / (ct * ct)
    out += lam_sq / (st * st) * f0
    return out
