"""Parity-resolved one-dimensional deformed oscillator eigenpairs and their
d-dimensional products.

Each axis separates into an even (s = +1) and an odd (s = -1) sector with

    eps(n, mu, s) = hbar w (2n + mu + 1 - s/2)
    psi(x) = C exp(-m w x^2 / (2 hbar)) x^{(1-s)/2} L_n^{mu - s/2}(m w x^2 / hbar)

and the total energy is the sum over axes. Normalization constants are fixed
numerically by quadrature against the weight |x|^{2 mu} on the real line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DeformationParams, ParityVector
from .errors import DomainError, InvalidStateError, check_positive
from .specfun import build_quadrature, laguerre

__all__ = ["CartesianState", "energy_1d", "wavefunction_1d", "total_energy"]


@dataclass(frozen=True)
class CartesianState:
    """Per-axis quantum numbers n_j >= 0 plus the parity sector."""
    n: tuple
    parity: ParityVector

    def __post_init__(self):
        n = tuple(int(v) for v in self.n)
        if any(v < 0 for v in n):
            raise InvalidStateError(f"quantum numbers must be >= 0, got {self.n}")
        parity = self.parity
        if not isinstance(parity, ParityVector):
            parity = ParityVector(tuple(parity))
        if len(n) != len(parity):
            raise InvalidStateError(
                f"{len(n)} quantum numbers vs {len(parity)} parity entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parity", parity)

    @property
    def d(self) -> int:
        return len(self.n)


def _check_1d_args(mu: float, s: int, omega: float, hbar: float,
                   mass: float = 1.0) -> None:
    if not mu > -0.5:
        raise DomainError(f"coupling mu={mu} violates the bound mu > -1/2")
    if s not in (1, -1):
        raise DomainError(f"parity must be +1 or -1, got {s}")
    check_positive(omega=omega, hbar=hbar, mass=mass)


def energy_1d(n: int, mu: float, s: int, omega: float,
              hbar: float = 1.0, n_base: int = 0) -> float:
    """Single-axis level hbar w (2n + mu + 1 - s/2).

    n_base selects the first admissible quantum number (0 by default; set 1
    to count levels from one instead, which only shifts the label).
    """
    _check_1d_args(mu, s, omega, hbar)
    if n_base not in (0, 1):
        raise DomainError(f"n_base must be 0 or 1, got {n_base}")
    if n < n_base:
        raise DomainError(f"quantum number {n} below base {n_base}")
    k = n - n_base
    return hbar * omega * (2.0 * k + mu + 1.0 - s / 2.0)


@lru_cache(maxsize=256)
def _norm_1d(n: int, mu: float, s: int, omega: float,
             hbar: float, mass: float) -> float:
    # Unit norm against |x|^{2 mu} dx over the whole line. With x = a t,
    # a = sqrt(hbar / (m w)), the squared norm is
    # 2 C^2 a^{2 mu + 2 - s} * integral t^{2 mu + 1 - s} e^{-t^2} L^2 dt.
    a = np.sqrt(hbar / (mass * omega))
    gamma = 2.0 * mu + 1.0 - s
    rule = build_quadrature(gamma, "exp_r2", max(2 * n + 4, 8))
    alpha = mu - s / 2.0
    vals = laguerre(n, alpha, rule.nodes ** 2)
    total = 2.0 * a ** (2.0 * mu + 2.0 - s) * float(np.sum(rule.weights * vals ** 2))
    return 1.0 / np.sqrt(total)


def wavefunction_1d(n: int, mu: float, s: int, omega: float, x,
                    hbar: float = 1.0, mass: float = 1.0):
    """Normalized single-axis eigenfunction evaluated at x (scalar or array)."""
    _check_1d_args(mu, s, omega, hbar, mass)
    if n < 0:
        raise DomainError(f"quantum number must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    c = _norm_1d(int(n), float(mu), int(s), float(omega), float(hbar), float(mass))
    u = mass * omega * x * x / hbar
    out = c * np.exp(-0.5 * u) * laguerre(n, mu - s / 2.0, u)
    if s == -1:
        out = out * x
    return out if out.ndim else float(out)


def total_energy(state: CartesianState, params: DeformationParams,
                 omega: float, hbar: float = 1.0, n_base: int = 0) -> float:
    """Sum of the per-axis levels; equals
    hbar w (2 sum n_j + d + sum mu_j - sum s_j / 2)."""
    if state.d != params.d:
        raise InvalidStateError(
            f"state has {state.d} axes, parameters have {params.d}")
    return sum(
        energy_1d(nj, muj, sj, omega, hbar=hbar, n_base=n_base)
        for nj, muj, sj in zip(state.n, params.mu, state.parity.s))
