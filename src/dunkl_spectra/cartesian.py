"""Parity-resolved one-dimensional deformed oscillator eigenpairs and their
d-dimensional products.

Each axis separates into an even (s = +1) and an odd (s = -1) sector with

    eps(n, mu, s) = hbar w (2n + mu + 1 - s/2)
    psi(x) = C exp(-m w x^2 / (2 hbar)) x^{(1-s)/2} L_n^{mu - s/2}(m w x^2 / hbar)

and the total energy is the sum over axes. Against the weight |x|^{2 mu} on
the real line, C^{-2} = (hbar/(m w))^{mu + 1 - s/2} Gamma(n + alpha + 1)/n!
with alpha = mu - s/2: the Laguerre norm (DLMF 18.3) in u = m w x^2/hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DeformationParams, ParityVector
from .errors import (DomainError, InvalidStateError, check_count,
                     check_positive)
from .specfun import laguerre, laguerre_norm_sq
from .spectra import Oscillator, RadialSolution, _record

__all__ = ["CartesianState", "energy_1d", "wavefunction_1d", "total_energy"]


@dataclass(frozen=True)
class CartesianState:
    """Per-axis quantum numbers n_j >= 0 plus the parity sector."""
    n: tuple
    parity: ParityVector

    def __post_init__(self):
        n = tuple(check_count(v, "quantum number", InvalidStateError)
                  for v in self.n)
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
    if not -0.5 < mu < np.inf:
        raise DomainError(f"coupling mu={mu} must be finite and exceed -1/2")
    if s not in (1, -1):
        raise DomainError(f"parity must be +1 or -1, got {s}")
    check_positive(omega=omega, hbar=hbar, mass=mass)


def _axis_record(n: int, mu: float, s: int, omega: float, hbar: float,
                 mass: float) -> RadialSolution:
    """Level n of one axis: the oscillator record of weight exponent 2 mu."""
    _check_1d_args(mu, s, omega, hbar, mass)
    return _record(Oscillator(omega), check_count(n, "quantum number"),
                   2.0 * mu, mu * (1 - s), (1 - s) / 2, hbar, mass)


def energy_1d(n: int, mu: float, s: int, omega: float,
              hbar: float = 1.0) -> float:
    """Single-axis level hbar w (2n + mu + 1 - s/2)."""
    return _axis_record(n, mu, s, omega, hbar, 1.0).energy


def wavefunction_1d(n: int, mu: float, s: int, omega: float, x,
                    hbar: float = 1.0, mass: float = 1.0):
    """Normalized single-axis eigenfunction evaluated at x (scalar or array);
    DomainError when its norm constant or a value leaves double range."""
    _check_1d_args(mu, s, omega, hbar, mass)
    n = check_count(n, "quantum number")
    alpha = mu - s / 2.0
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        # a numpy float, so hbar/(m w) over- or underflows to inf or 0
        c = 1.0 / np.sqrt((np.float64(hbar) / (mass * omega)) ** (alpha + 1.0)
                          * laguerre_norm_sq(n, alpha))
        u = mass * omega * x * x / hbar
        out = (c * np.exp(-0.5 * u) * laguerre(n, alpha, u)
               * x ** ((1 - s) // 2))
    if not (0.0 < c < math.inf and np.all(np.isfinite(out))):
        raise DomainError(f"single-axis state n={n}, mu={mu}, s={s:+d} "
                          f"leaves double range")
    return out if out.ndim else float(out)


def total_energy(state: CartesianState, params: DeformationParams,
                 omega: float, hbar: float = 1.0) -> float:
    """Sum of the per-axis levels; equals
    hbar w (2 sum n_j + d + sum mu_j - sum s_j / 2)."""
    if state.d != params.d:
        raise InvalidStateError(
            f"state has {state.d} axes, parameters have {params.d}")
    return sum(
        energy_1d(nj, muj, sj, omega, hbar=hbar)
        for nj, muj, sj in zip(state.n, params.mu, state.parity.s))
