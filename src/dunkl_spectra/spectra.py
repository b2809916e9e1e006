"""Closed-form radial solutions and bound-state energies for the three
potentials, their large-dimension asymptotics, and reduced radial densities.

Radial functions solve

    U'' + (c/r) U' + [2m(E - V)/hbar^2 - W^2/r^2] U = 0,
    c = d - 1 + 2 sum mu,  W^2 = varpi_sq(state, params)

A new potential is one new class: constants as fields with "help"
metadata, a `tag`, and `well(mass)`, which declares V = shift + sum of
coeff r^power terms. One derivation, `_record`, turns it into the
RadialSolution record of each level, which this module, the `verify`
oracle and the CLI read. Every state has one shape,

    U(r) = N r^p e^{-t/2} M(-n, b, t),  t = (2/sigma) scale r^sigma,

with sigma = 2 for the Gaussian family (an r^2 term; one scale for every
level) and sigma = 1 for the 1/r family (an r^-1 term; decay rate eta,
changing with n); the oracle's box is one rule in t. `_record` fixes each
level's family once, as its sigma, and the record refuses a level that is
no bound state (at or above the continuum, or b <= 0), so every entry point
refuses the same levels. An r^-2 term a_-2 joins the barrier,
delta^2 = W^2 + 2m a_-2/hbar^2, and p is then the larger root of
p (p + c - 1) = delta^2; without one, p is the root p0 that the angular
problem selects (2L, or (1 - s)/2 for a Cartesian axis). The rules differ
only at d = 2, mu_1 + mu_2 < 0, L = 0: the larger root is 1 - c > 0, and
the oscillator and 1/r keep p = 0, the Cartesian branch. Both roots are
square-integrable there; which self-adjoint extension to take is open.

Energies and normalization constants against r^c are exact closed forms
(DLMF 13.6.19 and 18.3; see RadialSolution.norm).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import get_args

import numpy as np

from .core import DeformationParams
from .errors import (DomainError, InvalidStateError, check_count,
                     check_positive)
from .polar import AngularState, varpi_sq
from .specfun import kummer_m

__all__ = [
    "Oscillator",
    "Pseudoharmonic",
    "Coulomb",
    "POTENTIALS",
    "RadialSolution",
    "oscillator_energy",
    "coulomb_energy",
    "coulomb_large_d_expansion",
    "radial_wavefunction",
    "radial_solution",
    "bound_energy",
    "reduced_density",
]


def _box_radius(n: int, b: float, scale: float, sigma: float) -> float:
    """Where t = (2/sigma) scale r^sigma reaches 1.5 (4n + 2b) + 50: past the
    top zero of M(-n, b, t), near 4n + 2b (Szego, Orthogonal Polynomials,
    6.31), by a margin growing with n, where levels up to n have decayed."""
    t_box = 1.5 * (4.0 * n + 2.0 * b) + 50.0
    return (sigma * t_box / (2.0 * scale)) ** (1.0 / sigma)


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form data and state of one bound level n with energy E.

    U = r^p G, where U solves

        U'' + (c/r) U' + [2m(E - shift - V)/hbar^2 - barrier/r^2] U = 0,
        V(r) = sum of coeff * r^power over vterms,

    and U = N r^p e^{-t/2} M(-n, b, t) with t = (2/sigma) scale r^sigma.
    r_max, the oracle's box for levels up to n, is one rule in t
    (`_box_radius`) read from n, b, scale and sigma. Refused: fields that
    left double range (an underflowed energy or potential coefficient too)
    and a level that is no bound state: at or above the continuum (inf for
    sigma = 2, shift for sigma = 1) or with b <= 0.
    """
    potential: PotentialSpec
    n: int
    energy: float
    c: float
    p: float
    b: float
    scale: float
    sigma: float  # set by `_record`: 2 for the Gaussian family, 1 for 1/r
    barrier: float
    vterms: tuple
    shift: float

    def __post_init__(self):
        values = (self.energy, self.c, self.p, self.b, self.barrier,
                  self.shift, *(x for term in self.vterms for x in term))
        scales = (self.energy - self.shift, *(c for c, _ in self.vterms))
        if not (all(map(math.isfinite, values)) and
                min(map(abs, scales)) >= sys.float_info.min):
            raise DomainError(f"{self.potential.tag} level {self.n} leaves "
                              f"double range: energy {self.energy}, "
                              f"potential terms {self.vterms}")
        check_positive(scale=self.scale)
        continuum = math.inf if self.sigma == 2.0 else self.shift
        if not self.energy < continuum:
            raise InvalidStateError(
                f"{self.potential.tag} bound states must lie below "
                f"{continuum}, got {self.energy}")
        if self.b <= 0.0:
            raise InvalidStateError(
                f"hypergeometric parameter b={self.b} must be positive")

    @property
    def r_max(self) -> float:
        """The oracle's automatic box for the levels up to n."""
        return _box_radius(self.n, self.b, self.scale, self.sigma)

    @property
    def alpha(self) -> float:
        """Power of t in the norm integral, r^{c+2p} dr ~ t^alpha dt."""
        return (self.c + 2.0 * self.p + 1.0) / self.sigma - 1.0

    # Kummer a and b, the decay scale, and p/sigma, the power of t in front
    kummer_a = property(lambda self: -float(self.n))
    kummer_b = property(lambda self: self.b)
    decay_scale = property(lambda self: self.scale)
    leading_exponent = property(lambda self: self.p / self.sigma)

    @property
    def norm(self) -> float:
        """N giving U unit norm against r^c, in log form:

            N^-2 = Gamma(b)^2 n!/Gamma(n+b) (2n+b)^{2-sigma} / (sigma rho^{alpha+1})

        with rho = (2/sigma) scale: by DLMF 13.6.19 and 18.3 the integral is
        the Laguerre norm (alpha = b - 1, Gaussian family) or its t^{alpha+1}
        moment (alpha = b, 1/r).
        """
        n, b, sigma = self.n, self.b, self.sigma
        log_norm = -0.5 * (2.0 * math.lgamma(b) + math.lgamma(n + 1.0)
                           - math.lgamma(n + b)
                           + (2.0 - sigma) * math.log(2.0 * n + b)
                           - math.log(sigma)
                           - (self.alpha + 1.0)
                           * math.log(2.0 / sigma * self.scale))
        norm = (math.exp(log_norm) if log_norm < math.log(sys.float_info.max)
                else math.inf)
        if not 0.0 < norm < math.inf:
            raise DomainError(f"{self.potential.tag} level {self.n}: norm "
                              f"{norm} leaves double range")
        return norm


def _record(potential, n: int, c: float, w_sq: float, p0: float,
            hbar: float, mass: float) -> RadialSolution:
    """Level n of the well that `potential` declares (module docstring),
    for the weight exponent c, the angular barrier w_sq and the root p0."""
    try:
        shift, terms = potential.well(mass)
        coeff = {power: a for a, power in terms}
        barrier, p = w_sq, p0
        if -2.0 in coeff:
            barrier = w_sq + 2.0 * mass * coeff[-2.0] / hbar ** 2
            disc = (c - 1.0) ** 2 + 4.0 * barrier
            if not disc >= 0.0:
                raise DomainError(f"{potential.tag}: the r^-2 term makes the "
                                  f"particle fall to the centre, no real "
                                  f"leading power (discriminant {disc})")
            root = math.sqrt(disc)
            # the larger root, in a form that never cancels
            p = (0.5 * ((1.0 - c) + root) if c <= 1.0
                 else 2.0 * barrier / ((c - 1.0) + root))
        if 2.0 in coeff:
            sigma, big_omega = 2.0, math.sqrt(2.0 * coeff[2.0] / mass)
            b = (c + 1.0) / 2.0 + p
            energy = shift + hbar * big_omega * (2.0 * n + b)
            scale = mass * big_omega / hbar
        else:
            sigma, b = 1.0, c + 2.0 * p
            kappa = n + b / 2.0
            if kappa <= 0.0:
                raise DomainError(f"no bound state: effective principal "
                                  f"number {kappa} is not positive")
            energy = shift - mass * coeff[-1.0] ** 2 / (
                2.0 * hbar ** 2 * kappa ** 2)
            scale = math.sqrt(-2.0 * mass * (energy - shift)) / hbar
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{potential.tag} level {n} leaves double range"
                          ) from exc
    return RadialSolution(
        potential=potential, n=n, energy=energy, c=c, p=p, b=b, scale=scale,
        sigma=sigma, barrier=barrier, shift=shift,
        vterms=tuple(term for term in terms if term[1] != -2.0))


class _Potential:
    """Checks shared by the potential classes. A new potential is one class
    of fields (constants with "help" metadata), `tag` and `well(mass)`."""

    def __post_init__(self):
        check_positive(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class Oscillator(_Potential):
    """Isotropic harmonic well (1/2) m w^2 r^2, with levels
    2 hbar w (n + L + (d + 2 sum mu)/4) and leading power 2L."""
    omega: float = field(metadata={"help": "harmonic trap frequency"})
    tag = "oscillator"

    def well(self, mass):
        return 0.0, ((0.5 * mass * self.omega ** 2, 2.0),)


@dataclass(frozen=True)
class Pseudoharmonic(_Potential):
    """Molecular well with depth D_e and minimum r_e. The well solved is
    2 D_e r^2/r_e^2 - 2 D_e + D_e r_e^2/r^2, whose r^2 coefficient is twice
    that of D_e (r/r_e - r_e/r)^2 (ROADMAP.md, item 2). Its r^-2 term joins
    the barrier, so p is the larger indicial root, and
    E = -2 D_e + hbar Omega (2n + b) with Omega = 2 sqrt(D_e/m)/r_e."""
    D_e: float = field(metadata={
        "help": "well depth of the shifted-minimum potential"})
    r_e: float = field(metadata={
        "help": "equilibrium radius of the shifted-minimum potential"})
    tag = "pho"

    def well(self, mass):
        D_e, r_e = self.D_e, self.r_e
        return -2.0 * D_e, ((2.0 * D_e / r_e ** 2, 2.0),
                            (D_e * r_e ** 2, -2.0))


@dataclass(frozen=True)
class Coulomb(_Potential):
    """Attractive -e2/r potential with coupling e2 > 0: levels
    -(m e2^2 / 2 hbar^2) / (n + 2L + sum mu + (d-1)/2)^2, leading power 2L
    and a decay rate eta = sqrt(-2 m E)/hbar that changes with n."""
    e2: float = field(metadata={"help": "attractive 1/r coupling strength"})
    tag = "coulomb"

    def well(self, mass):
        return 0.0, ((-self.e2, -1.0),)


PotentialSpec = Oscillator | Pseudoharmonic | Coulomb

POTENTIALS = {cls.tag: cls for cls in get_args(PotentialSpec)}


def _level(potential: PotentialSpec, n: int, state: AngularState,
           params: DeformationParams, hbar: float,
           mass: float) -> RadialSolution:
    """The record of radial level n, after checking every input."""
    check_positive(hbar=hbar, mass=mass)
    n = check_count(n, "radial quantum number")
    return _record(potential, n, params.d - 1.0 + 2.0 * params.mu_sum,
                   varpi_sq(state, params), 2.0 * state.ell_total, hbar, mass)


def bound_energy(potential: PotentialSpec, n: int, state: AngularState,
                 params: DeformationParams, hbar: float = 1.0,
                 mass: float = 1.0) -> float:
    """Closed-form energy for any potential variant."""
    return _level(potential, n, state, params, hbar, mass).energy


def radial_solution(potential: PotentialSpec, n: int, state: AngularState,
                    params: DeformationParams, hbar: float = 1.0,
                    mass: float = 1.0) -> RadialSolution:
    """The record of level n; it refuses what is no bound state (`_record`)."""
    return _level(potential, n, state, params, hbar, mass)


def _state(sol: RadialSolution, r, power: float):
    """N r^power e^{-t/2} M(-n, b, t), t = (2/sigma) scale r^sigma, at r."""
    r = np.asarray(r, dtype=float)
    t = 2.0 / sol.sigma * sol.scale * np.power(r, sol.sigma)
    return (sol.norm * np.power(r, power) * np.exp(-0.5 * t)
            * kummer_m(-sol.n, sol.b, t))


def radial_wavefunction(sol: RadialSolution, r):
    """U = N r^p e^{-t/2} M(-n, b, t), t = (2/sigma) scale r^sigma, at r
    (scalar or array)."""
    out = _state(sol, r, sol.p)
    return out if out.ndim else float(out)


def oscillator_energy(n: int, state: AngularState, params: DeformationParams,
                      omega: float, hbar: float = 1.0) -> float:
    """Harmonic-well level 2 hbar w (n + L + (d + 2 sum mu)/4)."""
    return bound_energy(Oscillator(omega), n, state, params, hbar)


def coulomb_energy(n: int, state: AngularState, params: DeformationParams,
                   e2: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Attractive 1/r level -(m e2^2 / 2 hbar^2) / (n + 2L + sum mu + (d-1)/2)^2."""
    return bound_energy(Coulomb(e2), n, state, params, hbar, mass)


def coulomb_large_d_expansion(n: int, state: AngularState,
                              params: DeformationParams, e2: float,
                              order: int = 2, hbar: float = 1.0,
                              mass: float = 1.0) -> float:
    """Truncated large-d series of the attractive-1/r level.

    E ~ -(2 m e2^2/hbar^2) [1/d^2 - 4 (n + 2L + sum mu - 1/2)/d^3 + ...]

    order counts the retained bracket terms (0, 1, or 2). The remainder of
    the order-2 truncation is O(d^-4) times the prefactor 2 m e2^2/hbar^2.
    """
    _level(Coulomb(e2), n, state, params, hbar, mass)  # input checks
    if order not in (0, 1, 2):
        raise DomainError(f"truncation order must be 0, 1, or 2, got {order}")
    d = params.d
    total = 0.0
    if order >= 1:
        total += 1.0 / d ** 2
    if order >= 2:
        shift = n + 2.0 * state.ell_total + params.mu_sum - 0.5
        total -= 4.0 * shift / d ** 3
    return -2.0 * mass * e2 ** 2 / hbar ** 2 * total


def reduced_density(sol: RadialSolution, r):
    """Radial probability density |U(r)|^2 r^{d - 1 + 2 sum mu}.

    Integrates to one over (0, inf) because the solutions are normalized
    against exactly this weight. Formed as (U r^{c/2})^2 with r^{c/2} folded
    into U's own power of r, so neither U^2 nor r^c, which can leave double
    range where the density does not, is ever formed.
    """
    out = _state(sol, r, sol.p + 0.5 * sol.c) ** 2
    return out if out.ndim else float(out)
