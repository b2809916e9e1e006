"""Closed-form radial solutions and bound-state energies for the three
potentials, their large-dimension asymptotics, and reduced radial densities.

Radial functions solve

    U'' + (c/r) U' + [2m(E - V)/hbar^2 - W^2/r^2] U = 0,
    c = d - 1 + 2 sum mu,  W^2 = varpi_sq(state, params)

Each potential class holds its level formula and, from `radial_problem`,
returns one RadialSolution record per level. This module, the `verify`
oracle and the CLI read those records instead of branching on the
potential, so a new potential is one new class.

Every state has one shape,

    U(r) = N r^p e^{-t/2} M(-n, b, t),  t = (2/sigma) scale r^sigma,

with sigma = 2 for the Gaussian family (harmonic and pseudoharmonic wells,
one scale for every level) and sigma = 1 for the attractive 1/r problem
(scale is the decay rate eta, which changes with n).

Energies and normalization constants against r^c are exact closed forms
(DLMF 13.6.19 and 18.3; see RadialSolution.norm).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from .core import DeformationParams
from .errors import (DomainError, InvalidStateError, check_count,
                     check_positive)
from .polar import AngularState, _check_dimension, varpi_sq
from .specfun import kummer_m

__all__ = [
    "Oscillator",
    "Pseudoharmonic",
    "Coulomb",
    "POTENTIALS",
    "RadialSolution",
    "oscillator_energy",
    "oscillator_radial_solution",
    "pho_energy",
    "pho_radial_solution",
    "coulomb_energy",
    "coulomb_radial_solution",
    "coulomb_large_d_expansion",
    "radial_wavefunction",
    "radial_solution",
    "bound_energy",
    "reduced_density",
]


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form data and state of one bound level n with energy E.

    U = r^p G, where U solves

        U'' + (c/r) U' + [2m(E - shift - V)/hbar^2 - barrier/r^2] U = 0,
        V(r) = sum of coeff * r^power over vterms,

    and U = N r^p e^{-t/2} M(-n, b, t) with t = (2/sigma) scale r^sigma.
    r_max is the finite-element box for levels up to n, from the turning
    point and decay length. Fields that left double range (an underflowed
    energy too) and energies at or above the continuum are refused.
    """
    potential: PotentialSpec
    n: int
    energy: float
    c: float
    p: float
    b: float
    scale: float
    barrier: float
    vterms: tuple
    shift: float
    r_max: float

    def __post_init__(self):
        values = (self.energy, self.c, self.p, self.b, self.barrier,
                  self.shift, *(x for term in self.vterms for x in term))
        if not (all(map(math.isfinite, values)) and
                abs(self.energy - self.shift) >= sys.float_info.min):
            raise DomainError(f"{self.potential.tag} level {self.n} leaves "
                              f"double range: energy {self.energy}")
        check_positive(scale=self.scale, r_max=self.r_max)
        if not self.energy < self.potential.continuum:
            raise InvalidStateError(
                f"{self.potential.tag} bound states must lie below "
                f"{self.potential.continuum}, got {self.energy}")

    @property
    def sigma(self) -> float:
        """Power of r in the Kummer variable t."""
        return 2.0 if self.potential.gaussian else 1.0

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


class _Potential:
    """Checks shared by the potential classes, whose fields are physical
    constants; subclasses set tag, the family flag behind RadialSolution.sigma
    and continuum, and implement _problem."""
    gaussian = True
    continuum = math.inf

    def __post_init__(self):
        check_positive(**{f.name: getattr(self, f.name) for f in fields(self)})

    def radial_problem(self, n: int, state: AngularState,
                       params: DeformationParams, hbar: float = 1.0,
                       mass: float = 1.0) -> RadialSolution:
        """Closed-form record of radial level n, after checking every input."""
        check_positive(hbar=hbar, mass=mass)
        n = check_count(n, "radial quantum number")
        _check_dimension(state, params)
        try:
            return self._problem(n, state, params, hbar, mass,
                                 params.d - 1.0 + 2.0 * params.mu_sum)
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"{self.tag} level {n} leaves double range"
                              ) from exc


@dataclass(frozen=True)
class Oscillator(_Potential):
    """Isotropic harmonic well (1/2) m w^2 r^2.

    Level 2 hbar w (n + L + (d + 2 sum mu)/4); leading power 2L.
    """
    omega: float
    tag = "oscillator"

    def _problem(self, n, state, params, hbar, mass, c):
        L = state.ell_total
        energy = 2.0 * hbar * self.omega * (
            n + L + (params.d + 2.0 * params.mu_sum) / 4.0)
        turn = np.sqrt(2.0 * energy / mass) / self.omega
        return RadialSolution(
            potential=self, n=n, energy=energy, c=c, p=2.0 * L,
            b=(params.d + 2.0 * params.mu_sum) / 2.0 + 2.0 * L,
            scale=mass * self.omega / hbar, barrier=varpi_sq(state, params),
            vterms=((0.5 * mass * self.omega ** 2, 2.0),), shift=0.0,
            r_max=max(8.0, 2.6 * turn))


@dataclass(frozen=True)
class Pseudoharmonic(_Potential):
    """Molecular well D_e (r/r_e - r_e/r)^2 with depth D_e and minimum r_e.

    E = -2 D_e + 4 hbar sqrt(D_e/(m r_e^2)) [n + 1/2 + (1/2) sqrt(rad)],
    rad = 1 + (S + d/2)(S + d/2 - 2) + W^2 + 2 D_e m r_e^2 / hbar^2

    with S = sum mu and W^2 the total angular constant. The radicand equals
    ((c-1)/2)^2 + W^2 + 2 D_e m r_e^2/hbar^2 and is never negative. The
    well adds 2 m D_e r_e^2/hbar^2 to the barrier, so the leading power p
    is the positive root of the shifted indicial equation rather than 2L,
    and the problem solved is a harmonic well of frequency
    2 sqrt(D_e/m)/r_e measured from the well bottom -2 D_e.
    """
    D_e: float
    r_e: float
    tag = "pho"

    def _problem(self, n, state, params, hbar, mass, c):
        D_e, r_e = self.D_e, self.r_e
        w_sq = varpi_sq(state, params)
        s0 = params.mu_sum + params.d / 2.0
        radicand = (1.0 + s0 * (s0 - 2.0) + w_sq
                    + 2.0 * D_e * mass * r_e ** 2 / hbar ** 2)
        energy = (-2.0 * D_e + 4.0 * hbar * np.sqrt(D_e / (mass * r_e ** 2))
                  * (n + 0.5 + 0.5 * np.sqrt(radicand)))
        delta_sq = w_sq + 2.0 * mass * D_e * r_e ** 2 / hbar ** 2
        # delta_sq > 0 makes the positive root the unique normalizable branch
        p = 0.5 * ((1.0 - c) + np.sqrt((c - 1.0) ** 2 + 4.0 * delta_sq))
        big_omega = 2.0 * np.sqrt(D_e / mass) / r_e
        turn = np.sqrt(2.0 * (energy + 2.0 * D_e) / mass) / big_omega
        return RadialSolution(
            potential=self, n=n, energy=energy, c=c, p=p,
            b=(c + 1.0) / 2.0 + p,
            scale=mass * big_omega / hbar, barrier=delta_sq,
            vterms=((0.5 * mass * big_omega ** 2, 2.0),), shift=-2.0 * D_e,
            r_max=max(8.0, 2.6 * turn + r_e))


@dataclass(frozen=True)
class Coulomb(_Potential):
    """Attractive -e2/r potential with coupling e2 > 0.

    Level -(m e2^2 / 2 hbar^2) / (n + 2L + sum mu + (d-1)/2)^2; leading
    power 2L; the decay rate eta = sqrt(-2 m E)/hbar changes with n.
    """
    e2: float
    tag = "coulomb"
    gaussian = False
    continuum = 0.0

    def _problem(self, n, state, params, hbar, mass, c):
        L = state.ell_total
        kappa = n + 2.0 * L + params.mu_sum + (params.d - 1.0) / 2.0
        if kappa <= 0.0:
            raise DomainError(
                f"no bound state: effective principal number {kappa} is not positive")
        energy = -mass * self.e2 ** 2 / (2.0 * hbar ** 2 * kappa ** 2)
        return RadialSolution(
            potential=self, n=n, energy=energy, c=c, p=2.0 * L,
            b=4.0 * L + 2.0 * params.mu_sum + params.d - 1.0,
            scale=np.sqrt(-2.0 * mass * energy) / hbar,
            barrier=varpi_sq(state, params), vterms=((-self.e2, -1.0),),
            shift=0.0,
            r_max=max(6.0 * self.e2 / abs(energy),
                      35.0 * hbar / np.sqrt(2.0 * mass * abs(energy))))


PotentialSpec = Oscillator | Pseudoharmonic | Coulomb

POTENTIALS = {cls.tag: cls for cls in get_args(PotentialSpec)}


def bound_energy(potential: PotentialSpec, n: int, state: AngularState,
                 params: DeformationParams, hbar: float = 1.0,
                 mass: float = 1.0) -> float:
    """Closed-form energy for any potential variant."""
    return potential.radial_problem(n, state, params, hbar, mass).energy


def radial_solution(potential: PotentialSpec, n: int, state: AngularState,
                    params: DeformationParams, hbar: float = 1.0,
                    mass: float = 1.0) -> RadialSolution:
    """The record of level n, refused unless its state is normalizable."""
    sol = potential.radial_problem(n, state, params, hbar, mass)
    if sol.b <= 0.0:
        raise InvalidStateError(
            f"hypergeometric parameter b={sol.b} must be positive")
    return sol


def radial_wavefunction(sol: RadialSolution, r):
    """U = N r^p e^{-t/2} M(-n, b, t), t = (2/sigma) scale r^sigma, at r
    (scalar or array)."""
    r = np.asarray(r, dtype=float)
    t = 2.0 / sol.sigma * sol.scale * np.power(r, sol.sigma)
    out = (sol.norm * np.power(r, sol.p) * np.exp(-0.5 * t)
           * kummer_m(sol.kummer_a, sol.b, t))
    return out if out.ndim else float(out)


def oscillator_energy(n: int, state: AngularState, params: DeformationParams,
                      omega: float, hbar: float = 1.0) -> float:
    """Harmonic-well level 2 hbar w (n + L + (d + 2 sum mu)/4)."""
    return bound_energy(Oscillator(omega), n, state, params, hbar)


def oscillator_radial_solution(n: int, state: AngularState,
                               params: DeformationParams, omega: float,
                               hbar: float = 1.0, mass: float = 1.0
                               ) -> RadialSolution:
    """Closed-form harmonic-well radial state, unit norm against r^c."""
    return radial_solution(Oscillator(omega), n, state, params, hbar, mass)


def pho_energy(n: int, state: AngularState, params: DeformationParams,
               D_e: float, r_e: float, hbar: float = 1.0,
               mass: float = 1.0) -> float:
    """Pseudoharmonic-well level; the formula is on Pseudoharmonic."""
    return bound_energy(Pseudoharmonic(D_e, r_e), n, state, params, hbar, mass)


def pho_radial_solution(n: int, state: AngularState, params: DeformationParams,
                        D_e: float, r_e: float, hbar: float = 1.0,
                        mass: float = 1.0) -> RadialSolution:
    """Closed-form pseudoharmonic radial state, unit norm against r^c."""
    return radial_solution(Pseudoharmonic(D_e, r_e), n, state, params, hbar,
                           mass)


def coulomb_energy(n: int, state: AngularState, params: DeformationParams,
                   e2: float, hbar: float = 1.0, mass: float = 1.0) -> float:
    """Attractive 1/r level -(m e2^2 / 2 hbar^2) / (n + 2L + sum mu + (d-1)/2)^2."""
    return bound_energy(Coulomb(e2), n, state, params, hbar, mass)


def coulomb_radial_solution(n: int, state: AngularState,
                            params: DeformationParams, e2: float,
                            hbar: float = 1.0, mass: float = 1.0
                            ) -> RadialSolution:
    """Closed-form attractive-1/r radial state, unit norm against r^c."""
    return radial_solution(Coulomb(e2), n, state, params, hbar, mass)


def coulomb_large_d_expansion(n: int, state: AngularState,
                              params: DeformationParams, e2: float,
                              order: int = 2, hbar: float = 1.0,
                              mass: float = 1.0) -> float:
    """Truncated large-d series of the attractive-1/r level.

    E ~ -(2 m e2^2/hbar^2) [1/d^2 - 4 (n + 2L + sum mu - 1/2)/d^3 + ...]

    order counts the retained bracket terms (0, 1, or 2). The remainder of
    the order-2 truncation is O(d^-4) times the prefactor 2 m e2^2/hbar^2.
    """
    Coulomb(e2).radial_problem(n, state, params, hbar, mass)  # input checks
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
    against exactly this weight.
    """
    r = np.asarray(r, dtype=float)
    u = radial_wavefunction(sol, r)
    out = np.asarray(u) ** 2 * np.power(r, sol.c)
    return out if out.ndim else float(out)
