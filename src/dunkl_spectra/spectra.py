"""Closed-form radial solutions and bound-state energies for the three
potentials, their large-dimension asymptotics, and reduced radial densities.

Radial functions solve

    U'' + (c/r) U' + [2m(E - V)/hbar^2 - W^2/r^2] U = 0,
    c = d - 1 + 2 sum mu,  W^2 = varpi_sq(state, params)

Each potential class holds its level formula and, from `radial_problem`,
returns one RadialProblem record per level. This module, the `verify`
oracle and the CLI read those records instead of branching on the
potential, so a new potential is one new class.

The solutions come in two shapes. The Gaussian family (harmonic and
pseudoharmonic wells) is, in the variable u = decay_scale * r^2,

    U(r) = N u^{p/2} e^{-u/2} M(-n, b, u)

while the attractive 1/r problem decays exponentially,

    U(r) = N r^{2L} e^{-eta r} M(-n, B, 2 eta r).

Energies and normalization constants against r^c are exact closed forms:
M(-n, b, u) = n!/(b)_n L_n^{b-1}(u) (DLMF 13.6.19) turns each squared norm
into the Laguerre norm Gamma(n+b)/n! (DLMF 18.3), or for the 1/r problem
its x^{alpha+1} moment (2n+b) Gamma(n+b)/n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from .core import DeformationParams
from .errors import (DomainError, InvalidStateError, check_count,
                     check_positive)
from .polar import AngularState, _check_dimension, varpi_sq
from .specfun import kummer_m, laguerre_norm_sq

__all__ = [
    "RadialProblem",
    "Oscillator",
    "Pseudoharmonic",
    "Coulomb",
    "POTENTIALS",
    "RadialSolution",
    "EnergyLevel",
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


def _weight_exponent(params: DeformationParams) -> float:
    return params.d - 1.0 + 2.0 * params.mu_sum


@dataclass(frozen=True)
class RadialProblem:
    """Closed-form data of one bound level n with energy E.

    U = r^p G, where U solves

        U'' + (c/r) U' + [2m(E - shift - V)/hbar^2 - barrier/r^2] U = 0,
        V(r) = sum of coeff * r^power over vterms,

    and G is e^{-u/2} M(-n, b, u) in u = scale r^2 for the Gaussian family,
    e^{-scale r} M(-n, b, 2 scale r) otherwise. r_max is the finite-volume
    box for levels up to n, from the turning point and decay length.
    """
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


class _Potential:
    """Checks shared by the potential classes, whose fields are physical
    constants. Subclasses set tag and implement _problem; gaussian marks
    states u^{p/2} e^{-u/2} M(-n, b, u) sharing one scale across levels
    (1/r states change decay rate and extent with n); bound states lie
    below continuum.
    """
    gaussian = True
    continuum = math.inf

    def __post_init__(self):
        check_positive(**{f.name: getattr(self, f.name) for f in fields(self)})

    def radial_problem(self, n: int, state: AngularState,
                       params: DeformationParams, hbar: float = 1.0,
                       mass: float = 1.0) -> RadialProblem:
        """Closed-form data of radial level n, after checking every input."""
        check_positive(hbar=hbar, mass=mass)
        n = check_count(n, "radial quantum number")
        _check_dimension(state, params)
        return self._problem(n, state, params, hbar, mass,
                             _weight_exponent(params))


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
        return RadialProblem(
            n=n, energy=energy, c=c, p=2.0 * L,
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
        return RadialProblem(
            n=n, energy=energy, c=c, p=p, b=(c + 1.0) / 2.0 + p,
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
        return RadialProblem(
            n=n, energy=energy, c=c, p=2.0 * L,
            b=4.0 * L + 2.0 * params.mu_sum + params.d - 1.0,
            scale=np.sqrt(-2.0 * mass * energy) / hbar,
            barrier=varpi_sq(state, params), vterms=((-self.e2, -1.0),),
            shift=0.0,
            r_max=max(6.0 * self.e2 / abs(energy),
                      35.0 * hbar / np.sqrt(2.0 * mass * abs(energy))))


PotentialSpec = Oscillator | Pseudoharmonic | Coulomb

POTENTIALS = {cls.tag: cls for cls in get_args(PotentialSpec)}


@dataclass(frozen=True)
class RadialSolution:
    """Closed-form bound radial state.

    For the Gaussian family, leading_exponent is the power of
    u = decay_scale r^2 in front; for the 1/r problem it is the power of r
    itself and decay_scale is the exponential rate eta. kummer_a = -n always;
    kummer_b must be positive for the state to be normalizable. norm is the
    closed-form constant that gives U unit norm against r^c.
    """
    potential: PotentialSpec
    params: DeformationParams
    state: AngularState
    n: int
    leading_exponent: float
    decay_scale: float
    kummer_a: float
    kummer_b: float
    energy: float
    hbar: float
    mass: float

    def __post_init__(self):
        if self.kummer_b <= 0.0:
            raise InvalidStateError(
                f"hypergeometric parameter b={self.kummer_b} must be positive")
        if self.kummer_a != -self.n:
            raise InvalidStateError(
                f"bound state needs a=-n, got a={self.kummer_a}, n={self.n}")

    @property
    def norm(self) -> float:
        n, b = self.n, self.kummer_b
        # integral of u^{b-1} e^{-u} M(-n, b, u)^2 over (0, inf)
        norm_sq = laguerre_norm_sq(n, b - 1.0) * math.exp(
            2.0 * (math.lgamma(n + 1.0) + math.lgamma(b) - math.lgamma(n + b)))
        if self.potential.gaussian:  # u = scale r^2, b = (c + 1)/2 + 2 lead
            c = _weight_exponent(self.params)
            norm_sq *= 0.5 * self.decay_scale ** (-(c + 1.0) / 2.0)
        else:  # x = 2 eta r, b = c + 2 lead: one more power of x
            norm_sq *= (2.0 * self.decay_scale) ** (-(b + 1.0)) * (2.0 * n + b)
        return 1.0 / np.sqrt(norm_sq)


@dataclass(frozen=True)
class EnergyLevel:
    """One spectrum entry: quantum labels plus the closed-form energy."""
    n: int
    state: AngularState
    d: int
    energy: float
    potential: PotentialSpec

    def __post_init__(self):
        if not self.energy < self.potential.continuum:
            raise InvalidStateError(
                f"{self.tag} bound states must lie below "
                f"{self.potential.continuum}, got {self.energy}")

    @property
    def tag(self) -> str:
        return self.potential.tag


def bound_energy(potential: PotentialSpec, n: int, state: AngularState,
                 params: DeformationParams, hbar: float = 1.0,
                 mass: float = 1.0) -> float:
    """Closed-form energy for any potential variant."""
    return potential.radial_problem(n, state, params, hbar, mass).energy


def radial_solution(potential: PotentialSpec, n: int, state: AngularState,
                    params: DeformationParams, hbar: float = 1.0,
                    mass: float = 1.0) -> RadialSolution:
    """Build the radial state for any potential variant, normalized in
    closed form."""
    rec = potential.radial_problem(n, state, params, hbar, mass)
    return RadialSolution(
        potential=potential, params=params, state=state, n=rec.n,
        leading_exponent=rec.p / 2.0 if potential.gaussian else rec.p,
        decay_scale=rec.scale, kummer_a=-float(rec.n), kummer_b=rec.b,
        energy=rec.energy, hbar=hbar, mass=mass)


def radial_wavefunction(sol: RadialSolution, r):
    """Evaluate any RadialSolution at r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if sol.potential.gaussian:
        u = sol.decay_scale * r * r
        out = (sol.norm * np.power(u, sol.leading_exponent) * np.exp(-0.5 * u)
               * kummer_m(sol.kummer_a, sol.kummer_b, u))
    else:
        out = (sol.norm * np.power(r, sol.leading_exponent)
               * np.exp(-sol.decay_scale * r)
               * kummer_m(sol.kummer_a, sol.kummer_b, 2.0 * sol.decay_scale * r))
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
    c = _weight_exponent(sol.params)
    u = radial_wavefunction(sol, r)
    out = np.asarray(u) ** 2 * np.power(r, c)
    return out if out.ndim else float(out)
