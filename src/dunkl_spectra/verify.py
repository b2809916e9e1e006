"""Independent numerical cross-check of every closed form in `spectra` and
`cartesian`.

The radial problem

    -(hbar^2/2m) [U'' + (c/r) U'] + [V(r) + (hbar^2/2m) W^2/r^2] U = E U

is brought to weighted divergence form by absorbing the regular leading
power p of the physical solution (U = r^p G): with w = r^q, q = c + 2p,
the barrier term drops out and

    -(hbar^2/2m) (1/w) (w G')' + V G = E G.

That form is discretized by finite volumes on staggered nodes
r_i = (i - 1/2) h with cells ((i-1) h, i h): cell masses and potential
loads are exact power-moment integrals of w and w V, interface fluxes are
harmonic averages 1/integral(r^-q), the origin gets the natural (zero-flux)
condition, and r_max a Dirichlet condition. A similarity transform by the
square roots of the cell masses turns the generalized problem into a plain
symmetric tridiagonal eigenproblem, solved by bisection plus inverse
iteration for the lowest k eigenvalues. The scheme is second order in h;
optional two-grid Richardson extrapolation removes the leading error term.

Absorbing the exact power matters: the naive substitution u = r^{c/2} U
with a Dirichlet origin converges to the wrong self-adjoint extension
whenever the reduced barrier strength falls into the limit-circle window
(it selects the Friedrichs extension, whose levels differ by O(1)). The
absorbed-power scheme pins the regular branch for every parameter set this
package accepts.

Each potential's RadialProblem record (see `spectra`) supplies c, p, the
potential terms, the energy shift and the automatic box; only the Gram
matrices and the per-level 1/r boxes also read its `gaussian` flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .cartesian import _check_1d_args
from .core import DeformationParams
from .errors import (ConvergenceError, DomainError, TailLeakWarning,
                     check_positive)
from .polar import AngularState
from .spectra import (PotentialSpec, RadialProblem, radial_solution,
                      radial_wavefunction)

__all__ = [
    "DiscretizationConfig",
    "OracleReport",
    "radial_eigenvalues",
    "cartesian_1d_eigenvalues",
    "residual_check",
    "orthogonality_matrix",
    "oracle_report",
]


@dataclass(frozen=True)
class DiscretizationConfig:
    """Grid controls for the finite-volume eigensolver.

    r_max = None asks the solver to size the box from the target level's
    classical turning point and decay length. The post-hoc tail check warns
    when the chosen box still truncates an eigenstate.
    """
    r_max: float | None = None
    n_points: int = 4000
    boundary: str = "dirichlet_at_rmax"
    richardson: bool = True

    def __post_init__(self):
        if self.n_points < 100:
            raise DomainError(f"need at least 100 grid points, got {self.n_points}")
        if self.r_max is not None:
            check_positive(r_max=self.r_max)
        if self.boundary != "dirichlet_at_rmax":
            raise DomainError(f"unsupported boundary {self.boundary!r}")


def _power_int(q: float, a, b):
    """Integral of r^q over (a, b); q = -1 gets the log branch.

    a = 0 is allowed for q > -1 (the antiderivative vanishes there).
    """
    if abs(q + 1.0) < 1e-12:
        return np.log(b / a)
    return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)


def _fv_eigensolve(q: float, vterms, r_max: float, n: int, k: int,
                   hbar: float, mass: float, want_vectors: bool = False):
    """Lowest k eigenvalues of the weighted form with w = r^q.

    vterms is a list of (coeff, power) pairs, V(r) = sum coeff * r^power.
    """
    h = r_max / n
    i = np.arange(1, n + 1)
    lo = (i - 1.0) * h
    hi = i * h
    cell_mass = _power_int(q, lo, hi)
    load = np.zeros(n)
    for coeff, power in vterms:
        load += coeff * _power_int(q + power, lo, hi)
    nodes = (i - 0.5) * h
    flux = 1.0 / _power_int(-q, nodes[:-1], nodes[1:])
    flux_boundary = 1.0 / _power_int(-q, nodes[-1], np.asarray(r_max))
    scale = 2.0 * mass / hbar ** 2
    diag = scale * load
    diag[:-1] += flux
    diag[1:] += flux
    diag[-1] += flux_boundary
    # similarity transform by sqrt(cell masses): the generalized problem
    # A x = E B x becomes symmetric tridiagonal, same spectrum
    s = np.sqrt(cell_mass)
    try:
        out = eigh_tridiagonal(diag / cell_mass, -flux / (s[:-1] * s[1:]),
                               select="i", select_range=(0, k - 1),
                               eigvals_only=not want_vectors)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    if want_vectors:
        vals, vecs = out
        return vals / scale, vecs
    return out / scale


def _check_tail(vecs: np.ndarray, r_max: float, label: str) -> None:
    leak = np.max(np.abs(vecs[-1, :]) / np.max(np.abs(vecs), axis=0))
    if leak > 1e-6:
        warnings.warn(
            f"{label}: eigenstate amplitude {leak:.1e} at r_max={r_max:g}; "
            f"the box truncates the state, enlarge r_max",
            TailLeakWarning, stacklevel=3)


def _solve_with_config(q: float, vterms, r_max: float, cfg: DiscretizationConfig,
                       k: int, hbar: float, mass: float, label: str) -> np.ndarray:
    coarse, vecs = _fv_eigensolve(q, vterms, r_max, cfg.n_points, k,
                                  hbar, mass, want_vectors=True)
    _check_tail(vecs, r_max, label)
    if not cfg.richardson:
        return coarse
    fine = _fv_eigensolve(q, vterms, r_max, 2 * cfg.n_points, k, hbar, mass)
    return (4.0 * fine - coarse) / 3.0


def _box(cfg: DiscretizationConfig, rec: RadialProblem) -> float:
    """The configured box, or the automatic one of the record's level."""
    return rec.r_max if cfg.r_max is None else cfg.r_max


def radial_eigenvalues(potential: PotentialSpec, params: DeformationParams,
                       state: AngularState, cfg: DiscretizationConfig, k: int,
                       hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Lowest k radial eigenvalues from the finite-volume discretization.

    The top level's closed-form record supplies the weight, the potential
    terms and, with r_max = None, the box; its analytic energy enters only
    through that box size, never the eigensolve itself.
    """
    if k < 1:
        raise DomainError(f"need at least one level, got k={k}")
    rec = potential.radial_problem(k - 1, state, params, hbar, mass)
    vals = _solve_with_config(rec.c + 2.0 * rec.p, rec.vterms, _box(cfg, rec),
                              cfg, k, hbar, mass, potential.tag)
    return vals + rec.shift


def cartesian_1d_eigenvalues(mu: float, s: int, omega: float,
                             cfg: DiscretizationConfig, k: int,
                             hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Lowest k single-axis eigenvalues of the parity-reduced problems.

    The even sector is solved directly on the half line with weight
    exponent 2 mu (zero-flux origin matches the even regular branch); the
    odd sector divides out one power of x and solves with 2 mu + 2.
    """
    _check_1d_args(mu, s, omega, hbar, mass)
    q = 2.0 * mu if s == 1 else 2.0 * mu + 2.0
    r_max = cfg.r_max
    if r_max is None:
        top = hbar * omega * (2.0 * (k - 1) + mu + 1.5)
        r_max = max(8.0, 2.6 * np.sqrt(2.0 * top / mass) / omega)
    vterms = [(0.5 * mass * omega ** 2, 2.0)]
    return _solve_with_config(q, vterms, r_max, cfg, k, hbar, mass,
                              f"axis sector s={s:+d}")


def residual_check(potential: PotentialSpec, params: DeformationParams,
                   state: AngularState, n: int, grid,
                   hbar: float = 1.0, mass: float = 1.0,
                   step: float = 1e-3) -> float:
    """Apply the radial differential operator to the closed-form state.

    Fourth-order five-point stencils on the supplied interior grid; returns
    the maximum residual scaled by the largest term magnitude, so an exact
    solution scores near machine precision.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 2.0 * step):
        raise DomainError("grid points must stay clear of the origin")
    rec = potential.radial_problem(n, state, params, hbar, mass)
    sol = radial_solution(potential, n, state, params, hbar, mass)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    f = np.array([radial_wavefunction(sol, grid + o * step) for o in offsets])
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * step ** 2)
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * step)
    # the record's problem: its barrier, potential terms and energy shift
    v = sum(coeff * grid ** power for coeff, power in rec.vterms)
    bracket = (2.0 * mass / hbar ** 2 * (rec.energy - rec.shift - v)
               - rec.barrier / grid ** 2)
    terms = (d2, (rec.c / grid) * d1, bracket * f[2])
    residual = np.abs(terms[0] + terms[1] + terms[2])
    magnitude = np.max(np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]))
    return float(np.max(residual) / magnitude)


def orthogonality_matrix(potential: PotentialSpec, params: DeformationParams,
                         state: AngularState, n_max: int,
                         hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Gram matrix of the first n_max normalized radial states under r^c.

    Orthonormality of the closed forms under the radial weight is a
    consequence of self-adjointness; deviations expose either a wrong
    solution or a wrong weight.
    """
    from .specfun import build_quadrature, kummer_m

    if n_max < 1:
        raise DomainError(f"need at least one state, got {n_max}")
    sols = [radial_solution(potential, n, state, params, hbar, mass)
            for n in range(n_max)]
    rec = potential.radial_problem(0, state, params, hbar, mass)
    c, gamma = rec.c, rec.c + 2.0 * rec.p
    gram = np.empty((n_max, n_max))
    if not potential.gaussian:
        # each pair has its own decay rate, so integrate each pair in the
        # variable u = (eta_i + eta_j) r against u^gamma e^{-u}
        rule = build_quadrature(gamma, "exp_r", n_max + 6)
        for i, si in enumerate(sols):
            for j, sj in enumerate(sols[:i + 1]):
                rate = si.decay_scale + sj.decay_scale
                vals = (kummer_m(si.kummer_a, si.kummer_b,
                                 2.0 * si.decay_scale * rule.nodes / rate)
                        * kummer_m(sj.kummer_a, sj.kummer_b,
                                   2.0 * sj.decay_scale * rule.nodes / rate))
                gram[i, j] = gram[j, i] = (
                    si.norm * sj.norm * rate ** (-(gamma + 1.0))
                    * float(np.sum(rule.weights * vals)))
        return gram
    # Gaussian family: all states share the decay scale and leading power
    rule = build_quadrature(gamma, "exp_r2", max(2 * n_max + 6, 12))
    u = rule.nodes ** 2
    vals = [kummer_m(s.kummer_a, s.kummer_b, u) for s in sols]
    pref = rec.scale ** (-(c + 1.0) / 2.0)
    for i in range(n_max):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = (
                sols[i].norm * sols[j].norm * pref
                * float(np.sum(rule.weights * vals[i] * vals[j])))
    return gram


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side closed-form vs discretized eigenvalues for one setup."""
    potential: str
    d: int
    mu: tuple
    two_ell: tuple
    parity: tuple
    levels: tuple
    analytic: tuple
    numeric: tuple
    tolerance: float
    grid: dict = field(compare=False)

    @property
    def abs_err(self) -> tuple:
        return tuple(abs(a - b) for a, b in zip(self.analytic, self.numeric))

    @property
    def rel_err(self) -> tuple:
        return tuple(abs(a - b) / abs(a) for a, b in zip(self.analytic, self.numeric))

    @property
    def max_rel_err(self) -> float:
        return float(max(self.rel_err))

    @property
    def passed(self) -> bool:
        return bool(self.max_rel_err <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "potential": self.potential,
            "d": self.d,
            "mu": list(self.mu),
            "two_ell": list(self.two_ell),
            "parity": list(self.parity),
            "levels": list(self.levels),
            "analytic": list(self.analytic),
            "numeric": list(self.numeric),
            "abs_err": list(self.abs_err),
            "rel_err": list(self.rel_err),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "grid": dict(self.grid),
        }


def oracle_report(potential: PotentialSpec, params: DeformationParams,
                  state: AngularState, cfg: DiscretizationConfig, k: int,
                  tolerance: float, hbar: float = 1.0,
                  mass: float = 1.0) -> OracleReport:
    """Compare k closed-form levels against the discretization.

    With an automatic box, levels of the attractive 1/r problem get
    individually sized grids (their spatial extents differ by orders of
    magnitude); the Gaussian-family levels share one box. grid["r_max"] is
    the box used: one number, or the list of per-level boxes.
    """
    if k < 1:
        raise DomainError(f"need at least one level, got k={k}")
    recs = [potential.radial_problem(n, state, params, hbar, mass)
            for n in range(k)]
    if potential.gaussian or cfg.r_max is not None:
        numeric = list(radial_eigenvalues(potential, params, state, cfg, k,
                                          hbar, mass))
        r_max = _box(cfg, recs[-1])
    else:
        numeric = [radial_eigenvalues(potential, params, state, cfg, n + 1,
                                      hbar, mass)[n]
                   for n in range(k)]
        r_max = [_box(cfg, rec) for rec in recs]
    return OracleReport(
        potential=potential.tag, d=params.d, mu=params.mu,
        two_ell=state.two_ell, parity=state.parity.s,
        levels=tuple(range(k)), analytic=tuple(float(r.energy) for r in recs),
        numeric=tuple(float(v) for v in numeric), tolerance=tolerance,
        grid={"r_max": r_max, "n_points": cfg.n_points,
              "richardson": cfg.richardson})
