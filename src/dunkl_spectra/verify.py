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
symmetric tridiagonal eigenproblem. The scheme is second order in h;
optional Richardson extrapolation over the grid and its doubling removes
the leading error term.

Every level is found by its own index, so its value depends only on that
index, the box and the grid. On the grid it is bisected at its index, with
its eigenvector. On the doubled grid that vector, interpolated, starts a
Rayleigh-quotient iteration (a two-grid eigensolve: Xu & Zhou, Math. Comp.
70 (2001) 17-25); the result is kept only when it converged and Sturm
counts place it at the level's index, and otherwise the doubled grid is
bisected at that index too. Rejections are logged at DEBUG level under the
`dunkl_spectra` logger.

Absorbing the exact power matters: the naive substitution u = r^{c/2} U
with a Dirichlet origin converges to the wrong self-adjoint extension
whenever the reduced barrier strength falls into the limit-circle window
(it selects the Friedrichs extension, whose levels differ by O(1)). The
absorbed-power scheme pins the regular branch for every parameter set this
package accepts.

Each potential's RadialSolution record (see `spectra`) supplies c, p, the
potential terms, the energy shift, the automatic box and the one state
formula of residuals and Gram matrices; only the per-level 1/r boxes read
the potential's family.
"""

from __future__ import annotations

import logging
import sys
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dstebz

from .cartesian import _check_1d_args
from .core import DeformationParams
from .errors import (ConvergenceError, DomainError, TailLeakWarning,
                     check_count, check_levels, check_positive)
from .polar import AngularState
from .specfun import build_quadrature, kummer_m
from .spectra import (PotentialSpec, RadialSolution, radial_solution,
                      radial_wavefunction)

_log = logging.getLogger("dunkl_spectra")

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
    when the chosen box still truncates an eigenstate. n_points is a whole
    number of cells, at least 100; the box edge is a Dirichlet boundary.
    """
    r_max: float | None = None
    n_points: int = 4000
    richardson: bool = True

    def __post_init__(self):
        n_points = check_count(self.n_points, "n_points")
        if n_points < 100:
            raise DomainError(f"need at least 100 grid points, got {n_points}")
        object.__setattr__(self, "n_points", n_points)
        if self.r_max is not None:
            check_positive(r_max=self.r_max)


def _cell_int(q: float, x: np.ndarray) -> np.ndarray:
    """Integrals of r^q between consecutive points of x; q = -1 gets the log
    branch. Each power of x is taken once, as neighbouring intervals share
    their endpoints.

    x[0] = 0 is allowed for q > -1 (the antiderivative vanishes there).
    """
    if abs(q + 1.0) < 1e-12:
        return np.log(x[1:] / x[:-1])
    xq = x ** (q + 1.0)
    return (xq[1:] - xq[:-1]) / (q + 1.0)


def _fv_matrix(q: float, vterms, r_max: float, n: int, scale: float):
    """The weighted form with w = r^q on n cells as a symmetric tridiagonal
    matrix.

    vterms is a list of (coeff, power) pairs, V(r) = sum coeff * r^power,
    and scale = 2m/hbar^2. Returns (diag, off, s, nodes): the eigenvalues of
    the matrix are scale times the energies, s holds the square roots of the
    cell masses, and an eigenvector x is G = x/s at the cell nodes.

    Raises ConvergenceError when a cell mass, load or flux is not finite in
    double precision (large q on a large box overflows r^(q+1)).
    """
    h = r_max / n
    edges = np.arange(n + 1) * h
    nodes = (np.arange(1, n + 1) - 0.5) * h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cell_mass = _cell_int(q, edges)
        load = np.zeros(n)
        for coeff, power in vterms:
            load += coeff * _cell_int(q + power, edges)
        # interface fluxes, the last one from the outer node to the box edge
        flux = 1.0 / _cell_int(-q, np.append(nodes, r_max))
    if not all(np.isfinite(a).all() for a in (cell_mass, load, flux)):
        raise ConvergenceError(
            f"finite-volume cells overflow double precision for weight "
            f"exponent q={q:g} on the box r_max={r_max:g}")
    diag = scale * load
    diag[:-1] += flux[:-1]
    diag[1:] += flux[:-1]
    diag[-1] += flux[-1]
    # similarity transform by sqrt(cell masses): the generalized problem
    # A x = E B x becomes symmetric tridiagonal, same spectrum
    s = np.sqrt(cell_mass)
    return diag / cell_mass, -flux[:-1] / (s[:-1] * s[1:]), s, nodes


def _bisect(diag: np.ndarray, off: np.ndarray, j: int, vector: bool = False):
    """Eigenvalue j of the tridiagonal matrix by bisection, with its vector."""
    try:
        out = eigh_tridiagonal(diag, off, select="i", select_range=(j, j),
                               eigvals_only=not vector)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return (out[0][0], out[1][:, 0]) if vector else out[0]


# Fine-grid refinement: Rayleigh-quotient iteration stops once the residual
# |T x - sigma x| falls to _RESIDUAL * |T|, a few hundred roundoffs; a
# Sturm count then needs the window sigma -+ _WINDOW * |T| to hold exactly
# one eigenvalue, of the level's own index. That bounds the quotient's error
# by residual^2/window (Kato-Temple), far below the roundoff of bisection.
_RQI_STEPS = 6
_RESIDUAL = 1e-13
_WINDOW = 1e-9


def _rqi(diag: np.ndarray, off: np.ndarray, x: np.ndarray, tol: float):
    """Rayleigh-quotient iteration from x: the quotient once the residual is
    at most tol, or None. Reductions are ufunc sums, as BLAS threading only
    slows vectors this short."""
    for _ in range(_RQI_STEPS):
        x = x / np.sqrt(np.sum(x * x))
        tx = diag * x
        tx[:-1] += off * x[1:]
        tx[1:] += off * x[:-1]
        sigma = np.sum(x * tx)
        r = tx - sigma * x
        if np.sqrt(np.sum(r * r)) <= tol:
            return float(sigma)
        *_, x, info = dgtsv(off, diag - sigma, off, x)
        if info:
            return None
    return None


def _refine(diag: np.ndarray, off: np.ndarray, levels: range, starts,
            r_max: float):
    """Fine-grid eigenvalues of the indices `levels`, and per level "rqi" or
    "bisection" for how each was found.

    Each level's iteration starts from its vector in `starts`. A converged
    quotient is kept when two Sturm counts place it alone in its window at
    its own index; otherwise the level is bisected at its index. So each
    value depends on its index and the matrix alone, never on which other
    levels are solved with it.
    """
    tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    floor = np.min(diag) - tnorm  # below every eigenvalue (Gershgorin)
    width = _WINDOW * tnorm

    def count(x):  # eigenvalues in (floor, x]: a bisection stopped at once
        m, *_, info = dstebz(diag, off, 1, floor, x, 0, 0, 2.0 * tnorm, b"E")
        return None if info else m

    values, how = [], []
    for j, start in zip(levels, starts):
        sigma = _rqi(diag, off, start, _RESIDUAL * tnorm)
        index = None if sigma is None else count(sigma - width)
        if index == j and count(sigma + width) == j + 1:
            values.append(sigma)
            how.append("rqi")
            continue
        _log.debug("level %d: fine-grid refinement rejected (Sturm index "
                   "%s), bisected at its index on the box r_max=%g",
                   j, index, r_max)
        values.append(_bisect(diag, off, j))
        how.append("bisection")
    return np.array(values), how


def _check_tail(vecs: np.ndarray, r_max: float, label: str) -> None:
    """Warn of a truncated state, naming the first caller outside verify."""
    leak = np.max(np.abs(vecs[-1, :]) / np.max(np.abs(vecs), axis=0))
    if leak > 1e-6:
        level = 2  # stacklevel L names the frame sys._getframe(L - 1)
        while sys._getframe(level - 1).f_globals["__name__"] == __name__:
            level += 1
        warnings.warn(
            f"{label}: eigenstate amplitude {leak:.1e} at r_max={r_max:g}; "
            f"the box truncates the state, enlarge r_max",
            TailLeakWarning, stacklevel=level)


def _solve_levels(q: float, vterms, r_max: float, cfg: DiscretizationConfig,
                  levels: range, hbar: float, mass: float, label: str):
    """Eigenvalues of the consecutive indices `levels` on one box, and how
    each fine value was found (None without Richardson).

    Each coarse level is bisected at its own index with its vector; the
    vector, as G = x/s interpolated onto the doubled grid, starts that
    level's fine-grid iteration.
    """
    scale = 2.0 * mass / hbar ** 2
    diag, off, s, nodes = _fv_matrix(q, vterms, r_max, cfg.n_points, scale)
    pairs = [_bisect(diag, off, j, vector=True) for j in levels]
    coarse = np.array([value for value, _ in pairs]) / scale
    vecs = np.column_stack([vec for _, vec in pairs])
    _check_tail(vecs, r_max, label)
    if not cfg.richardson:
        return coarse, None
    fdiag, foff, fs, fnodes = _fv_matrix(q, vterms, r_max, 2 * cfg.n_points,
                                         scale)
    starts = [fs * np.interp(fnodes, nodes, vec / s) for vec in vecs.T]
    fine, how = _refine(fdiag, foff, levels, starts, r_max)
    return (4.0 * (fine / scale) - coarse) / 3.0, how


def _box(cfg: DiscretizationConfig, rec: RadialSolution) -> float:
    """The configured box, or the automatic one of the record's level."""
    return rec.r_max if cfg.r_max is None else cfg.r_max


def _record_levels(rec: RadialSolution, cfg: DiscretizationConfig,
                   levels: range, hbar: float, mass: float, label: str):
    """_solve_levels on the record's weight, potential terms and box."""
    vals, how = _solve_levels(rec.c + 2.0 * rec.p, rec.vterms, _box(cfg, rec),
                              cfg, levels, hbar, mass, label)
    return vals + rec.shift, how


def radial_eigenvalues(potential: PotentialSpec, params: DeformationParams,
                       state: AngularState, cfg: DiscretizationConfig, k: int,
                       hbar: float = 1.0, mass: float = 1.0, *,
                       fine_solve: list | None = None) -> np.ndarray:
    """Lowest k radial eigenvalues from the finite-volume discretization.

    The top level's closed-form record supplies the weight, the potential
    terms and, with r_max = None, the box; its analytic energy enters only
    through that box size, never the eigensolve itself. Level j is found by
    its own index: bisection at index j on the grid, then, with Richardson
    extrapolation, Rayleigh-quotient iteration on the doubled grid from
    that eigenvector, kept only when a Sturm count confirms index j and
    otherwise replaced by bisection at index j. So on a given box entry j
    is the same for every k > j. A list passed as fine_solve receives, per
    level, "rqi" or "bisection" for how its fine value was found (nothing
    without Richardson). `oracle_report` reads it there rather than calling
    the private solver, so that its Gaussian-family solves stay calls of
    this public function, whose spans perfbench's per-layer verify figures
    are taken from.
    """
    k = check_levels(k)
    rec = potential.radial_problem(k - 1, state, params, hbar, mass)
    vals, how = _record_levels(rec, cfg, range(k), hbar, mass, potential.tag)
    if fine_solve is not None and how is not None:
        fine_solve.extend(how)
    return vals


def cartesian_1d_eigenvalues(mu: float, s: int, omega: float,
                             cfg: DiscretizationConfig, k: int,
                             hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Lowest k single-axis eigenvalues of the parity-reduced problems.

    The even sector is solved directly on the half line with weight
    exponent 2 mu (zero-flux origin matches the even regular branch); the
    odd sector divides out one power of x and solves with 2 mu + 2. Levels
    are found by index as in `radial_eigenvalues`.
    """
    _check_1d_args(mu, s, omega, hbar, mass)
    k = check_levels(k)
    q = 2.0 * mu if s == 1 else 2.0 * mu + 2.0
    r_max = cfg.r_max
    if r_max is None:
        top = hbar * omega * (2.0 * (k - 1) + mu + 1.5)
        r_max = max(8.0, 2.6 * np.sqrt(2.0 * top / mass) / omega)
    vterms = [(0.5 * mass * omega ** 2, 2.0)]
    return _solve_levels(q, vterms, r_max, cfg, range(k), hbar, mass,
                         f"axis sector s={s:+d}")[0]


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
    sol = radial_solution(potential, n, state, params, hbar, mass)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    f = np.array([radial_wavefunction(sol, grid + o * step) for o in offsets])
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * step ** 2)
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * step)
    # the record's problem: its barrier, potential terms and energy shift
    v = sum(coeff * grid ** power for coeff, power in sol.vterms)
    bracket = (2.0 * mass / hbar ** 2 * (sol.energy - sol.shift - v)
               - sol.barrier / grid ** 2)
    terms = (d2, (sol.c / grid) * d1, bracket * f[2])
    residual = np.abs(terms[0] + terms[1] + terms[2])
    magnitude = np.max(np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2]))
    return float(np.max(residual) / magnitude)


def orthogonality_matrix(potential: PotentialSpec, params: DeformationParams,
                         state: AngularState, n_max: int,
                         hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Gram matrix of the first n_max normalized radial states under r^c.

    Orthonormality of the closed forms under the radial weight is a
    consequence of self-adjointness; deviations expose either a wrong
    solution or a wrong weight. Each state is U = N r^p e^{-lam r^sigma}
    M(-n, b, 2 lam r^sigma), lam = scale/sigma, so in t = rho r^sigma,
    rho = lam_i + lam_j, a pair's integrand is t^alpha e^{-t} (the record's
    alpha) times a polynomial of degree below 2 n_max: one Gauss-Laguerre
    rule integrates every pair exactly.
    """
    n_max = check_levels(n_max, "n_max")
    sols = [radial_solution(potential, n, state, params, hbar, mass)
            for n in range(n_max)]
    sigma, alpha = sols[0].sigma, sols[0].alpha
    rule = build_quadrature(alpha, "exp_r", n_max + 6)

    @cache
    def kummer(n: int, x: float) -> np.ndarray:
        # M(-n, b, 2 lam r^sigma) at the nodes, x = 2 lam/rho: x = 1 for
        # every Gaussian pair, so each state is evaluated once there
        return kummer_m(sols[n].kummer_a, sols[n].b, x * rule.nodes)

    gram = np.empty((n_max, n_max))
    for i, si in enumerate(sols):
        for j, sj in enumerate(sols[:i + 1]):
            rate = si.scale + sj.scale  # sigma * rho
            vals = (kummer(i, 2.0 * si.scale / rate)
                    * kummer(j, 2.0 * sj.scale / rate))
            gram[i, j] = gram[j, i] = (
                si.norm * sj.norm * (rate / sigma) ** -(alpha + 1.0) / sigma
                * float(np.sum(rule.weights * vals)))
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
    magnitude), and each is solved alone on its own box; the Gaussian-family
    levels share one box. grid["r_max"] is the box used: one number, or the
    list of per-level boxes. grid["fine_solve"] says per level whether the
    fine Richardson value came from Rayleigh-quotient iteration ("rqi") or
    from bisection at the level's index ("bisection"); it is None without
    Richardson extrapolation.
    """
    k = check_levels(k)
    recs = [potential.radial_problem(n, state, params, hbar, mass)
            for n in range(k)]
    how = []
    if potential.gaussian or cfg.r_max is not None:
        numeric = list(radial_eigenvalues(potential, params, state, cfg, k,
                                          hbar, mass, fine_solve=how))
        r_max = _box(cfg, recs[-1])
    else:
        numeric = []
        for n, rec in enumerate(recs):
            vals, level = _record_levels(rec, cfg, range(n, n + 1), hbar,
                                         mass, potential.tag)
            numeric.append(vals[0])
            how.extend(level or ())
        r_max = [_box(cfg, rec) for rec in recs]
    return OracleReport(
        potential=potential.tag, d=params.d, mu=params.mu,
        two_ell=state.two_ell, parity=state.parity.s,
        levels=tuple(range(k)), analytic=tuple(float(r.energy) for r in recs),
        numeric=tuple(float(v) for v in numeric), tolerance=tolerance,
        grid={"r_max": r_max, "n_points": cfg.n_points,
              "richardson": cfg.richardson,
              "fine_solve": how if cfg.richardson else None})
