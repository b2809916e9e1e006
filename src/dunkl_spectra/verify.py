"""Independent numerical cross-check of every closed form in `spectra` and
`cartesian`.

The radial problem

    -(hbar^2/2m) [U'' + (c/r) U'] + [V(r) + (hbar^2/2m) W^2/r^2] U = E U

is brought to weighted divergence form by absorbing the regular leading
power p of the physical solution (U = r^p G): with w = r^q, q = c + 2p,
the barrier term drops out and

    -(hbar^2/2m) (1/w) (w G')' + V G = E G.

That form is discretized by P1 finite elements on the vertices r_i = i h
(Pryce, Numerical Solution of Sturm-Liouville Problems, 1993): exact
element stiffnesses, and lumped masses and potential loads that are exact
moments of w and w V against the hat functions; the origin keeps the
natural condition and r_max is a Dirichlet edge. Scaling by the square
roots of the masses gives a symmetric tridiagonal eigenproblem. The origin
hat lies above the spectrum, so no spurious low level appears for any
weight. The scheme is second order in h; optional Richardson extrapolation
over the grid and its doubling removes the leading error term.

Each level is found by its own index on a ladder of n_points // 8,
n_points and 2 n_points cells: bisected at its index on the first rung
only, then on each later rung refined by Rayleigh-quotient iteration from
the previous rung's vector (a two-grid eigensolve rung by rung: Xu & Zhou,
Math. Comp. 70 (2001) 17-25). A result is kept only when Sturm counts place
it at the level's index; otherwise that rung is bisected at the index too,
and the rejection is logged at DEBUG level under the `dunkl_spectra`
logger. So a level's value depends only on its index, the box and the grid.

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
    """Grid controls for the P1 eigensolver.

    r_max = None asks the solver to size the box from the target level's
    classical turning point and decay length. The post-hoc tail check warns
    when the chosen box still truncates an eigenstate. n_points is a whole
    number of cells, at least 100; the box edge is a Dirichlet boundary.
    Levels are also solved on a seed grid of n_points // 8 cells (left out
    below 100 or one per level) and, with Richardson, on 2 n_points cells.
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


def _p1_matrix(q: float, vterms, r_max: float, n: int, scale: float):
    """The weighted form with w = r^q on the P1 vertices r_i = i h, i < n,
    h = r_max/n, as a symmetric tridiagonal matrix.

    vterms is a list of (coeff, power) pairs, V(r) = sum coeff * r^power,
    and scale = 2m/hbar^2. Returns (diag, off, s, nodes): the eigenvalues
    are scale times the energies, s holds the square roots of the lumped
    masses, and an eigenvector x is G = x/s at the vertices. Raises
    ConvergenceError when an entry is not finite in double precision (large
    q on a large box overflows r^(q+1)).
    """
    h = r_max / n
    i = np.arange(1.0, n + 1.0)
    x, r = 1.0 / i, h * i  # at the vertices i = 1 .. n
    with np.errstate(all="ignore"):
        atanh, log_sq = np.arctanh(x[:-1]), np.log1p(-x[:-1] ** 2)

        def moments(a):
            """r^a at r_1 .. r_n, and the integrals of r^a (a > -1) against
            the hats of the vertices 0 .. n-1: for i >= 1, h r_i^a ((1+x)^b
            + (1-x)^b - 2)/(x^2 b (b-1)), x = 1/i, b = a + 2. The bracket is
            summed as (A - B)^2 + 2 (AB - 1), A, B = (1 +- x)^(b/2), with
            A - B = -A expm1(-b atanh x); its two terms cancel by at most a
            factor b/(b-1), however large i is."""
            b = a + 2.0
            ra = r ** a
            diff_sq = ra[1:] * ((1.0 + x[:-1]) * np.expm1(-b * atanh)) ** 2
            bracket = diff_sq + 2.0 * ra[:-1] * np.expm1(0.5 * b * log_sq)
            inner = h * bracket / (x[:-1] ** 2 * b * (b - 1.0))
            return ra, np.concatenate(([h * ra[0] / ((a + 1.0) * b)], inner))

        rq, mass = moments(q)
        load = sum(coeff * moments(q + power)[1] for coeff, power in vterms)
        # element (r_k, r_k+1) integrates r^q to r_k+1^(q+1) (1 - (k/(k+1))
        # ^(q+1))/(q+1); vertex i sits on elements i - 1 and i
        stiff = (-rq * r * np.expm1((q + 1.0) * np.log1p(-x))
                 / ((q + 1.0) * h * h))
        vertex = stiff + scale * load
        vertex[1:] += stiff[:-1]
        s = np.sqrt(mass)
        diag = vertex / mass
        off = -stiff[:-1] / (s[:-1] * s[1:])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ConvergenceError(
            f"P1 elements overflow double precision for weight exponent "
            f"q={q:g} on the box r_max={r_max:g}")
    return diag, off, s, (i - 1.0) * h


def _bisect(diag: np.ndarray, off: np.ndarray, j: int):
    """Eigenpair j of the tridiagonal matrix by bisection at its index."""
    try:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(j, j))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return w[0], v[:, 0]


# Refinement on a finer rung: Rayleigh-quotient iteration stops once the
# residual |T x - sigma x| falls to _RESIDUAL * |T|, a few hundred
# roundoffs; a Sturm count then needs the window sigma -+ _WINDOW * |T| to
# hold exactly one eigenvalue, of the level's own index. That bounds the
# quotient's error by residual^2/window (Kato-Temple), far below the
# roundoff of bisection.
_RQI_STEPS = 6
_RESIDUAL = 1e-13
_WINDOW = 1e-9
_SEED_RATIO = 8  # the ladder's seed rung has n_points // 8 cells


def _rqi(diag: np.ndarray, off: np.ndarray, x: np.ndarray, tol: float):
    """Rayleigh-quotient iteration from x: the quotient and its unit vector
    once the residual is at most tol, or None. Reductions are ufunc sums, as
    BLAS threading only slows vectors this short."""
    for _ in range(_RQI_STEPS):
        x = x / np.sqrt(np.sum(x * x))
        tx = diag * x
        tx[:-1] += off * x[1:]
        tx[1:] += off * x[:-1]
        sigma = np.sum(x * tx)
        r = tx - sigma * x
        if np.sqrt(np.sum(r * r)) <= tol:
            return float(sigma), x
        *_, x, info = dgtsv(off, diag - sigma, off, x)
        if info:
            return None
    return None


def _refine(diag: np.ndarray, off: np.ndarray, levels: range, starts,
            r_max: float):
    """Eigenpairs of the indices `levels`: the values, per level "rqi" or
    "bisection" for how each was found, and the vectors as columns.

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

    pairs, how = [], []
    for j, start in zip(levels, starts):
        pair = _rqi(diag, off, start, _RESIDUAL * tnorm)
        index = None if pair is None else count(pair[0] - width)
        how.append("rqi" if index == j and count(pair[0] + width) == j + 1
                   else "bisection")
        if how[-1] == "bisection":
            _log.debug("level %d: refinement on the %d-point grid rejected "
                       "(Sturm index %s), bisected at its index on the box "
                       "r_max=%g", j, len(diag), index, r_max)
            pair = _bisect(diag, off, j)
        pairs.append(pair)
    values, vecs = zip(*pairs)
    return np.array(values), how, np.column_stack(vecs)


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
    """Eigenvalues of the consecutive indices `levels` on one box, and per
    level how its value on the grid and on the doubled grid was found (the
    latter None without Richardson).

    The ladder has n_points // _SEED_RATIO cells (left out below 100 or
    below one per level), n_points and, with Richardson, 2 n_points. Each
    level is bisected at its index on the first rung only; on each later
    rung its previous vector, as G = x/s interpolated, starts `_refine`.
    """
    scale = 2.0 * mass / hbar ** 2
    n, seed = cfg.n_points, cfg.n_points // _SEED_RATIO
    sizes = ([seed] if seed >= max(100, levels.stop) else []) + [n]
    for m in sizes + ([2 * n] if cfg.richardson else []):
        diag, off, s, nodes = _p1_matrix(q, vterms, r_max, m, scale)
        if m == sizes[0]:
            values, vecs = zip(*[_bisect(diag, off, j) for j in levels])
            values, vecs = np.array(values), np.column_stack(vecs)
            how = ["bisection"] * len(levels)
        else:
            # the previous rung's G = x/s, interpolated onto this one
            starts = [s * np.interp(nodes, prev, g) for g in shapes.T]
            values, how, vecs = _refine(diag, off, levels, starts, r_max)
        if m == n:
            _check_tail(vecs, r_max, label)
            coarse, coarse_how = values / scale, how
        prev, shapes = nodes, vecs / s[:, None]
    if not cfg.richardson:
        return coarse, coarse_how, None
    return (4.0 * values / scale - coarse) / 3.0, coarse_how, how


def _box(cfg: DiscretizationConfig, rec: RadialSolution) -> float:
    """The configured box, or the automatic one of the record's level."""
    return rec.r_max if cfg.r_max is None else cfg.r_max


def _record_levels(rec: RadialSolution, cfg: DiscretizationConfig,
                   levels: range, hbar: float, mass: float, label: str):
    """_solve_levels on the record's weight, potential terms and box."""
    vals, *how = _solve_levels(rec.c + 2.0 * rec.p, rec.vterms,
                               _box(cfg, rec), cfg, levels, hbar, mass, label)
    return vals + rec.shift, *how


def radial_eigenvalues(potential: PotentialSpec, params: DeformationParams,
                       state: AngularState, cfg: DiscretizationConfig, k: int,
                       hbar: float = 1.0, mass: float = 1.0, *,
                       coarse_solve: list | None = None,
                       fine_solve: list | None = None) -> np.ndarray:
    """Lowest k radial eigenvalues from the P1 discretization.

    The top level's closed-form record supplies the weight, the potential
    terms and, with r_max = None, the box; its analytic energy enters only
    through that box size, never the eigensolve itself. Each level is found
    by its own index (module docstring), so on a given box entry j is the
    same for every k > j. Lists passed as coarse_solve and fine_solve
    receive, per level, "rqi" or "bisection" for how its value on the grid
    and on the doubled grid was found (fine_solve nothing without
    Richardson). `oracle_report` reads them there so that its
    Gaussian-family solves stay calls of this public function, whose spans
    perfbench's per-layer verify figures are taken from.
    """
    k = check_levels(k)
    rec = potential.radial_problem(k - 1, state, params, hbar, mass)
    vals, coarse, fine = _record_levels(rec, cfg, range(k), hbar, mass,
                                        potential.tag)
    for out, how in ((coarse_solve, coarse), (fine_solve, fine)):
        if out is not None and how is not None:
            out.extend(how)
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
    list of per-level boxes. grid["coarse_solve"] and grid["fine_solve"] say
    per level whether its value on the n_points grid and on the doubled
    Richardson grid came from Rayleigh-quotient iteration ("rqi") or from
    bisection at the level's index ("bisection"); fine_solve is None
    without Richardson extrapolation.
    """
    k = check_levels(k)
    recs = [potential.radial_problem(n, state, params, hbar, mass)
            for n in range(k)]
    coarse, fine = [], []
    if potential.gaussian or cfg.r_max is not None:
        numeric = list(radial_eigenvalues(potential, params, state, cfg, k,
                                          hbar, mass, coarse_solve=coarse,
                                          fine_solve=fine))
        r_max = _box(cfg, recs[-1])
    else:
        numeric = []
        for n, rec in enumerate(recs):
            vals, level_coarse, level_fine = _record_levels(
                rec, cfg, range(n, n + 1), hbar, mass, potential.tag)
            numeric.append(vals[0])
            coarse.extend(level_coarse)
            fine.extend(level_fine or ())
        r_max = [_box(cfg, rec) for rec in recs]
    return OracleReport(
        potential=potential.tag, d=params.d, mu=params.mu,
        two_ell=state.two_ell, parity=state.parity.s,
        levels=tuple(range(k)), analytic=tuple(float(r.energy) for r in recs),
        numeric=tuple(float(v) for v in numeric), tolerance=tolerance,
        grid={"r_max": r_max, "n_points": cfg.n_points,
              "richardson": cfg.richardson, "coarse_solve": coarse,
              "fine_solve": fine if cfg.richardson else None})
