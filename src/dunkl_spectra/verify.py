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

Every entry of vertex i depends on i alone up to powers of h, so the
element moments are built once per report, as an h-free profile of the
largest grid; each grid, and each per-level 1/r box, takes a prefix of it
and scales it by its own h.

On each grid, Rayleigh-quotient iteration (Parlett, The Symmetric
Eigenvalue Problem, 1998, ch. 4) refines each level from its closed form,
which the discrete eigenvector matches to O(h^2). The levels refined on one
grid form a run, certified at once by Sturm counts at the ends of their
disjoint windows (one count when the run starts at index 0), each the
number of non-positive pivots of one LDL^T pass (LAPACK dpttrf, restarted
past each such pivot). When a run fails, each level is checked alone; one
whose counts do not place it at its index is bisected at the index instead
(logged at DEBUG level under the `dunkl_spectra` logger). So a level's
value depends only on its index, the box and the grid, never on its start.

Absorbing the exact power matters: the naive substitution u = r^{c/2} U
with a Dirichlet origin converges to the wrong self-adjoint extension
whenever the reduced barrier strength falls into the limit-circle window
(it selects the Friedrichs extension, whose levels differ by O(1)). The
absorbed-power scheme pins the regular branch for every parameter set this
package accepts.

Each potential's RadialSolution record (see `spectra`) supplies c, p, the
potential terms, the energy shift, the automatic box, each level's start
and the one state formula of residuals and Gram matrices; the residual
checks the state against the declared well. Levels whose records share
(b, scale, sigma) share a box, so no code here reads the potential's family.
"""

from __future__ import annotations

import logging
import sys
import warnings
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import groupby

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgtsv, dpttrf

from .cartesian import _axis_record
from .core import DeformationParams, cartesian_to_polar, reflect_cartesian
from .errors import (ConvergenceError, DomainError, TailLeakWarning,
                     check_count, check_levels, check_positive)
from .polar import AngularState, theta_eigenfunction
from .specfun import build_quadrature, kummer_m
from .spectra import (PotentialSpec, RadialSolution, _level,
                      radial_solution, radial_wavefunction)

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

    r_max = None takes the top level's box, RadialSolution.r_max, from its
    n, b and scale alone (one rule in t). The post-hoc tail check warns
    when the chosen box still truncates an eigenstate. n_points is a whole
    number of cells, at least 100; the box edge is a Dirichlet boundary.
    With Richardson (a bool), levels are also solved on 2 n_points cells.
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
        if not isinstance(self.richardson, (bool, np.bool_)):
            raise DomainError(f"richardson must be a bool, got "
                              f"{self.richardson!r}")


# maxsize=1 rarely hits (the key holds q), but it keeps the last profile's
# memory alive, and without it oracle reports ran slower (ROADMAP).
@lru_cache(maxsize=1)
def _profile(q: float, powers: tuple, n: int):
    """The P1 entries of the vertices k = 0 .. n-1 with every power of h
    taken out, for the weight r^q and the potential powers `powers`.

    On the vertices r_k = k h, vertex k's hat moment of r^a is
    h^(a+1) k^a beta_a(k), and element k integrates r^q to
    h^(q+1) (k+1)^(q+1) edge_k/(q+1). Entry k depends on k alone, so every
    grid of at most n cells takes a prefix. Returns (a, o, m, loads, rho):
    diag = a/h^2 + scale sum coeff h^power loads[power], off = o/h^2, and
    the lumped masses are h (h rho)^q m, rho_k = k but 1 at the origin,
    whose hat moments are those of r_1. Each entry is formed from ratios
    such as (1 + 1/k)^q, never from k^q, so none leaves double range. The
    arrays are read-only: one profile serves every grid of a report.
    """
    k = np.arange(float(n))
    rho = np.maximum(k, 1.0)
    x = 1.0 / rho
    with np.errstate(divide="ignore"):
        atanh, log_sq, up = np.arctanh(x), np.log1p(-x * x), np.log1p(x)
        # element k: 1 - (k/(k+1))^(q+1)
        edge = -np.expm1((q + 1.0) * np.log1p(-1.0 / (k + 1.0)))

        def beta(a):
            """beta_a(k) = ((1+x)^b + (1-x)^b - 2)/(x^2 b (b-1)), x = 1/k,
            b = a + 2, and 1/((a+1) b) at the origin. The bracket is summed
            as (A - B)^2 + 2 (AB - 1), A, B = (1 +- x)^(b/2), with A - B =
            -A expm1(-b atanh x); its two terms cancel by at most a factor
            b/(b-1), however large k is."""
            b = a + 2.0
            bracket = (np.exp(a * up) * ((1.0 + x) * np.expm1(-b * atanh))
                       ** 2 + 2.0 * np.expm1(0.5 * b * log_sq))
            out = bracket / (x * x * b * (b - 1.0))
            out[0] = 1.0 / ((a + 1.0) * b)
            return out

        m = beta(q)
        loads = tuple(rho ** p * beta(q + p) / m for p in powers)
    # vertex k's two element stiffnesses over its mass: element k on its
    # right, whose r_k+1^(q+1) is (k+1) h (1 + 1/k)^q r_k^q, and element
    # k-1 on its left
    right = (k + 1.0) * np.exp(q * np.where(k > 0.0, up, 0.0)) * edge / (
        (q + 1.0) * m)
    left = np.zeros(n)
    left[1:] = k[1:] * edge[:-1] / ((q + 1.0) * m[1:])
    profile = (right + left, -np.sqrt(right[:-1] * left[1:]), m, loads, rho)
    for arr in (*profile[:3], *loads, rho):
        arr.flags.writeable = False
    return profile


def _p1_matrix(q: float, vterms, r_max: float, n: int, scale: float,
               profile):
    """The weighted form with w = r^q on the P1 vertices r_i = i h, i < n,
    h = r_max/n, as a symmetric tridiagonal matrix, scaled from `profile`
    (the _profile of q and the powers of vterms, at least n vertices).

    vterms is a list of (coeff, power) pairs, V(r) = sum coeff * r^power,
    and scale = 2m/hbar^2. Returns (diag, off, s): the eigenvalues are
    scale times the energies, s holds the square roots of the lumped
    masses, and an eigenvector x is G = x/s at the vertices. Raises
    ConvergenceError when an entry or a mass is not finite (large q on a
    large box overflows r^q); a mass that underflows to 0 near the origin
    (large q on a fine grid) only zeroes that vertex of a start.
    """
    a, o, m, loads, rho = profile
    h = r_max / n
    with np.errstate(all="ignore"):
        diag = a[:n] / h ** 2 + scale * sum(
            coeff * h ** power * load[:n]
            for (coeff, power), load in zip(vterms, loads))
        off = o[:n - 1] / h ** 2
        s = np.sqrt(h * (h * rho[:n]) ** q * m[:n])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()
            and np.all(s < np.inf)):
        raise ConvergenceError(
            f"P1 elements overflow double precision for weight exponent "
            f"q={q:g} on the box r_max={r_max:g}")
    return diag, off, s


def _bisect(diag: np.ndarray, off: np.ndarray, j: int):
    """Eigenpair j of the tridiagonal matrix by bisection at its index."""
    try:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(j, j))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return w[0], v[:, 0]


# Refinement on a grid: Rayleigh-quotient iteration stops once the
# residual |T x - sigma x| falls to _RESIDUAL * |T|, a few hundred
# roundoffs; a Sturm count then needs the window sigma -+ _WINDOW * |T| to
# hold exactly one eigenvalue, of the level's own index. That bounds the
# quotient's error by residual^2/window (Kato-Temple), far below the
# roundoff of bisection.
_RQI_STEPS = 6
_RESIDUAL = 1e-13
_WINDOW = 1e-9


def _rqi(diag: np.ndarray, off: np.ndarray, x: np.ndarray, tol: float):
    """Rayleigh-quotient iteration from x: the quotient and its unit vector
    once the residual is at most tol, or None. Reductions are BLAS dot
    products, several times faster than ufunc sums at these lengths."""
    for _ in range(_RQI_STEPS):
        x = x / np.sqrt(x @ x)
        tx = diag * x
        tx[:-1] += off * x[1:]
        tx[1:] += off * x[:-1]
        sigma = x @ tx
        r = tx - sigma * x
        if np.sqrt(r @ r) <= tol:
            return float(sigma), x
        *_, x, info = dgtsv(off, diag - sigma, off, x)
        if info:
            return None
    return None


def _sturm_count(diag: np.ndarray, off: np.ndarray, x: float, pivmin: float,
                 stop: int):
    """The number of eigenvalues at most x of the tridiagonal matrix, counted
    up to stop + 1, or None for a non-finite x.

    The count is the number of non-positive pivots of the unpivoted LDL^T
    factorization of T - x I (Parlett, The Symmetric Eigenvalue Problem,
    1998, sec. 3.3), taken in one pass: LAPACK dpttrf factors until a pivot
    q <= 0, which is counted and, when |q| < pivmin, taken as -pivmin
    (pivmin = tiny * max(1, max e^2), as in LAPACK's bisection, dlaebz);
    the next diagonal entry takes its update d - e^2/q, and dpttrf restarts
    there, in place. A count in floating point is the exact count of a
    nearby matrix (Demmel, Dhillon & Ren, ETNA 3, 1995), so one pass is
    enough. The pass stops once the count exceeds stop.
    """
    if not np.isfinite(x):
        return None
    d, e = diag - x, off.copy()
    n, k, negative = len(d), 0, 0
    while negative <= stop:
        if k == n - 1:  # dpttrf takes no matrix of size 1
            return negative + int(d[k] <= 0.0)
        *_, info = dpttrf(d[k:], e[k:], overwrite_d=1, overwrite_e=1)
        if not info:
            return negative
        k += info  # pivot k - 1 failed; e[k - 1] is still the matrix's
        negative += 1
        if k == n:
            return negative
        q = d[k - 1]
        d[k] -= e[k - 1] ** 2 / (q if abs(q) >= pivmin else -pivmin)
    return negative


def _refine(diag: np.ndarray, off: np.ndarray, levels: range, starts,
            r_max: float):
    """Eigenpairs of the indices `levels`: the values, per level "rqi" or
    "bisection" for how each was found, and the vectors as columns.

    Each level's iteration starts from its vector in `starts`. One rule
    certifies a run of levels lo .. hi-1 (Parlett, The Symmetric Eigenvalue
    Problem, 1998, ch. 3 and 10): every quotient sigma_j converged, the
    windows sigma_j -+ w are pairwise disjoint, the Sturm count at
    sigma_lo - w is lo (skipped at lo = 0) and the one at sigma_hi-1 + w is
    hi. A converged quotient lies within its residual, far inside w, of an
    eigenvalue, so each window holds at least one; the counts leave hi - lo
    eigenvalues to the hi - lo windows, so window j holds lambda_j alone
    (at lo = 0 the top count already leaves none below the first window).
    Each count is one LDL^T pass (`_sturm_count`) that stops once it
    exceeds the value the rule expects, so it costs at most hi restarts.

    The rule is applied to the whole run first. When that fails, it is
    applied to each level alone, which is the per-level check of two counts
    (one at index 0), and each level it rejects is bisected at its index.
    A run passes only when each of its levels would pass alone, so every
    "rqi" or "bisection" and every value is the per-level check's: this is
    one acceptance rule, not a second path. So each value depends on its
    index and the matrix alone, never on which other levels are solved with
    it.
    """
    off_max = max(off.max(), -off.min())
    tnorm = max(diag.max(), -diag.min()) + 2.0 * off_max
    width = _WINDOW * tnorm
    pivmin = sys.float_info.min * max(1.0, float(off_max * off_max))

    # eigenvalues <= x from one LDL^T pass, read up to want + 1
    def count(x, want=len(diag)):
        return _sturm_count(diag, off, x, pivmin, want)

    def certified(lo, pairs):
        if any(pair is None for pair in pairs):
            return False
        sigma = np.array([pair[0] for pair in pairs])
        hi = lo + len(pairs)
        return bool(np.all(np.diff(sigma) > 2.0 * width)
                    and (lo == 0 or count(sigma[0] - width, lo) == lo)
                    and count(sigma[-1] + width, hi) == hi)

    pairs = [_rqi(diag, off, start, _RESIDUAL * tnorm) for start in starts]
    whole = certified(levels.start, pairs)
    how = []
    for j, pair in zip(levels, pairs):
        how.append("rqi" if whole or certified(j, [pair]) else "bisection")
        if how[-1] == "bisection":
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("level %d: refinement on the %d-point grid "
                           "rejected (Sturm index %s), bisected at its index "
                           "on the box r_max=%g", j, len(diag),
                           None if pair is None else count(pair[0] - width),
                           r_max)
            pairs[j - levels.start] = _bisect(diag, off, j)
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


_LN2 = np.log(2.0)
_PLAIN_T = 2000.0 * _LN2  # below it, e^{-t/2} >= 2^-1000 is a normal double


def _shapes(nodes: np.ndarray, shapes) -> np.ndarray:
    """Row i: e^{-t/2} L_n^(b-1)(t), t = (2/sigma) scale r^sigma, at the
    nodes for the i-th (n, b, scale, sigma) of `shapes` (level n up to its
    norm, DLMF 13.6.19), ascending in n (DLMF 18.9.1) per (b, scale, sigma).

    Where t passes _PLAIN_T, the recurrence runs on mantissas times 2^exp2
    per node, renormalized every step, so e^{-t/2}, which underflows past
    t ~ 1490, is never lost before L_n grows."""
    out, family = np.empty((len(shapes), len(nodes))), None
    for i, (n, *rest) in enumerate(shapes):
        if rest != family:
            family, (b, scale, sigma), degree = rest, rest, 0
            t = 2.0 / sigma * scale * nodes ** sigma
            carry = t[-1] > _PLAIN_T
            exp2 = np.floor(-0.5 * t / _LN2) if carry else 0.0
            g0, g = 0.0, np.exp(-0.5 * t - exp2 * _LN2 if carry else -0.5 * t)
        for j in range(degree, n):
            g0, g = g, ((2 * j + b - t) * g - (j + b - 1.0) * g0) / (j + 1.0)
            if carry:
                k = np.frexp(np.maximum(np.abs(g), np.abs(g0)))[1]
                g0, g, exp2 = np.ldexp(g0, -k), np.ldexp(g, -k), exp2 + k
        out[i], degree = np.ldexp(g, exp2.astype(int)) if carry else g, n
    return out


def _runs(recs: list[RadialSolution], cfg: DiscretizationConfig):
    """The levels that share a box, as (records, r_max): all on cfg.r_max
    when it is set, else each run of consecutive records with one
    (b, scale, sigma), the key `_shapes` groups by, on its top record's box;
    so the Gaussian family and an axis are one run, and each 1/r level too."""
    if cfg.r_max is not None:
        return [(recs, cfg.r_max)]
    runs = [list(run) for _, run in groupby(
        recs, key=lambda rec: (rec.b, rec.scale, rec.sigma))]
    return [(run, run[-1].r_max) for run in runs]


def _solve(recs: list[RadialSolution], cfg: DiscretizationConfig,
           hbar: float, mass: float, label: str):
    """Eigenvalues of the consecutive levels `recs`, and per level how its
    value on the grid and on the doubled grid was found (None without
    Richardson). The levels share the top record's weight r^q, q = c + 2p,
    potential terms, shift and profile; each of the `_runs` is solved on its
    box, where `_refine` starts each level from s times its shape. The
    shapes are evaluated once per run, on the finest grid: the n-cell
    vertices i (r_max/n) are the 2n-cell vertices 2i (r_max/2n) bit for bit."""
    top, n, scale = recs[-1], cfg.n_points, 2.0 * mass / hbar ** 2
    if top.n >= n:
        raise DomainError(f"{label}: level {top.n} needs at least "
                          f"{top.n + 1} grid vertices, the grid has {n}")
    q, sizes = top.c + 2.0 * top.p, [n, 2 * n] if cfg.richardson else [n]
    profile = _profile(q, tuple(p for _, p in top.vterms), sizes[-1])
    energies, how = [], ([], [])
    for run, r_max in _runs(recs, cfg):
        shapes = _shapes(np.arange(sizes[-1]) * (r_max / sizes[-1]),
                         [(rec.n, rec.b, rec.scale, rec.sigma) for rec in run])
        for m, found in zip(sizes, how):
            diag, off, s = _p1_matrix(q, top.vterms, r_max, m, scale,
                                      profile)
            values, level_how, vecs = _refine(
                diag, off, range(run[0].n, run[-1].n + 1),
                s * shapes[:, ::sizes[-1] // m], r_max)
            found.extend(level_how)
            if m == n:
                _check_tail(vecs, r_max, label)
                coarse = values / scale
        energies.append(top.shift + ((4.0 * values / scale - coarse) / 3.0
                                     if cfg.richardson else coarse))
    return np.concatenate(energies), how[0], how[1] if cfg.richardson else None


def radial_eigenvalues(potential: PotentialSpec, params: DeformationParams,
                       state: AngularState, cfg: DiscretizationConfig, k: int,
                       hbar: float = 1.0, mass: float = 1.0, *,
                       coarse_solve: list | None = None,
                       fine_solve: list | None = None) -> np.ndarray:
    """Lowest k radial eigenvalues from the P1 discretization.

    The closed-form records supply the weight, the potential terms, each
    level's start and, with r_max = None, the boxes: Gaussian-family levels
    share their top level's box, and each 1/r level gets its own (from its
    n, b and scale); no energy enters. Each level is found by its own index
    (module docstring), so on a given box entry j is the same for every
    k > j. Lists passed as coarse_solve and fine_solve receive, per level,
    "rqi" or "bisection" for how its value on the grid and on the doubled
    grid was found (fine_solve nothing without Richardson). `oracle_report`
    reads them there, so that each of its solves is one call of this public
    function, whose spans perfbench's per-layer verify figures are taken
    from.
    """
    k = check_levels(k)
    recs = [_level(potential, n, state, params, hbar, mass) for n in range(k)]
    vals, coarse, fine = _solve(recs, cfg, hbar, mass, potential.tag)
    for out, how in ((coarse_solve, coarse), (fine_solve, fine)):
        if out is not None and how is not None:
            out.extend(how)
    return vals


def cartesian_1d_eigenvalues(mu: float, s: int, omega: float,
                             cfg: DiscretizationConfig, k: int,
                             hbar: float = 1.0, mass: float = 1.0) -> np.ndarray:
    """Lowest k single-axis eigenvalues of the parity-reduced problems: each
    sector is its axis record's radial problem on the half line (the odd one
    divides out one power of x), solved as in `radial_eigenvalues`."""
    recs = [_axis_record(j, mu, s, omega, hbar, mass)
            for j in range(check_levels(k))]
    return _solve(recs, cfg, hbar, mass, f"axis sector s={s:+d}")[0]


_STEP = 5e-4  # residual_check's stencil step, relative to |x|


def residual_check(potential: PotentialSpec, params: DeformationParams,
                   state: AngularState, n: int, points,
                   hbar: float = 1.0, mass: float = 1.0) -> float:
    """Apply the d-dimensional Dunkl-Schroedinger operator to the assembled
    closed-form state Psi(x) = U(r) Theta_1(t_1) ... Theta_{d-1}(t_{d-1}).

    points is an (m, d) array of Cartesian points. The Dunkl Laplacian
    (Dunkl, Trans. AMS 311, 1989) is

        sum_j [d_j^2 + (2 mu_j/x_j) d_j - (mu_j/x_j^2)(1 - sigma_j)],

    sigma_j the reflection x_j -> -x_j, with fourth-order five-point
    stencils of step 5e-4 |x|; each coordinate must lie more than two steps
    from zero. The well is the potential's declared one, shift + sum of
    coeff r^power over all its terms (`well`). Returns the maximum
    residual of the equation scaled by the largest sum of its term
    magnitudes, so an exact solution scores near machine precision.
    """
    sol = radial_solution(potential, n, state, params, hbar, mass)
    d = params.d
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != d or not len(x):
        raise DomainError(f"points must be an (m, {d}) array, m >= 1, got "
                          f"shape {x.shape}")
    r = np.sqrt(np.sum(x * x, axis=1))
    h = _STEP * r
    if not np.all(np.abs(x) > 2.0 * h[:, None]):
        raise DomainError("points must stay more than two steps clear of "
                          "every coordinate hyperplane")

    # every value in one flat batch: x, the stencil points along each axis,
    # then the mirror image in each axis
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None] * h[:, None]
    shifted = x + offsets * np.eye(d)[:, None, None, :]  # (axis, offset, m, d)
    mirrored = [reflect_cartesian(x, j + 1) for j in range(d)]
    radius, theta, _ = cartesian_to_polar(np.concatenate(
        ([x], shifted.reshape(-1, *x.shape), mirrored)).reshape(-1, d))
    f = radial_wavefunction(sol, radius)
    for j in range(1, d):
        f = f * theta_eigenfunction(j, state, params, theta[:, j - 1])
    f = f.reshape(5 * d + 1, len(x))
    f0, f, mirror = f[0], f[1:4 * d + 1].reshape(d, 4, -1), f[4 * d + 1:]
    d2 = (-f[:, 0] + 16.0 * (f[:, 1] + f[:, 2]) - 30.0 * f0 - f[:, 3]) / (
        12.0 * h ** 2)
    d1 = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * h)
    mu = np.array(params.mu)[:, None]
    axis_terms = (d2, 2.0 * mu / x.T * d1, -mu / x.T ** 2 * (f0 - mirror))
    shift, terms = potential.well(mass)
    v = shift + sum(coeff * r ** power for coeff, power in terms)
    well = 2.0 * mass / hbar ** 2 * (sol.energy - v) * f0
    residual = np.abs(sum(t.sum(axis=0) for t in axis_terms) + well)
    magnitude = sum(np.abs(t).sum(axis=0) for t in axis_terms) + np.abs(well)
    return float(np.max(residual) / np.max(magnitude))


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
    nodes, weights = build_quadrature(alpha, "exp_r", n_max + 6)

    @cache
    def kummer(n: int, x: float) -> np.ndarray:
        # M(-n, b, 2 lam r^sigma) at the nodes, x = 2 lam/rho: x = 1 for
        # every Gaussian pair, so each state is evaluated once there
        return kummer_m(-n, sols[n].b, x * nodes)

    gram = np.empty((n_max, n_max))
    for i, si in enumerate(sols):
        for j, sj in enumerate(sols[:i + 1]):
            rate = si.scale + sj.scale  # sigma * rho
            vals = (kummer(i, 2.0 * si.scale / rate)
                    * kummer(j, 2.0 * sj.scale / rate))
            gram[i, j] = gram[j, i] = (
                si.norm * sj.norm * (rate / sigma) ** -(alpha + 1.0) / sigma
                * float(np.sum(weights * vals)))
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
    """Compare k closed-form levels against the discretization; the report
    passes when every relative error is at most tolerance, which must be
    positive and finite.

    The levels are solved by one `radial_eigenvalues` call, on its boxes:
    with an automatic box each 1/r level is solved alone on its own (their
    spatial extents differ by orders of magnitude), and the Gaussian-family
    levels share one. grid["r_max"] is the box used: one number, or the
    list of per-level boxes. grid["coarse_solve"] and grid["fine_solve"] say
    per level whether its value on the n_points grid and on the doubled
    Richardson grid came from Rayleigh-quotient iteration ("rqi") or from
    bisection at the level's index ("bisection"); fine_solve is None
    without Richardson extrapolation.
    """
    k = check_levels(k)
    check_positive(tolerance=tolerance)
    recs = [_level(potential, n, state, params, hbar, mass) for n in range(k)]
    coarse, fine = [], []
    numeric = radial_eigenvalues(potential, params, state, cfg, k, hbar, mass,
                                 coarse_solve=coarse, fine_solve=fine)
    boxes = [r_max for _, r_max in _runs(recs, cfg)]
    return OracleReport(
        potential=potential.tag, d=params.d, mu=params.mu,
        two_ell=state.two_ell, parity=state.parity.s,
        levels=tuple(range(k)), analytic=tuple(float(r.energy) for r in recs),
        numeric=tuple(float(v) for v in numeric), tolerance=tolerance,
        grid={"r_max": boxes[0] if len(boxes) == 1 else boxes,
              "n_points": cfg.n_points,
              "richardson": cfg.richardson, "coarse_solve": coarse,
              "fine_solve": fine if cfg.richardson else None})
