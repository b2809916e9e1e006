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
and scales it by its own h. The profile also holds the start weights, the
square roots of the masses relative to the box edge: on every grid and
every box they differ from the masses' own square roots by one constant,
which changes no eigenvector's direction. No mass is formed: the oracle
refuses only a q from about 1022, whose profile leaves double range, and
a box on which an entry does, never a box because r^q overflows on it.

On each grid, inverse iteration (Parlett, The Symmetric Eigenvalue
Problem, 1998, ch. 4) refines each level from its closed form, which the
discrete eigenvector matches to O(h^2), with a shift tau just above the
start's Rayleigh quotient. One LDL^T factorization of T - tau I (LAPACK
dpttrf, restarted past each non-positive pivot) serves twice: LAPACK dpttrs
solves on it, and its number of non-positive pivots is the Sturm count of
the eigenvalues at most tau. One pass over the levels refined on a grid
certifies each by its own count and the count below its window. The
certified level below supplies that one when its window lies under this
one's; otherwise, as for a run's first level above index 0 or a level
above a rejected one, a count-only pass does. A level whose counts do not
place it at its index is bisected at the index instead (logged at DEBUG
level under the `dunkl_spectra` logger). So a level's value depends only
on its index, the box and the grid, never on its start.

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
import math
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache
from itertools import groupby

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs

from .cartesian import _axis_record
from .core import DeformationParams, cartesian_to_polar, reflect_cartesian
from .errors import (ConvergenceError, DomainError, TailLeakWarning,
                     check_count, check_levels, check_positive)
from .polar import AngularState, theta_eigenfunction
from .specfun import _exp, _lgamma, build_quadrature, laguerre
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
    h^(q+1) ((k+1)^(q+1) - k^(q+1))/(q+1). Entry k depends on k alone, so
    every grid of at most n cells takes a prefix. Returns (a, o, loads, w):
    diag = a/h^2 + scale sum coeff h^power loads[power], off = o/h^2, and
    the start weights w = sqrt(m) (rho/n)^(q/2), rho_k = k but 1 at the
    origin, whose hat moments are those of r_1. The lumped masses are
    h (h rho)^q m, so w is their square roots over h^((q+1)/2) n^(q/2),
    one constant per grid and box, and no mass is formed. Each entry is
    formed from ratios such as (1 + 1/k)^q, never from k^q. Raises
    ConvergenceError when a mass ratio m leaves double range, which
    happens first at k = 1, where (1 + 1/k)^q = 2^q, from q ~ 1022; its
    entries there would decouple the vertex. The arrays are read-only: one
    profile serves every grid of a report.
    """
    k = np.arange(float(n))
    rho = np.maximum(k, 1.0)
    x = 1.0 / rho
    with np.errstate(all="ignore"):
        atanh, log_sq, up = np.arctanh(x), np.log1p(-x * x), np.log1p(x)

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
        if not np.all(np.isfinite(m)):
            raise ConvergenceError(f"P1 elements overflow double precision "
                                   f"for weight exponent q={q:g}")
        loads = tuple(rho ** p * beta(q + p) / m for p in powers)
        # vertex k's two element stiffnesses over its mass, times h^2:
        # element k on its right, k ((1 + 1/k)^(q+1) - 1)/((q+1) m), which
        # is 1/((q+1) m) at the origin, whose rho is 1, and element k-1 on
        # its left, k (1 - (1 - 1/k)^(q+1))/((q+1) m), 0 at the origin
        inv = 1.0 / ((q + 1.0) * m)
        right = k * np.expm1((q + 1.0) * up) * inv
        right[0] = inv[0]
        left = -k * np.expm1((q + 1.0) * np.log1p(-x)) * inv
        w = np.sqrt(m) * (rho / n) ** (0.5 * q)
        profile = (right + left, -np.sqrt(right[:-1] * left[1:]), loads, w)
    for arr in (*profile[:2], *loads, w):
        arr.flags.writeable = False
    return profile


def _p1_matrix(q: float, vterms, r_max: float, n: int, scale: float,
               profile):
    """The weighted form with w = r^q on the P1 vertices r_i = i h, i < n,
    h = r_max/n, as a symmetric tridiagonal matrix, scaled from `profile`
    (the _profile of q and the powers of vterms, at least n vertices).

    vterms is a list of (coeff, power) pairs, V(r) = sum coeff * r^power,
    and scale = 2m/hbar^2. Returns (diag, off): the eigenvalues are scale
    times the energies, and an eigenvector x is G = x/w at the vertices, up
    to one constant, w the profile's start weights. Raises
    ConvergenceError when an entry is not finite, a power of h included
    (a box far past double range); the profile has already refused a q
    whose mass ratios leave it.
    """
    a, o, loads, _ = profile
    h = r_max / n
    try:
        with np.errstate(all="ignore"):
            diag = a[:n] / h ** 2
            for (coeff, power), load in zip(vterms, loads):
                diag += scale * coeff * h ** power * load[:n]
            off = o[:n - 1] / h ** 2
        # min and max carry a NaN, and off <= 0 unless NaN
        finite = (-math.inf < diag.min() and diag.max() < math.inf
                  and -math.inf < off.min())
    except OverflowError:  # a power of the float h
        finite = False
    if not finite:
        raise ConvergenceError(
            f"P1 elements overflow double precision for weight exponent "
            f"q={q:g} on the box r_max={r_max:g}")
    return diag, off


def _bisect(diag: np.ndarray, off: np.ndarray, j: int):
    """Eigenpair j of the tridiagonal matrix by bisection at its index."""
    try:
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=(j, j))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed: {exc}") from exc
    return w[0], v[:, 0]


# Refinement on a grid: inverse iteration stops once the residual
# |T x - sigma x| falls to _RESIDUAL * |T|, a few hundred roundoffs, within
# _STEPS solves; the certificate then needs the window (sigma - w, tau],
# w = _WINDOW * |T| and tau the shift of the level's factorization, to hold
# exactly one eigenvalue, of the level's own index. The quotient's error is
# then at most residual^2 over its distance to the nearest other
# eigenvalue, which lies outside the window (Kato-Temple), far below the
# roundoff of bisection. A quotient that falls _DRIFT windows below its
# shift gets a new one.
_STEPS = 10
_RESIDUAL = 1e-13
_WINDOW = 1e-9
_DRIFT = 1e3


def _ldl(diag: np.ndarray, off: np.ndarray, x: float, pivmin: float):
    """The factors of T - x I = L D L^T and the number of eigenvalues of T at
    most x, as (d, l, count): D = diag(d), L unit lower bidiagonal with the
    multipliers l, the form LAPACK dpttrs solves with. None for a
    non-finite x.

    The count is the number of non-positive pivots of the unpivoted
    factorization (Parlett, The Symmetric Eigenvalue Problem, 1998,
    sec. 3.3), taken in one pass: LAPACK dpttrf factors until a pivot
    q <= 0, which is counted and, when |q| < pivmin, taken as -pivmin
    (pivmin = tiny * max(1, max e^2), as in LAPACK's bisection, dlaebz);
    its multiplier e/q and the next pivot's update d - (e/q) e follow, and
    dpttrf restarts there, in place. A count in floating point is the exact
    count of a nearby matrix (Demmel, Dhillon & Ren, ETNA 3, 1995), so one
    pass is enough.
    """
    if not np.isfinite(x):
        return None
    d, l = diag - x, off.copy()
    n, k, count = len(d), 0, 0
    while True:
        if k == n - 1:  # dpttrf takes no matrix of size 1
            info = int(d[k] <= 0.0)
        else:  # in place: overwrite_d, overwrite_e
            info = dpttrf(d[k:], l[k:], 1, 1)[2]
        if not info:
            return d, l, count
        k += info  # pivot k - 1 failed; l[k - 1] is still the matrix's
        count += 1
        q = d.item(k - 1)  # Python floats: a restart costs about a microsecond
        if abs(q) < pivmin:
            q = d[k - 1] = -pivmin
        if k == n:
            return d, l, count
        e = l.item(k - 1)
        l[k - 1] = multiplier = e / q
        d[k] = d.item(k) - multiplier * e


def _inverse_iteration(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
                       tol: float, width: float, pivmin: float):
    """Inverse iteration from x with the shift tau = sigma + width, sigma
    the Rayleigh quotient of x: (sigma, x, tau, count) once the residual of
    the unit vector x is at most tol, or None.

    Each step solves on the `_ldl` factors of T - tau I (LAPACK dpttrs),
    whose count is the number of eigenvalues at most tau. The factors are
    kept while the quotient stays in [tau - _DRIFT width, tau - tol] and
    taken again at the new quotient plus width when it leaves, so
    tau - sigma >= tol on return: a start close to its level is solved on
    its first factorization, and one far from it gets a nearer shift, where
    the first would converge slowly. Reductions are BLAS dot products,
    several times faster than ufunc sums at these lengths.

    The start is first divided by its largest entry, so its square sum
    cannot underflow however small its scale. Its own residual is not
    taken: a closed-form start lies several times the tolerance from its
    level, so every level takes at least one solve. T x and the residual
    share two buffers over the steps, and dpttrs solves in place."""
    peak = max(x.max(), -x.min())
    if not 0.0 < peak < math.inf:
        return None
    x = x / peak  # a subnormal peak has no finite reciprocal
    tx, r = np.empty_like(x), np.empty_like(x)
    tau = -math.inf
    for step in range(_STEPS + 1):
        norm = math.sqrt(x @ x)
        if not 0.0 < norm < math.inf:
            return None
        x *= 1.0 / norm  # a norm above 0 is at least 1e-162
        np.multiply(diag, x, out=tx)
        tx[:-1] += np.multiply(off, x[1:], out=r[:-1])
        tx[1:] += np.multiply(off, x[:-1], out=r[1:])
        sigma = float(x @ tx)
        if not tau - _DRIFT * width <= sigma <= tau - tol:
            factors = _ldl(diag, off, sigma + width, pivmin)
            if factors is None:
                return None
            (d, l, count), tau = factors, sigma + width
        if step:
            np.subtract(tx, np.multiply(x, sigma, out=r), out=r)
            if math.sqrt(r @ r) <= tol:
                return sigma, x, tau, count
        if step == _STEPS:
            return None
        x, info = dpttrs(d, l, x, overwrite_b=1)
        if info:
            return None


def _refine(diag: np.ndarray, off: np.ndarray, levels: range, starts,
            r_max: float):
    """Eigenpairs of the indices `levels`: the values, per level "rqi" or
    "bisection" for how each was found, and the vectors as columns.

    Each level's inverse iteration starts from its vector in `starts` and
    its Rayleigh quotient. One pass over the levels certifies each in turn
    (Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 3 and 10): level
    j is kept when it converged to a quotient sigma_j whose factorization
    at tau_j >= sigma_j + tol counts j + 1 eigenvalues at most tau_j, and
    exactly j lie at most sigma_j - w. The certified level j - 1 shows the
    latter when its tau_j-1, where it counted j, lies below sigma_j - w;
    otherwise (the first level above index 0, a level above a rejected
    one, or overlapping windows) one count-only pass at sigma_j - w must
    give j. A converged quotient lies within its residual tol of an
    eigenvalue, so the window (sigma_j - w, tau_j] then holds lambda_j
    alone. Each count is the number of non-positive pivots of one LDL^T
    pass (`_ldl`), so the solve's own factorization is its level's count.
    A level that fails is bisected at its index. A count the level below
    supplies is the one an explicit pass would give, so each level's
    outcome is that of checking it alone, from its own start: each value
    depends on its index and the matrix alone, never on which other levels
    are solved with it.
    """
    # Python floats: a square past the doubles is inf, with no warning
    off_max = float(max(off.max(), -off.min()))
    tnorm = float(max(diag.max(), -diag.min())) + 2.0 * off_max
    # far from 1, T is scaled by an exact power of two, so that no solve and
    # no square leaves double range; the values are scaled back
    exp2 = 0 if 2.0 ** -500 <= tnorm <= 2.0 ** 500 else -math.frexp(tnorm)[1]
    if exp2:
        diag, off = np.ldexp(diag, exp2), np.ldexp(off, exp2)
        off_max, tnorm = math.ldexp(off_max, exp2), math.ldexp(tnorm, exp2)
    width, tol = _WINDOW * tnorm, _RESIDUAL * tnorm
    pivmin = sys.float_info.min * max(1.0, off_max * off_max)

    # eigenvalues <= x from a count-only LDL^T pass
    def count(x):
        factors = _ldl(diag, off, x, pivmin)
        return None if factors is None else factors[2]

    # tau of the certified level below: none below level 0, and NaN, which
    # no comparison passes, when the level below was not certified
    top = -math.inf if levels.start == 0 else math.nan
    how, pairs = [], []
    for j, start in zip(levels, starts):
        f = _inverse_iteration(diag, off, start, tol, width, pivmin)
        # written as differences, so a non-finite pair fails
        if f is not None and f[3] == j + 1 and f[2] - f[0] >= tol and (
                f[0] - width > top or count(f[0] - width) == j):
            how.append("rqi")
            pairs.append(f[:2])
            top = f[2]
            continue
        how.append("bisection")
        top = math.nan
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("level %d: refinement on the %d-point grid "
                       "rejected (Sturm index %s), bisected at its index "
                       "on the box r_max=%g", j, len(diag),
                       None if f is None else count(f[0] - width), r_max)
        pairs.append(_bisect(diag, off, j))
    values, vecs = zip(*pairs)
    # stacked as rows, one contiguous copy each, and read as columns
    return np.ldexp(np.array(values), -exp2), how, np.array(vecs).T


def _check_tail(vecs: np.ndarray, r_max: float, label: str) -> None:
    """Warn of a truncated state, naming the first caller outside verify.

    The columns are unit vectors, so each has an entry of at least
    1/sqrt(n): when no last entry exceeds 1e-6/sqrt(n), none leaks, and the
    column maxima are not taken."""
    last = np.abs(vecs[-1, :])
    if np.all(last <= 1e-6 / math.sqrt(len(vecs))):
        return
    leak = np.max(last / np.max(np.abs(vecs), axis=0))
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


def _scale(hbar: float, mass: float) -> float:
    """2m/hbar^2, the factor from energies to eigenvalues of the weighted
    form; DomainError when it leaves double range. Where hbar^2 alone
    leaves it, the factor is taken as 2 (m/hbar)/hbar."""
    hbar, mass = np.float64(hbar), np.float64(mass)
    with np.errstate(all="ignore"):  # numpy scalars give inf or 0
        scale = 2.0 * mass / hbar ** 2
        if not 0.0 < scale < math.inf:
            scale = 2.0 * (mass / hbar) / hbar
    if not 0.0 < scale < math.inf:
        raise DomainError(f"2 mass/hbar^2 leaves double range for "
                          f"hbar={hbar:g}, mass={mass:g}")
    return float(scale)


def _solve(recs: list[RadialSolution], cfg: DiscretizationConfig,
           hbar: float, mass: float, label: str):
    """Eigenvalues of the consecutive levels `recs`, and per level how its
    value on the grid and on the doubled grid was found (None without
    Richardson). The levels share the top record's weight r^q, q = c + 2p,
    potential terms, shift and profile; each of the `_runs` is solved on its
    box, where `_refine` starts each level from the profile's start weights
    times its shape. On the n-cell grid the weights are taken times
    2^(q/2), so that on each grid they are relative to its own box edge: a
    start relative to twice its edge underflowed entirely at q ~ 900. The
    shapes are evaluated once per run, on the finest grid: the n-cell
    vertices i (r_max/n) are the 2n-cell vertices 2i (r_max/2n) bit for
    bit. They come after the matrices, which refuse a box past double
    range."""
    top, n, scale = recs[-1], cfg.n_points, _scale(hbar, mass)
    if top.n >= n:
        raise DomainError(f"{label}: level {top.n} needs at least "
                          f"{top.n + 1} grid vertices, the grid has {n}")
    q, sizes = top.c + 2.0 * top.p, [n, 2 * n] if cfg.richardson else [n]
    profile = _profile(q, tuple(p for _, p in top.vterms), sizes[-1])
    weights = profile[-1]
    energies, how = [], ([], [])
    for run, r_max in _runs(recs, cfg):
        matrices = [_p1_matrix(q, top.vterms, r_max, m, scale, profile)
                    for m in sizes]
        shapes = _shapes(np.arange(sizes[-1]) * (r_max / sizes[-1]),
                         [(rec.n, rec.b, rec.scale, rec.sigma) for rec in run])
        for m, (diag, off), found in zip(sizes, matrices, how):
            stride = sizes[-1] // m
            values, level_how, vecs = _refine(
                diag, off, range(run[0].n, run[-1].n + 1),
                weights[:m] * stride ** (0.5 * q) * shapes[:, ::stride],
                r_max)
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
    "rqi" (inverse iteration from the closed form, certified by the counts
    of its own factorization) or "bisection" (at the level's index) for
    how its value on the grid and on the doubled grid was found
    (fine_solve nothing without Richardson). `oracle_report`
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
    with np.errstate(over="ignore"):
        r = np.sqrt(np.sum(x * x, axis=1))
    if not np.all(r < math.inf):
        raise DomainError("points must lie within double range of the "
                          "origin")
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
    mu = np.array(params.mu)[:, None]
    shift, terms = potential.well(mass)
    scale = _scale(hbar, mass)
    with np.errstate(all="ignore"):  # the largest magnitude is checked
        d2 = (-f[:, 0] + 16.0 * (f[:, 1] + f[:, 2]) - 30.0 * f0
              - f[:, 3]) / (12.0 * h ** 2)
        d1 = (f[:, 0] - 8.0 * f[:, 1] + 8.0 * f[:, 2] - f[:, 3]) / (12.0 * h)
        axis_terms = (d2, 2.0 * mu / x.T * d1,
                      -mu / x.T ** 2 * (f0 - mirror))
        v = shift + sum(coeff * r ** power for coeff, power in terms)
        well = scale * (sol.energy - v) * f0
        residual = np.abs(sum(t.sum(axis=0) for t in axis_terms) + well)
        magnitude = (sum(np.abs(t).sum(axis=0) for t in axis_terms)
                     + np.abs(well))
    largest = np.max(magnitude)
    if not 0.0 < largest < math.inf:
        raise DomainError(f"{potential.tag} level {n}: the terms of the "
                          f"equation are 0 or leave double range at these "
                          f"points")
    return float(np.max(residual) / largest)


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
    rule integrates every pair exactly. M is evaluated as
    n!/(b)_n L_n^{(b-1)} (DLMF 13.6.19), by the Laguerre recurrence, with
    the factor kept in each state's log constant. Past double range, from
    n_max ~ 180 at small alpha and earlier at large alpha, the rule raises
    ConvergenceError, or an entry's sum DomainError.
    """
    n_max = check_levels(n_max, "n_max")
    sols = [radial_solution(potential, n, state, params, hbar, mass)
            for n in range(n_max)]
    sigma, alpha = sols[0].sigma, sols[0].alpha
    nodes, weights = build_quadrature(alpha, "exp_r", n_max + 6)
    log_const = [math.log(s.norm) + _lgamma(n + 1.0) + _lgamma(s.b)
                 - _lgamma(n + s.b) for n, s in enumerate(sols)]

    @cache
    def poly(n: int, x: float) -> np.ndarray:
        # L_n^{(b-1)}(2 lam r^sigma) at the nodes, x = 2 lam/rho: x = 1 for
        # every Gaussian pair, so each state is evaluated once there
        return laguerre(n, sols[n].b - 1.0, x * nodes)

    gram = np.empty((n_max, n_max))
    for i, si in enumerate(sols):
        for j, sj in enumerate(sols[:i + 1]):
            rate = si.scale + sj.scale  # sigma * rho
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(np.sum(weights * poly(i, 2.0 * si.scale / rate)
                                     * poly(j, 2.0 * sj.scale / rate)))
            gram[i, j] = gram[j, i] = total * _exp(
                log_const[i] + log_const[j] - math.log(sigma)
                - (alpha + 1.0) * math.log(rate / sigma), "Gram prefactor")
            if not math.isfinite(gram[i, j]):
                raise DomainError(f"Gram entry ({i}, {j}) leaves double "
                                  f"range")
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
        """Every field, abs_err, rel_err and passed, with tuples as lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(grid=dict(self.grid), abs_err=self.abs_err,
                   rel_err=self.rel_err, passed=self.passed)
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in doc.items()}


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
    Richardson grid came from certified inverse iteration ("rqi") or from
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
