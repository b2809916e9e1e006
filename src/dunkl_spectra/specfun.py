"""Numerical kernels: classical orthogonal polynomials and their norms, the
terminating confluent hypergeometric function M(-n, b, x), and Gauss rules
for the Jacobi weight and the half-line weights r^gamma e^{-r} and
r^gamma e^{-r^2}, all three from one Golub-Welsch step on recurrence
coefficients and zeroth moment in double precision.

Polynomials are evaluated by ascending three-term recurrences, which stay
stable for the index ranges used here (factorial-ratio closed forms overflow
near n ~ 20); for the same reason their norms are formed from log-gamma
values. All evaluation routines accept numpy arrays in the argument position.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import mpmath
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DomainError, check_count

__all__ = [
    "laguerre",
    "laguerre_norm_sq",
    "jacobi",
    "jacobi_norm_sq",
    "kummer_m",
    "gauss_jacobi",
    "build_quadrature",
]

def _degree(n, *params) -> int:
    """The checked degree; weight parameters must be finite and exceed -1
    (integrable)."""
    if not all(-1.0 < p < math.inf for p in params):
        raise DomainError(f"weight parameters must be finite and exceed -1, "
                          f"got {params}")
    return check_count(n, "degree")


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x).

    Ascending recurrence in the degree. Requires alpha > -1 so the weight
    x^alpha e^{-x} is integrable at the origin.
    """
    n = _degree(n, alpha)
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if n == 0:
        return p0 if p0.ndim else float(p0)
    p1 = 1.0 + alpha - x
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + 1.0 + alpha - x) * p1 - (k + alpha) * p0) / (k + 1.0)
    return p1 if p1.ndim else float(p1)


def laguerre_norm_sq(n, alpha) -> float:
    """Squared norm Gamma(n + alpha + 1)/n! of L_n^alpha under x^alpha e^{-x}
    on (0, inf) (DLMF 18.3); alpha > -1.
    """
    n = _degree(n, alpha)
    return math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))


def jacobi(n, alpha, beta, x):
    """Jacobi polynomial P_n^{(alpha, beta)}(x) by ascending recurrence.

    alpha, beta > -1. The recurrence coefficients are the standard ones; the
    k = 1 step is written out explicitly because the general formula has a
    removable 0/0 at alpha + beta = -1.
    """
    n = _degree(n, alpha, beta)
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if n == 0:
        return p0 if p0.ndim else float(p0)
    p1 = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * x
    for k in range(2, n + 1):
        c1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        c2 = (2.0 * k + alpha + beta - 1.0) * (alpha * alpha - beta * beta)
        c3 = ((2.0 * k + alpha + beta - 1.0) * (2.0 * k + alpha + beta)
              * (2.0 * k + alpha + beta - 2.0))
        c4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p0, p1 = p1, ((c2 + c3 * x) * p1 - c4 * p0) / c1
    return p1 if p1.ndim else float(p1)


def jacobi_norm_sq(n, alpha, beta) -> float:
    """Squared norm h_n of P_n^{(alpha, beta)} under (1-x)^alpha (1+x)^beta
    on [-1, 1] (DLMF 18.3); alpha, beta > -1. At n = 0 the denominator
    (2n+alpha+beta+1) Gamma(n+alpha+beta+1) is read as Gamma(alpha+beta+2),
    which stays finite at alpha + beta = -1.
    """
    n = _degree(n, alpha, beta)
    ab = alpha + beta + 1.0
    if n == 0:
        log_den = math.lgamma(ab + 1.0)
    else:
        log_den = (math.log(2.0 * n + ab) + math.lgamma(n + 1.0)
                   + math.lgamma(n + ab))
    return math.exp(ab * math.log(2.0) + math.lgamma(n + alpha + 1.0)
                    + math.lgamma(n + beta + 1.0) - log_den)


def _is_nonpos_int(v: float) -> bool:
    return -math.inf < v <= 0.0 and abs(v - round(v)) < 1e-13


def _kummer_poly_mp(n: int, b: float, x: float) -> float:
    # terminating sum redone in wide arithmetic; the float64 pass flags the
    # cases where alternating terms dwarf the result
    with mpmath.workdps(45):
        bb = mpmath.mpf(b)
        xx = mpmath.mpf(x)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        for k in range(n):
            term *= (k - n) * xx / ((bb + k) * (k + 1))
            total += term
        return float(total)


def kummer_m(a: float, b: float, x):
    """Confluent hypergeometric function M(a, b, x) = 1F1(a; b; x) for a a
    non-positive integer, where the series terminates and is summed exactly
    as a polynomial; that also covers b a non-positive integer with
    |a| <= |b|, where the truncation stops before the zero denominator.
    Every other a, and a b that is not finite, raises DomainError.
    """
    if not _is_nonpos_int(a):
        raise DomainError(f"M(a, b, x) is summed only as a polynomial: a={a} "
                          f"must be a non-positive integer")
    if not math.isfinite(b):
        raise DomainError(f"M(a, b, x) needs a finite b, got {b}")
    if _is_nonpos_int(b) and abs(a) > abs(b):
        raise DomainError(
            f"M(a, b, x) undefined for b={b}: non-positive integer b requires "
            f"|a| <= |b|")
    x, n = np.asarray(x, dtype=float), int(round(-a))
    total, term, absum = np.ones_like(x), np.ones_like(x), np.ones_like(x)
    for k in range(n):
        term = term * ((a + k) / ((b + k) * (k + 1.0))) * x
        total = total + term
        absum = absum + np.abs(term)
    # cancellation guard: termwise float64 rounding scales with the
    # largest partial sums, so redo ill-conditioned entries widened
    bad = absum > 1e4 * np.maximum(np.abs(total), 1e-300)
    if np.any(bad):
        # flat C-order positions serve x of any shape
        flat, xs = np.ravel(total), np.ravel(x)
        for i in np.flatnonzero(bad):
            flat[i] = _kummer_poly_mp(n, b, float(xs[i]))
        total = flat.reshape(x.shape)
    return total if np.ndim(total) else float(total)


def _gauss_rule(diag, off_sq, mu0: float):
    """Golub-Welsch nodes, Christoffel weights, from the recurrence
    coefficients (diagonal, squared off-diagonal) and zeroth moment mu0.

    Weights are inverse sums of squared orthonormal polynomials at the
    nodes. Eigenvector first components would lose all relative accuracy
    once a weight drops below eps * mu0 (they underflow to zero outright for
    the largest nodes of big exponential-weight rules); the Christoffel form
    keeps each weight relatively accurate because the dominant recurrence
    solution is forward-stable.
    """
    off = np.sqrt(off_sq)
    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    q_prev = np.zeros_like(nodes)
    q = np.full_like(nodes, 1.0 / math.sqrt(mu0))
    total = q * q
    for j in range(len(diag) - 1):
        b_prev = off[j - 1] if j > 0 else 0.0
        q_next = ((nodes - diag[j]) * q - b_prev * q_prev) / off[j]
        q_prev, q = q, q_next
        total += q * q
    return nodes, 1.0 / total


def _npoints(npoints) -> int:
    n = check_count(npoints, "npoints")
    if n < 1:
        raise DomainError("npoints must be positive")
    return n


def gauss_jacobi(alpha: float, beta: float, npoints: int):
    """Gauss rule (nodes, weights) for the weight (1-u)^alpha (1+u)^beta on
    [-1, 1], exact for polynomial f up to degree 2 * npoints - 1.

    Golub-Welsch with Christoffel weights on the classical recurrence
    coefficients; the zeroth moment is the closed-form norm h_0.
    """
    mu0 = jacobi_norm_sq(0, alpha, beta)
    n = _npoints(npoints)
    ab = alpha + beta
    s = 2.0 * np.arange(n) + ab  # 2k + alpha + beta, k = 0 .. n-1
    diag = (beta - alpha) / (s + 2.0)
    diag[1:] *= ab / s[1:]
    k, s = np.arange(1.0, n), s[1:]
    off_sq = 4.0 * k * (k + alpha) * (k + beta) / (s * s * (s + 1.0))
    # the factor (k + alpha + beta)/(2k + alpha + beta - 1) is exactly 1 at
    # k = 1 (0/0 at alpha + beta = -1), so it is applied from k = 2 on
    off_sq[1:] *= (k[1:] + ab) / (s[1:] - 1.0)
    return _gauss_rule(diag, off_sq, mu0)


def _half_hermite_rule(gamma: float, n: int):
    """Rule for r^gamma e^{-r^2} on (0, inf) by the discretized Stieltjes
    procedure in double precision (Gautschi 2004, sec. 2.2).

    No classical recurrence exists for this weight, so it is read off a
    positive discrete stand-in: Gauss-Jacobi with r^gamma exact on [0, a],
    and on [a, R] Gauss-Jacobi in s under r = a + (R - a) (1 + s)^2 / 4,
    which grades the nodes toward the origin and whose Jacobian is the
    Jacobi weight 1 + s. One panel on [0, R] would lose digits near
    gamma = -1, where the first node carries most of the mass and
    Golub-Welsch places it only to absolute accuracy. Weights are formed in
    logs, since r^gamma alone overflows at large gamma.
    """
    a, big_r = 1e-3, math.sqrt(4.0 * n + 2.0 * abs(gamma)) + 12.0
    u, wu = gauss_jacobi(0.0, gamma, 16)
    s, ws = gauss_jacobi(0.0, 1.0, max(200, 8 * n, math.ceil(3.0 * gamma)))
    r = np.concatenate([0.5 * a * (1.0 + u),
                        a + (big_r - a) * (0.25 * (1.0 + s) ** 2)])
    log_w = np.concatenate([np.log(0.5 * a * wu) + gamma * math.log(0.5 * a),
                            np.log(0.5 * (big_r - a) * ws)
                            + gamma * np.log(r[len(u):])])
    w = np.exp(log_w - r * r)
    mu0 = float(np.sum(w))
    diag, off = np.empty(n), np.empty(n)
    q_prev, q, b = np.zeros_like(r), np.sqrt(w / mu0), 0.0
    for k in range(n):  # q_k orthonormal under w: q_{k+1} = t / b_{k+1}
        diag[k] = np.sum(r * q * q)
        t = (r - diag[k]) * q - b * q_prev
        b = off[k] = math.sqrt(np.sum(t * t))
        q_prev, q = q, t / b
    return _gauss_rule(diag, off[:-1] ** 2, mu0)


def build_quadrature(gamma: float, variant: str, npoints: int):
    """Gauss rule (nodes, weights) for integral f(r) r^gamma w(r) dr on
    (0, inf), exact for polynomial f up to degree 2 * npoints - 1.

    variant "exp_r" uses w = e^{-r}, the classical Laguerre recurrence with
    zeroth moment Gamma(gamma + 1); "exp_r2" uses w = e^{-r^2}, whose
    recurrence comes from the discretized Stieltjes procedure in double
    precision. Both share the Golub-Welsch step with Christoffel weights.
    gamma > -1 is required for integrability at the origin, and the
    weight's zeroth moment, Gamma(gamma + 1) or Gamma((gamma + 1)/2)/2, must
    be finite in double precision; npoints is a positive whole number.
    """
    if not gamma > -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {gamma}")
    n = _npoints(npoints)
    if variant not in ("exp_r", "exp_r2"):
        raise DomainError(f"unknown quadrature variant {variant!r}")
    log_mu0 = (math.lgamma(gamma + 1.0) if variant == "exp_r"
               else math.lgamma((gamma + 1.0) / 2.0) - math.log(2.0))
    if not log_mu0 < math.log(sys.float_info.max):
        raise DomainError(f"the {variant} weight's zeroth moment overflows "
                          f"double precision at gamma={gamma}")
    if variant == "exp_r":
        k = np.arange(1.0, n)
        nodes, weights = _gauss_rule(
            2.0 * np.arange(n, dtype=float) + gamma + 1.0, k * (k + gamma),
            laguerre_norm_sq(0, gamma))
    else:
        nodes, weights = _half_hermite_rule(gamma, n)
    if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))
            and np.all(weights > 0.0) and np.all(nodes > 0.0)
            and np.all(np.diff(nodes) > 0.0)):
        raise ConvergenceError(
            f"quadrature construction produced an invalid rule "
            f"(gamma={gamma}, variant={variant}, n={n})")
    return nodes, weights
