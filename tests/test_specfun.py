"""Tests for the polynomial and quadrature building blocks."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

import dunkl_spectra
from dunkl_spectra import (
    ConvergenceError,
    DomainError,
    build_quadrature,
    jacobi,
    kummer_m,
    laguerre,
)
from dunkl_spectra.specfun import (_gauss_rule, gauss_jacobi, jacobi_norm_sq,
                                   laguerre_norm_sq)


# ---------------------------------------------------------------------------
# reference implementations from the defining series. The alternating sums
# cancel badly in float64 at larger x, so the references run in 50-digit
# arithmetic; any disagreement then belongs to the implementation under test.
# ---------------------------------------------------------------------------

def _gbinom(a, k):
    # generalized binomial coefficient a choose k for real a, integer k >= 0
    out = mpmath.mpf(1)
    for i in range(k):
        out *= (a - i) / mpmath.mpf(k - i)
    return out


def laguerre_series(n, alpha, x):
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        xx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for k in range(n + 1):
            total += (-1) ** k * _gbinom(n + a, n - k) * xx**k / mpmath.factorial(k)
        return float(total)


def jacobi_series(n, alpha, beta, x):
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        b = mpmath.mpf(beta)
        xx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for s in range(n + 1):
            total += (
                _gbinom(n + a, n - s)
                * _gbinom(n + b, s)
                * ((xx - 1) / 2) ** s
                * ((xx + 1) / 2) ** (n - s)
            )
        return float(total)


def kummer_series(a, b, x, nterms=400):
    with mpmath.workdps(50):
        aa = mpmath.mpf(a)
        bb = mpmath.mpf(b)
        xx = mpmath.mpf(x)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        for k in range(nterms):
            term *= (aa + k) * xx / ((bb + k) * (k + 1))
            total += term
        return float(total)


# ---------------------------------------------------------------------------
# pinned example values
# ---------------------------------------------------------------------------

def test_laguerre_examples():
    assert laguerre(0, 0.4, 7.3) == 1.0
    npt.assert_allclose(laguerre(1, 0.5, 2.0), -0.5, rtol=1e-14)
    npt.assert_allclose(laguerre(2, 0.0, 1.0), -0.5, rtol=1e-14)


def test_jacobi_examples():
    assert jacobi(0, 0.9, -0.1, 0.3) == 1.0
    npt.assert_allclose(jacobi(1, 0.9, -0.1, 1.0), 1.9, rtol=1e-14)
    npt.assert_allclose(jacobi(2, 0.0, 0.0, 0.0), -0.5, rtol=1e-14)


def test_kummer_examples():
    assert kummer_m(-3, 2.5, 0.0) == 1.0
    npt.assert_allclose(kummer_m(-1, 2, 1.0), 0.5, rtol=1e-15)
    # terminating case ties back to a Laguerre polynomial
    lhs = kummer_m(-2, 1.5, 0.8)
    rhs = math.factorial(2) / (1.5 * 2.5) * laguerre(2, 0.5, 0.8)
    npt.assert_allclose(lhs, rhs, rtol=1e-12)


def test_laguerre_against_series():
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        n = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-0.9, 3.0))
        x = float(rng.uniform(0.0, 30.0))
        ref = laguerre_series(n, alpha, x)
        got = laguerre(n, alpha, x)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_jacobi_against_series():
    rng = np.random.default_rng(4711)
    for _ in range(100):
        n = int(rng.integers(0, 13))
        alpha = float(rng.uniform(-0.9, 2.5))
        beta = float(rng.uniform(-0.9, 2.5))
        x = float(rng.uniform(-1.0, 1.0))
        ref = jacobi_series(n, alpha, beta, x)
        got = jacobi(n, alpha, beta, x)
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_kummer_against_series():
    rng = np.random.default_rng(99)
    for _ in range(60):
        a = -float(rng.integers(0, 13))
        b = float(rng.uniform(0.3, 4.0))
        x = float(rng.uniform(0.0, 8.0))
        ref = kummer_series(a, b, x)
        got = kummer_m(a, b, x)
        assert abs(got - ref) < 1e-9 * max(1.0, abs(ref))


def test_kummer_laguerre_identity():
    # M(-n, alpha+1, x) = n! / (alpha+1)_n * L_n^alpha(x)
    for n in range(0, 21):
        for alpha in (-0.4, 0.0, 0.5, 1.2):
            for x in (0.0, 0.3, 1.7, 5.0, 11.0, 30.0):
                poch = 0.0  # log of (alpha+1)_n
                sign = 1.0
                for i in range(n):
                    v = alpha + 1.0 + i
                    poch += math.log(abs(v))
                    sign *= math.copysign(1.0, v)
                lhs = kummer_m(-n, alpha + 1.0, x)
                rhs = sign * math.exp(math.lgamma(n + 1) - poch) * laguerre(
                    n, alpha, x
                )
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_kummer_wide_precision_fallback_any_shape():
    # M(-30, 1.5, x) cancels badly over most of [0, 60], so those entries
    # are redone widened; their flat positions must serve 2-d input too
    x = np.linspace(0.0, 60.0, 12)
    flat = kummer_m(-30, 1.5, x)
    for shape in ((6, 2), (2, 3, 2), (12, 1)):
        got = kummer_m(-30, 1.5, x.reshape(shape))
        assert got.shape == shape
        npt.assert_array_equal(got.reshape(-1), flat)
    # a transposed (non-contiguous) view keeps its element order
    grid = x.reshape(6, 2)
    npt.assert_array_equal(kummer_m(-30, 1.5, grid.T), flat.reshape(6, 2).T)
    assert kummer_m(-30, 1.5, x[5]) == flat[5]


def test_kummer_domain_and_convergence():
    with pytest.raises(DomainError):
        kummer_m(-3.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        kummer_m(-3.0, -2.0, 2.0)
    # negative integer b is fine when the series terminates first
    val = kummer_m(-2, -3.0, 1.0)
    assert np.isfinite(val)
    # only the terminating series is summed: any other a is refused
    for a in (0.5, 1.0, -2.5, math.nan, -math.inf, math.inf):
        with pytest.raises(DomainError, match="non-positive integer"):
            kummer_m(a, 1.7, 1.0)
    for b in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite b"):
            kummer_m(-2, b, 1.0)


def test_polynomial_domain_errors():
    with pytest.raises(DomainError):
        laguerre(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        laguerre(-1, 0.5, 1.0)
    with pytest.raises(DomainError):
        jacobi(2, -1.0, 0.5, 0.3)
    with pytest.raises(DomainError):
        jacobi(2, 0.5, -1.5, 0.3)
    with pytest.raises(DomainError):
        jacobi(-2, 0.5, 0.5, 0.3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            laguerre(3, bad, 1.0)
        with pytest.raises(DomainError):
            jacobi(2, bad, 0.0, 0.3)
        with pytest.raises(DomainError):
            jacobi(2, 0.0, bad, 0.3)
        with pytest.raises(DomainError):
            gauss_jacobi(bad, 0.0, 5)


def test_polynomial_rejects_fractional_degree():
    with pytest.raises(DomainError):
        laguerre(2.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        jacobi(1.5, 0.5, 0.5, 0.3)
    assert laguerre(2.0, 0.5, 1.0) == laguerre(2, 0.5, 1.0)


# ---------------------------------------------------------------------------
# closed-form norms against independent Gauss rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, alpha", [(0, 0.0), (3, -0.9), (7, 2.5), (30, 0.4)])
def test_laguerre_norm_against_quadrature(n, alpha):
    nodes, weights = build_quadrature(alpha, "exp_r", n + 2)
    direct = float(np.sum(weights * laguerre(n, alpha, nodes) ** 2))
    npt.assert_allclose(laguerre_norm_sq(n, alpha), direct, rtol=1e-12)


@pytest.mark.parametrize("n, a, b", [
    (0, 0.3, -0.2), (0, -0.75, -0.25), (1, -0.75, -0.25), (4, -0.5, -0.5),
    (5, 2.5, 0.1), (12, 3.0, -0.45),
])
def test_jacobi_norm_against_quadrature(n, a, b):
    # includes a + b = -1, where the n = 0 denominator is Gamma(a + b + 2)
    nodes, weights = gauss_jacobi(a, b, n + 2)
    direct = float(np.sum(weights * jacobi(n, a, b, nodes) ** 2))
    npt.assert_allclose(jacobi_norm_sq(n, a, b), direct, rtol=1e-12)


def test_norm_domain_errors():
    for bad in ((2, -1.0), (2.5, 0.5), (-1, 0.5)):
        with pytest.raises(DomainError):
            laguerre_norm_sq(*bad)
    for bad in ((2, -1.0, 0.5), (2, 0.5, -1.5), (1.5, 0.5, 0.5)):
        with pytest.raises(DomainError):
            jacobi_norm_sq(*bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            laguerre_norm_sq(3, bad)
        with pytest.raises(DomainError):
            jacobi_norm_sq(2, bad, 0.0)
        with pytest.raises(DomainError):
            jacobi_norm_sq(2, 0.0, bad)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------

def test_build_quadrature_examples():
    nodes, weights = build_quadrature(0.0, "exp_r", 8)
    got = np.sum(weights * nodes**3)
    npt.assert_allclose(got, 6.0, rtol=1e-12)

    nodes, weights = build_quadrature(2.4, "exp_r2", 64)
    got = np.sum(weights)
    npt.assert_allclose(got, 0.5 * math.gamma(1.7), rtol=1e-10)

    nodes, weights = build_quadrature(0.5, "exp_r", 16)
    got = np.sum(weights * nodes)
    npt.assert_allclose(got, math.gamma(2.5), rtol=1e-12)


@pytest.mark.parametrize("variant", ["exp_r", "exp_r2"])
@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.8, 2.4, 5.0])
@pytest.mark.parametrize("npoints", [1, 2, 7, 16, 64])
def test_build_quadrature_invariants(gamma, variant, npoints):
    nodes, weights = build_quadrature(gamma, variant, npoints)
    assert nodes.shape == (npoints,)
    assert weights.shape == (npoints,)
    assert np.all(weights > 0.0)
    assert np.all(nodes > 0.0)
    assert np.all(np.diff(nodes) > 0.0)


@pytest.mark.parametrize("variant", ["exp_r", "exp_r2"])
@pytest.mark.parametrize("gamma", [-0.3, 0.0, 1.5])
@pytest.mark.parametrize("npoints", [4, 9, 20])
def test_build_quadrature_monomial_exactness(gamma, variant, npoints):
    # a rule with npoints nodes integrates r^k exactly for k <= 2*npoints - 1
    nodes, weights = build_quadrature(gamma, variant, npoints)
    for k in range(2 * npoints):
        got = np.sum(weights * nodes**k)
        if variant == "exp_r":
            ref = math.gamma(gamma + k + 1.0)
        else:
            ref = 0.5 * math.gamma((gamma + k + 1.0) / 2.0)
        assert abs(got - ref) < 1e-12 * abs(ref)


def test_build_quadrature_orthogonality_laguerre():
    gamma = 0.7
    nodes, weights = build_quadrature(gamma, "exp_r", 24)
    for n in range(6):
        for m in range(6):
            got = np.sum(
                weights * laguerre(n, gamma, nodes) * laguerre(m, gamma, nodes)
            )
            if n == m:
                ref = math.exp(
                    math.lgamma(n + gamma + 1.0) - math.lgamma(n + 1.0)
                )
                assert abs(got - ref) < 1e-10 * abs(ref)
            else:
                assert abs(got) < 1e-10


def test_build_quadrature_domain_errors():
    with pytest.raises(DomainError):
        build_quadrature(-1.0, "exp_r", 8)
    with pytest.raises(DomainError):
        build_quadrature(-1.2, "exp_r2", 8)
    with pytest.raises(DomainError):
        build_quadrature(0.5, "exp_cube", 8)
    with pytest.raises(DomainError):
        build_quadrature(0.5, "exp_r", 0)
    for variant in ("exp_r", "exp_r2"):
        with pytest.raises(DomainError, match="must exceed -1"):
            build_quadrature(math.nan, variant, 8)


def test_build_quadrature_overflowing_sums_refused_alone():
    # the Christoffel sums of 206 points at gamma = 1.7 overflow: the rule
    # is refused with no RuntimeWarning before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="invalid rule"):
            build_quadrature(1.7, "exp_r", 206)


@pytest.mark.parametrize("gamma, variant", [(343.0, "exp_r2"),
                                            (171.0, "exp_r")])
def test_zeroth_moment_overflow_fails_fast(gamma, variant):
    # filterwarnings = error: an overflow warning on the way would fail this
    with pytest.raises(DomainError, match="zeroth moment"):
        build_quadrature(gamma, variant, 8)


def test_half_range_rule_at_largest_exponent():
    _, weights = build_quadrature(342.5, "exp_r2", 8)
    npt.assert_allclose(np.sum(weights),
                        float(mpmath.gamma(171.75) / 2), rtol=1e-12)


def _half_hermite_reference(gamma, n):
    """The r^gamma e^{-r^2} rule from its exact moments Gamma((gamma+l+1)/2)/2:
    the Chebyshev algorithm (Gautschi 2004, sec. 2.1) in mpmath at 40 + 6n
    digits, then the package's Golub-Welsch step."""
    with mpmath.workdps(40 + 6 * n):
        g = mpmath.mpf(gamma)
        sig = [mpmath.gamma((g + l + 1) / 2) / 2 for l in range(2 * n)]
        prev = [mpmath.mpf(0)] * (2 * n)
        alpha, beta = [sig[1] / sig[0]], [sig[0]]
        for k in range(1, n):
            nxt = [mpmath.mpf(0)] * (2 * n)
            for l in range(k, 2 * n - k):
                nxt[l] = sig[l + 1] - alpha[-1] * sig[l] - beta[-1] * prev[l]
            alpha.append(nxt[k + 1] / nxt[k] - sig[k] / sig[k - 1])
            beta.append(nxt[k] / sig[k - 1])
            prev, sig = sig, nxt
        return _gauss_rule(np.array([float(a) for a in alpha]),
                           np.array([float(b) for b in beta[1:]]),
                           float(beta[0]))


@pytest.mark.parametrize("gamma", [-0.99, -0.6, 0.0, 2.4, 18.0, 60.0, 200.0])
@pytest.mark.parametrize("npoints", [2, 24, 64])
def test_half_range_rule_against_moment_reference(gamma, npoints):
    # nodes as well as weights: a rule can match every monomial moment to
    # 1e-13 while its nodes are off in the second digit
    nodes, weights = build_quadrature(gamma, "exp_r2", npoints)
    ref_nodes, ref_weights = _half_hermite_reference(gamma, npoints)
    npt.assert_allclose(nodes, ref_nodes, rtol=1e-12, atol=0.0)
    npt.assert_allclose(weights, ref_weights, rtol=2e-12, atol=0.0)


@pytest.mark.parametrize("gamma", [-0.999, 0.5, 60.0])
def test_half_range_rule_at_128_points(gamma):
    nodes, weights = build_quadrature(gamma, "exp_r2", 128)
    assert len(nodes) == 128
    npt.assert_allclose(np.sum(weights),
                        0.5 * math.gamma((gamma + 1.0) / 2.0), rtol=1e-13)


@pytest.mark.parametrize("variant", ["exp_r", "exp_r2"])
def test_build_quadrature_rejects_fractional_npoints(variant):
    with pytest.raises(DomainError):
        build_quadrature(0.5, variant, 2.7)
    nodes, _ = build_quadrature(0.5, variant, 3.0)
    assert len(nodes) == 3


def test_gauss_jacobi_orthogonality():
    for alpha, beta in [(-0.5, -0.5), (0.3, -0.4), (1.1, 0.6), (2.4, -0.1)]:
        nodes, weights = gauss_jacobi(alpha, beta, 14)
        assert np.all(weights > 0.0)
        assert np.all(np.diff(nodes) > 0.0)
        assert np.all(np.abs(nodes) < 1.0)
        for n in range(5):
            for m in range(5):
                got = np.sum(
                    weights
                    * jacobi(n, alpha, beta, nodes)
                    * jacobi(m, alpha, beta, nodes)
                )
                if n == m:
                    ab = alpha + beta
                    if n == 0:
                        # the generic norm formula is 0/0 here when ab = -1
                        ref = math.exp(
                            (ab + 1.0) * math.log(2.0)
                            + math.lgamma(alpha + 1.0)
                            + math.lgamma(beta + 1.0)
                            - math.lgamma(ab + 2.0)
                        )
                    else:
                        ref = math.exp(
                            (ab + 1.0) * math.log(2.0)
                            + math.lgamma(n + alpha + 1.0)
                            + math.lgamma(n + beta + 1.0)
                            - math.lgamma(n + ab + 1.0)
                            - math.lgamma(n + 1.0)
                        ) / (2.0 * n + ab + 1.0)
                    assert abs(got - ref) < 1e-10 * abs(ref)
                else:
                    assert abs(got) < 1e-10


def test_gauss_jacobi_moment():
    # integral of (1-x)^a (1+x)^b dx over [-1, 1]
    alpha, beta = 0.9, -0.1
    nodes, weights = gauss_jacobi(alpha, beta, 10)
    ref = 2.0 ** (alpha + beta + 1.0) * math.exp(
        math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(alpha + beta + 2.0)
    )
    npt.assert_allclose(np.sum(weights), ref, rtol=1e-12)


def test_gauss_jacobi_domain_errors():
    with pytest.raises(DomainError):
        gauss_jacobi(-1.0, 0.5, 8)
    with pytest.raises(DomainError):
        gauss_jacobi(0.5, -1.3, 8)
    with pytest.raises(DomainError):
        gauss_jacobi(0.5, 0.5, 0)


def test_gauss_jacobi_rejects_fractional_npoints():
    with pytest.raises(DomainError):
        gauss_jacobi(0.2, 0.1, 3.9)
    assert len(gauss_jacobi(0.2, 0.1, 4.0)[0]) == 4


def test_import_leaves_scipy_special_out():
    # the package needs only scipy.linalg; scipy.special costs start-up time
    src = os.path.dirname(os.path.dirname(dunkl_spectra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dunkl_spectra; print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
