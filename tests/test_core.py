"""Tests for the deformed derivative, reflections, and the polar chart."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    DeformationParams,
    DomainError,
    ParityVector,
    PolarPoint,
    SingularityError,
    apply_angular_operator,
    apply_reflection,
    cartesian_to_polar,
    dunkl_derivative_1d,
    polar_to_cartesian,
)


# ---------------------------------------------------------------------------
# deformed derivative
# ---------------------------------------------------------------------------

def test_derivative_even_function():
    # reflection term vanishes on even f, leaving the plain derivative
    got = dunkl_derivative_1d(lambda x: x * x, 0.7, 1.5)
    npt.assert_allclose(got, 3.0, rtol=1e-9)


def test_derivative_identity_function():
    # D x = 1 + 2 mu independently of x
    for x in (0.3, 1.0, -2.7, 10.0):
        got = dunkl_derivative_1d(lambda t: t, 0.4, x)
        npt.assert_allclose(got, 1.8, rtol=1e-9)


def test_derivative_exponential():
    got = dunkl_derivative_1d(math.exp, 0.4, 1.0)
    ref = math.e + 0.4 * (math.e - 1.0 / math.e)
    assert abs(got - ref) < 1e-8
    assert f"{got:.6f}".startswith("3.658443")


def test_derivative_singular_origin():
    with pytest.raises(DomainError):
        dunkl_derivative_1d(lambda t: t, 0.4, 0.0)


def test_derivative_mu_zero_matches_plain_difference():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
        h = max(1e-6, 1e-6 * abs(x))
        f = math.sin
        plain = (f(x + h) - f(x - h)) / (2.0 * h)
        assert dunkl_derivative_1d(f, 0.0, x) == plain


def test_derivative_even_f_exact_reflection_cancel():
    # for even f the reflection difference is exactly zero in floating point
    f = lambda t: math.cos(t) + t**4
    for x in (0.5, 1.0, 2.0):
        with_mu = dunkl_derivative_1d(f, 1.3, x)
        without = dunkl_derivative_1d(f, 0.0, x)
        assert with_mu == without


def test_derivative_custom_step():
    got = dunkl_derivative_1d(lambda t: t**3, 0.0, 2.0, h=1e-4)
    npt.assert_allclose(got, 12.0, rtol=1e-7)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_reflection_squares_to_identity():
    rng = np.random.default_rng(11)
    f = lambda p: float(np.sum(np.asarray(p) ** 3) + np.prod(np.asarray(p)))
    for d in (2, 3, 5):
        point = rng.normal(size=d)
        for j in range(1, d + 1):
            twice = apply_reflection(apply_reflection(f, j), j)
            npt.assert_allclose(twice(point), f(point), rtol=1e-15)


def test_reflection_polar_roundtrip_is_identity():
    f = lambda p: p.r**2 * math.cos(p.theta[0]) + math.sin(p.theta[1])
    p = PolarPoint(r=1.3, theta=(0.7, 1.1))
    for j in (1, 2, 3):
        twice = apply_reflection(apply_reflection(f, j), j)
        npt.assert_allclose(twice(p), f(p), rtol=1e-12)


def test_reflection_third_axis_flips_x3():
    # in d = 3 the third reflection sends theta_2 to pi - theta_2, which
    # flips the x_3 coordinate and keeps the other two
    p = PolarPoint(r=2.0, theta=(0.9, 0.6))
    x = polar_to_cartesian(p)
    coord = lambda i: (lambda q: polar_to_cartesian(q)[i])
    for i in range(3):
        got = apply_reflection(coord(i), 3)(p)
        ref = -x[2] if i == 2 else x[i]
        npt.assert_allclose(got, ref, atol=1e-14)


def test_reflection_even_monomial_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        point = rng.normal(size=d)
        j = int(rng.integers(1, d + 1))
        f = lambda p: float(np.asarray(p)[j - 1] ** 2)
        npt.assert_allclose(apply_reflection(f, j)(point), f(point), rtol=1e-15)


def test_reflection_axis_out_of_range():
    f = lambda p: float(np.sum(np.asarray(p)))
    with pytest.raises(IndexError):
        apply_reflection(f, 4)(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(IndexError):
        apply_reflection(f, 0)
    with pytest.raises(IndexError):
        apply_reflection(f, 5)(PolarPoint(r=1.0, theta=(0.3, 0.4)))


# ---------------------------------------------------------------------------
# polar chart
# ---------------------------------------------------------------------------

def test_chart_d3_axis_point():
    x = polar_to_cartesian(PolarPoint(r=1.0, theta=(0.0, np.pi / 2)))
    npt.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-15)


def test_chart_radius_identity():
    rng = np.random.default_rng(3)
    for d in range(2, 7):
        for _ in range(10):
            theta = [float(rng.uniform(0.0, 2 * np.pi))]
            theta += [float(rng.uniform(0.0, np.pi)) for _ in range(d - 2)]
            r = float(rng.uniform(0.1, 5.0))
            x = polar_to_cartesian(PolarPoint(r=r, theta=tuple(theta)), d)
            assert x.shape == (d,)
            npt.assert_allclose(np.sum(x * x), r * r, rtol=1e-12)


def test_chart_roundtrip_d5():
    rng = np.random.default_rng(17)
    for _ in range(25):
        theta = [float(rng.uniform(0.05, 2 * np.pi - 0.05))]
        theta += [float(rng.uniform(0.05, np.pi - 0.05)) for _ in range(3)]
        p = PolarPoint(r=float(rng.uniform(0.2, 4.0)), theta=tuple(theta))
        x = polar_to_cartesian(p, 5)
        q, degenerate = cartesian_to_polar(x)
        assert not degenerate
        npt.assert_allclose(q.r, p.r, rtol=1e-10)
        back = polar_to_cartesian(q, 5)
        npt.assert_allclose(back, x, atol=1e-10 * p.r)


def test_chart_degenerate_flag():
    # a point on the x_3 axis leaves theta_1 undetermined
    q, degenerate = cartesian_to_polar([0.0, 0.0, 2.0])
    assert degenerate
    npt.assert_allclose(q.r, 2.0, rtol=1e-14)
    x = polar_to_cartesian(q, 3)
    npt.assert_allclose(x, [0.0, 0.0, 2.0], atol=1e-14)


def test_chart_zero_radius_rejected():
    with pytest.raises(DomainError):
        cartesian_to_polar([0.0, 0.0, 0.0])


def test_polar_point_validation():
    with pytest.raises(DomainError):
        PolarPoint(r=-1.0, theta=(0.3, 0.4))
    with pytest.raises(DomainError):
        PolarPoint(r=1.0, theta=(0.3, 3.5))


# ---------------------------------------------------------------------------
# angular operator, applied by finite differences
# ---------------------------------------------------------------------------

def test_angular_operator_constant_is_annihilated():
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    got = apply_angular_operator(1, lambda t: 1.0, params, 0.0, 0.8)
    assert abs(got) < 1e-12


def test_angular_operator_sine_mode():
    # sin t spans the (+1, -1) sector with l = 1/2; eigenvalue 4*(1/2)*(1/2)
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    for t in (0.4, 0.9, 1.3):
        got = apply_angular_operator(1, math.sin, params, 0.0, t)
        npt.assert_allclose(got, 1.0 * math.sin(t), atol=1e-5)


def test_angular_operator_cos2t_mode():
    # cos 2t is the even-even l = 1 state; classical eigenvalue 4
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    f = lambda t: math.cos(2.0 * t)
    for t in (0.3, 0.7, 1.2):
        got = apply_angular_operator(1, f, params, 0.0, t)
        npt.assert_allclose(got, 4.0 * f(t), atol=1e-5)


def test_angular_operator_guard_band():
    params = DeformationParams(d=3, mu=(0.1, 0.2, 0.0))
    with pytest.raises(SingularityError):
        apply_angular_operator(1, math.sin, params, 0.0, np.pi / 2)
    with pytest.raises(SingularityError):
        apply_angular_operator(1, math.sin, params, 0.0, 1e-9)
    with pytest.raises(SingularityError):
        apply_angular_operator(1, math.sin, params, 0.0, np.pi / 2 + 5e-7,
                               guard=1e-6)


def test_angular_operator_level_range():
    params = DeformationParams(d=3, mu=(0.1, 0.2, 0.0))
    with pytest.raises(DomainError):
        apply_angular_operator(0, math.sin, params, 0.0, 0.5)
    with pytest.raises(DomainError):
        apply_angular_operator(3, math.sin, params, 0.0, 0.5)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_deformation_params_validation():
    with pytest.raises(DomainError):
        DeformationParams(d=2, mu=(0.3, -0.5))
    with pytest.raises(DomainError):
        DeformationParams(d=3, mu=(-0.6, 0.1, 0.2))
    with pytest.raises(DomainError):
        DeformationParams(d=3, mu=(0.1, 0.2))
    p = DeformationParams.uniform(4, 0.25)
    assert p.d == 4
    assert p.mu == (0.25, 0.25, 0.25, 0.25)
    npt.assert_allclose(p.mu_sum, 1.0, rtol=1e-15)
    npt.assert_allclose(p.mu_partial(2), 0.5, rtol=1e-15)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_deformation_params_rejects_non_finite_coupling(bad):
    with pytest.raises(DomainError):
        DeformationParams(d=3, mu=(bad, 0.0, 0.0))


def test_parity_vector_validation():
    with pytest.raises(DomainError):
        ParityVector((1, 0, -1))
    v = ParityVector((1, -1))
    assert len(v) == 2


def test_parity_vector_rejects_non_integer_entries():
    with pytest.raises(DomainError):
        ParityVector((1.5, -1))
    v = ParityVector((1.0, -1.0))
    assert v.s == (1, -1)
    assert all(type(x) is int for x in v.s)
