"""Tests for the reflections, the polar chart and the parameter records."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    DeformationParams,
    DomainError,
    InvalidStateError,
    ParityVector,
    cartesian_to_polar,
    polar_to_cartesian,
)
from dunkl_spectra.core import reflect_cartesian
from dunkl_spectra.errors import check_count


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------

def test_reflection_squares_to_identity():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        point = rng.normal(size=d)
        for j in range(1, d + 1):
            once = reflect_cartesian(point, j)
            assert once[j - 1] == -point[j - 1]
            npt.assert_array_equal(reflect_cartesian(once, j), point)


def test_reflection_polar_roundtrip_is_identity():
    # reflecting twice through the chart and its inverse returns the point
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        theta = (float(rng.uniform(0.1, 6.2)),) + tuple(
            rng.uniform(0.1, 3.0, d - 2))
        for j in range(1, d + 1):
            r, t = 1.3, theta
            for _ in range(2):
                r, t, _ = cartesian_to_polar(
                    reflect_cartesian(polar_to_cartesian(r, t), j))
            npt.assert_allclose(r, 1.3, rtol=1e-14)
            npt.assert_allclose(t, theta, rtol=1e-13)


def test_reflection_third_axis_flips_x3():
    # in d = 3 the third reflection flips x_3 and keeps the other two, which
    # in the chart sends theta_2 to pi - theta_2
    x = polar_to_cartesian(2.0, (0.9, 0.6))
    flipped = reflect_cartesian(x, 3)
    npt.assert_array_equal(flipped, [x[0], x[1], -x[2]])
    _, theta, determined = cartesian_to_polar(flipped)
    assert determined.all()
    npt.assert_allclose(theta, (0.9, np.pi - 0.6), rtol=1e-14)


def test_reflection_even_monomial_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        point = rng.normal(size=d)
        j = int(rng.integers(1, d + 1))
        f = lambda p: float(np.asarray(p)[j - 1] ** 2)
        npt.assert_allclose(f(reflect_cartesian(point, j)), f(point),
                            rtol=1e-15)


def test_reflection_axis_out_of_range():
    point = np.array([1.0, 2.0, 3.0])
    for j in (0, 4):
        with pytest.raises(IndexError):
            reflect_cartesian(point, j)


# ---------------------------------------------------------------------------
# polar chart
# ---------------------------------------------------------------------------

def test_chart_d3_axis_point():
    x = polar_to_cartesian(1.0, (0.0, np.pi / 2))
    npt.assert_allclose(x, [1.0, 0.0, 0.0], atol=1e-15)


def test_chart_radius_identity():
    rng = np.random.default_rng(3)
    for d in range(2, 7):
        for _ in range(10):
            theta = [float(rng.uniform(0.0, 2 * np.pi))]
            theta += [float(rng.uniform(0.0, np.pi)) for _ in range(d - 2)]
            r = float(rng.uniform(0.1, 5.0))
            x = polar_to_cartesian(r, theta)
            assert x.shape == (d,)
            npt.assert_allclose(np.sum(x * x), r * r, rtol=1e-12)


def test_chart_roundtrip_d5():
    rng = np.random.default_rng(17)
    for _ in range(25):
        theta = [float(rng.uniform(0.05, 2 * np.pi - 0.05))]
        theta += [float(rng.uniform(0.05, np.pi - 0.05)) for _ in range(3)]
        r0 = float(rng.uniform(0.2, 4.0))
        x = polar_to_cartesian(r0, theta)
        r, t, determined = cartesian_to_polar(x)
        assert determined.all()
        npt.assert_allclose(r, r0, rtol=1e-10)
        back = polar_to_cartesian(r, t)
        npt.assert_allclose(back, x, atol=1e-10 * r0)


def _chart_inverse_loop(x):
    """The chart inverse one angle at a time, from the top angle down."""
    d, r = len(x), float(np.sqrt(np.sum(x * x)))
    rho = np.sqrt(np.cumsum(x * x))
    theta = np.zeros(d - 1)
    for j in range(d, 2, -1):
        if rho[j - 1] < 1e-15 * r:
            return r, theta, True
        theta[j - 2] = np.arctan2(rho[j - 2], x[j - 1])
    if rho[1] < 1e-15 * r:
        return r, theta, True
    theta[0] = np.arctan2(x[1], x[0]) % (2.0 * np.pi)
    return r, theta, False


def test_chart_inverse_matches_pointwise_loop():
    # a batch of points and each point alone give the loop's values,
    # degenerate points too
    rng = np.random.default_rng(29)
    for d in range(2, 9):
        points = rng.normal(size=(40, d))
        points[:10, :int(rng.integers(1, d))] = 0.0  # on the singular set
        r, theta, determined = cartesian_to_polar(points)
        for i, x in enumerate(points):
            want_r, want_theta, want_degenerate = _chart_inverse_loop(x)
            one_r, one_theta, one_determined = cartesian_to_polar(x)
            assert (not one_determined.all()) == want_degenerate == (
                not determined[i].all())
            npt.assert_allclose([one_r, r[i]], want_r, rtol=1e-15, atol=0.0)
            npt.assert_allclose(one_theta, want_theta, rtol=1e-15, atol=0.0)
            npt.assert_allclose(theta[i], want_theta, rtol=1e-15, atol=0.0)


def test_chart_degenerate_flag():
    # a point on the x_3 axis leaves theta_1 undetermined
    r, theta, determined = cartesian_to_polar([0.0, 0.0, 2.0])
    assert determined.tolist() == [False, True]
    npt.assert_allclose(r, 2.0, rtol=1e-14)
    x = polar_to_cartesian(r, theta)
    npt.assert_allclose(x, [0.0, 0.0, 2.0], atol=1e-14)


def test_chart_zero_radius_rejected():
    # the origin is refused, alone or as one point of a batch
    for x in ([0.0, 0.0, 0.0], [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]):
        with pytest.raises(DomainError, match="radius"):
            cartesian_to_polar(x)


def test_chart_refuses_bad_input():
    for r, theta in [(-1.0, (0.3, 0.4)), (0.0, (0.3,)), (math.inf, (0.3,)),
                     (math.nan, (0.3,)), ([1.0, -1.0], (0.3, 0.4)),
                     (1.0, (0.3, 3.5)), (1.0, (2.0 * np.pi,)),
                     (1.0, (-0.1, 0.4)), (1.0, (0.3, -0.1)),
                     (1.0, (math.nan,)), (1.0, ())]:
        with pytest.raises(DomainError):
            polar_to_cartesian(r, theta)
    for x in (2.0, [1.0], [[1.0], [2.0]], [math.inf, 0.0], [math.nan, 1.0]):
        with pytest.raises(DomainError):
            cartesian_to_polar(x)


def test_chart_batches_match_single_points():
    # angles on the last axis; one radius or one per point broadcasts
    rng = np.random.default_rng(31)
    for d in (2, 3, 6):
        theta = np.column_stack((rng.uniform(0.0, 2.0 * np.pi, 12),
                                 rng.uniform(0.0, np.pi, (12, d - 2))))
        r = rng.uniform(0.1, 5.0, 12)
        x = polar_to_cartesian(r, theta)
        assert x.shape == (12, d)
        for i in range(12):
            npt.assert_array_equal(x[i], polar_to_cartesian(r[i], theta[i]))
        npt.assert_array_equal(polar_to_cartesian(2.0, theta),
                               polar_to_cartesian(np.full(12, 2.0), theta))
        grid = polar_to_cartesian(r[:, None], theta[:4])
        assert grid.shape == (12, 4, d)


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


def test_deformation_params_dimension_is_a_count():
    for d in (np.int64(3), 3.0):
        p = DeformationParams(d, (0.1,) * 3)
        assert p.d == 3 and type(p.d) is int
    for bad in (2.5, 1, True):
        with pytest.raises(DomainError):
            DeformationParams(bad, (0.1,) * 3)


def test_count_check_refuses_non_numbers():
    for bad in ("x", "2", None, 1j, [1], np.array([1, 2])):
        with pytest.raises(DomainError):
            check_count(bad, "n")
    with pytest.raises(InvalidStateError):
        check_count("x", "n", InvalidStateError)
    with pytest.raises(DomainError):
        DeformationParams("x", (0.0, 0.0))
    counts = [check_count(v, "n") for v in (np.int64(3), 3.0, True, False)]
    assert counts == [3, 3, 1, 0]


def test_count_check_refuses_counts_above_two_to_the_53():
    # compared as integers: 10**400 never reaches float(), which overflows
    for bad in (10 ** 400, 2 ** 53 + 1, float(2 ** 54), math.inf):
        with pytest.raises(DomainError, match=r"at most 2\*\*53"):
            check_count(bad, "n")
    with pytest.raises(InvalidStateError, match=r"2\*\*53"):
        check_count(10 ** 400, "n", InvalidStateError)
    assert check_count(2 ** 53, "n") == 2 ** 53
    assert check_count(float(2 ** 53), "n") == 2 ** 53


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
