"""Tests for the angular tower: eigenfunctions, separation constants."""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import roots_jacobi

from dunkl_spectra import (
    AngularState,
    DeformationParams,
    DomainError,
    InvalidStateError,
    ParityVector,
    Oscillator,
    angular_inner_product,
    lambda_sq,
    parity_offsets,
    theta_eigenfunction,
    polar_to_cartesian,
    residual_check,
    varpi_sq,
)


# ---------------------------------------------------------------------------
# parity offsets
# ---------------------------------------------------------------------------

def test_parity_offsets():
    assert parity_offsets(ParityVector((1, 1, 1))) == (0, 0, 0)
    assert parity_offsets(ParityVector((-1, 1))) == (1, 0)
    s = (1, -1, -1, 1)
    e = parity_offsets(ParityVector(s))
    assert e == tuple((1 - v) // 2 for v in s)


# ---------------------------------------------------------------------------
# state admissibility
# ---------------------------------------------------------------------------

def test_state_lowest_sector_requires_all_even():
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(0, 0), parity=(1, -1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(0, 0), parity=(-1, 1, 1))
    AngularState(two_ell=(0, 0), parity=(1, 1, 1))


def test_state_half_integer_needs_mixed_parity():
    AngularState(two_ell=(1, 0), parity=(1, -1, 1))
    AngularState(two_ell=(1, 0), parity=(-1, 1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(1, 0), parity=(1, 1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(1, 0), parity=(-1, -1, 1))


def test_state_doubly_odd_sector_needs_full_quantum():
    # s_1 = s_2 = -1 admitted once l_1 - 1 is a nonnegative integer
    AngularState(two_ell=(2, 0), parity=(-1, -1, 1))
    AngularState(two_ell=(4, 0), parity=(-1, -1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(3, 0), parity=(-1, -1, 1))


def test_state_upper_levels_checked():
    AngularState(two_ell=(1, 1, 0), parity=(1, -1, -1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(1, 1, 0), parity=(1, -1, 1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(1, 0, 0), parity=(1, -1, -1, 1))


def test_state_shape_validation():
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(0, 0, 0), parity=(1, 1, 1))
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(-1, 0), parity=(1, 1, 1))


def test_from_total():
    st = AngularState.from_total(5, 1.5)
    assert st.two_ell == (3, 0, 0, 0)
    assert st.parity.s == (1, -1, 1, 1, 1)
    npt.assert_allclose(st.ell_total, 1.5, rtol=1e-15)
    st = AngularState.from_total(3, 2.0)
    assert st.two_ell == (4, 0)
    assert st.parity.s == (1, 1, 1)
    with pytest.raises(InvalidStateError):
        AngularState.from_total(3, 0.3)


def test_state_rejects_fractional_quantum_numbers():
    with pytest.raises(InvalidStateError):
        AngularState(two_ell=(2.7, 0), parity=(1, 1, 1))
    assert AngularState(two_ell=(2.0, 0), parity=(1, 1, 1)).two_ell == (2, 0)


# ---------------------------------------------------------------------------
# closed-form eigenfunctions at level 1
# ---------------------------------------------------------------------------

def test_theta_lowest_is_constant():
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    state = AngularState(two_ell=(0, 0), parity=(1, 1, 1))
    ts = np.linspace(0.2, 2.9, 9)
    vals = theta_eigenfunction(1, state, params, ts)
    npt.assert_allclose(vals, vals[0], rtol=1e-14)
    npt.assert_allclose(vals[0], 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-12)


def test_theta_half_quantum_is_sine():
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    state = AngularState(two_ell=(1, 0), parity=(1, -1, 1))
    ts = np.linspace(0.15, 1.4, 7)
    vals = theta_eigenfunction(1, state, params, ts)
    ratio = vals / np.sin(ts)
    npt.assert_allclose(ratio, ratio[0], rtol=1e-13)
    npt.assert_allclose(abs(ratio[0]), 1.0 / math.sqrt(math.pi), rtol=1e-12)


def test_theta_unit_quantum_is_cos2t():
    params = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    state = AngularState(two_ell=(2, 0), parity=(1, 1, 1))
    ts = np.linspace(0.1, 1.5, 7)
    vals = theta_eigenfunction(1, state, params, ts)
    ratio = vals / np.cos(2.0 * ts)
    npt.assert_allclose(ratio, ratio[0], rtol=1e-12)
    npt.assert_allclose(abs(ratio[0]), 1.0 / math.sqrt(math.pi), rtol=1e-12)


def test_theta_scalar_angle_returns_float():
    # a level with no cos/sin prefactor, at a scalar angle
    params = DeformationParams.uniform(3, 0.2)
    state = AngularState.from_total(3, 0.0)
    got = theta_eigenfunction(1, state, params, 0.3)
    assert isinstance(got, float)
    assert got == theta_eigenfunction(1, state, params, np.array([0.3]))[0]


def test_theta_reflection_actions():
    # level 1 carries the (s_1, s_2) labels: theta -> pi - theta multiplies
    # by s_1 and theta -> -theta multiplies by s_2
    params = DeformationParams(d=3, mu=(0.4, 0.2, 0.0))
    sectors = [
        ((0, 0), (1, 1, 1)),
        ((1, 0), (1, -1, 1)),
        ((1, 0), (-1, 1, 1)),
        ((2, 0), (-1, -1, 1)),
        ((3, 0), (1, -1, 1)),
    ]
    ts = np.linspace(0.1, 1.45, 12)
    for two_ell, parity in sectors:
        state = AngularState(two_ell=two_ell, parity=parity)
        s1, s2 = parity[0], parity[1]
        direct = theta_eigenfunction(1, state, params, ts)
        npt.assert_allclose(
            theta_eigenfunction(1, state, params, np.pi - ts),
            s1 * direct, atol=1e-12)
        npt.assert_allclose(
            theta_eigenfunction(1, state, params, -ts),
            s2 * direct, atol=1e-12)


# ---------------------------------------------------------------------------
# separation constants
# ---------------------------------------------------------------------------

def test_lambda_sq_examples():
    params0 = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    st0 = AngularState(two_ell=(0, 0), parity=(1, 1, 1))
    assert lambda_sq(1, st0, params0) == 0.0

    st1 = AngularState(two_ell=(2, 0), parity=(1, 1, 1))
    npt.assert_allclose(lambda_sq(1, st1, params0), 4.0, rtol=1e-15)

    params = DeformationParams(d=4, mu=(0.4, 0.4, 0.4, 0.4))
    st2 = AngularState(two_ell=(1, 1, 0), parity=(1, -1, -1, 1))
    npt.assert_allclose(lambda_sq(2, st2, params), 10.8, rtol=1e-13)


def test_lambda_sq_first_level_closed_form():
    # k = 1 reduces to 4 l_1 (l_1 + mu_1 + mu_2)
    for two_l, parity in [(1, (1, -1, 1)), (2, (1, 1, 1)), (4, (1, 1, 1))]:
        state = AngularState(two_ell=(two_l, 0), parity=parity)
        params = DeformationParams(d=3, mu=(0.3, -0.2, 0.7))
        ell = two_l / 2.0
        npt.assert_allclose(
            lambda_sq(1, state, params),
            4.0 * ell * (ell + 0.3 - 0.2), rtol=1e-14)


def test_lambda_sq_level_range():
    params = DeformationParams(d=3, mu=(0.1, 0.1, 0.1))
    state = AngularState(two_ell=(0, 0), parity=(1, 1, 1))
    with pytest.raises(DomainError):
        lambda_sq(0, state, params)
    with pytest.raises(DomainError):
        lambda_sq(2, state, params)


def test_varpi_sq_examples():
    params0 = DeformationParams(d=3, mu=(0.0, 0.0, 0.0))
    st0 = AngularState(two_ell=(0, 0), parity=(1, 1, 1))
    assert varpi_sq(st0, params0) == 0.0

    st1 = AngularState(two_ell=(2, 0), parity=(1, 1, 1))
    npt.assert_allclose(varpi_sq(st1, params0), 6.0, rtol=1e-15)

    params5 = DeformationParams.uniform(5, 0.4)
    st2 = AngularState.from_total(5, 1.5)
    npt.assert_allclose(varpi_sq(st2, params5), 30.0, rtol=1e-13)


def test_varpi_sq_undeformed_reduction():
    # mu = 0 collapses to the hyperspherical value l (l + d - 2), l = 2L
    for d in (2, 3, 4, 6):
        params = DeformationParams.uniform(d, 0.0)
        for two_L in (0, 1, 2, 3, 5):
            state = AngularState.from_total(d, two_L / 2.0)
            l = two_L
            assert varpi_sq(state, params) == float(l * (l + d - 2))


def test_varpi_dimension_mismatch():
    params = DeformationParams.uniform(4, 0.1)
    state = AngularState.from_total(3, 1.0)
    with pytest.raises(InvalidStateError):
        varpi_sq(state, params)
    with pytest.raises(InvalidStateError):
        lambda_sq(1, state, params)


# ---------------------------------------------------------------------------
# numerical eigen-check of the closed forms
# ---------------------------------------------------------------------------

def _sectors_for(two_l):
    if two_l == 0:
        return [(1, 1)]
    if two_l % 2:
        return [(1, -1), (-1, 1)]
    return [(1, 1), (-1, -1)]


def _residual_along(params, state, angles):
    """Residual of the assembled oscillator ground level at radius 1.3 and
    each of the given angle tuples."""
    points = polar_to_cartesian(1.3, angles)
    return residual_check(Oscillator(1.0), params, state, 0, points)


@pytest.mark.parametrize("mu", [-0.3, 0.0, 0.4])
def test_level1_eigencheck(mu):
    # the assembled state solves the full equation on an interior grid of
    # the level-1 angle, whose reflections reach every quadrant
    params = DeformationParams(d=3, mu=(mu, mu, 0.0))
    grid = np.linspace(0.17, np.pi / 2 - 0.11, 50)
    for two_l in (0, 1, 2, 3):
        for s1, s2 in _sectors_for(two_l):
            state = AngularState(two_ell=(two_l, 0), parity=(s1, s2, 1))
            res = _residual_along(params, state, [(t, 1.0) for t in grid])
            assert res < 1e-8


def test_level2_eigencheck():
    # level 2 carries the level-1 constant in its sine power and Jacobi
    # parameter; the full equation checks both along the level-2 angle
    params = DeformationParams(d=4, mu=(0.4, 0.1, -0.2, 0.3))
    cases = [
        ((1, 1, 0), (1, -1, -1, 1)),
        ((1, 3, 0), (1, -1, -1, 1)),
        ((2, 2, 0), (1, 1, 1, 1)),
    ]
    grid = np.linspace(0.25, np.pi / 2 - 0.15, 12)
    for two_ell, parity in cases:
        state = AngularState(two_ell=two_ell, parity=parity)
        res = _residual_along(params, state, [(0.7, t, 1.0) for t in grid])
        assert res < 1e-8


def test_top_level_eigencheck_matches_varpi():
    # the top level's constant is the full angular constant that the radial
    # state is built on: the full equation checks them against each other
    params = DeformationParams(d=4, mu=(0.4, 0.1, -0.2, 0.3))
    state = AngularState(two_ell=(1, 1, 2), parity=(1, -1, -1, 1))
    lam = lambda_sq(2, state, params)
    w = varpi_sq(state, params)
    res = _residual_along(params, state, [(0.7, 1.0, t) for t in
                                          (0.4, 0.8, 1.2)])
    assert res < 1e-8
    assert lam < w


# ---------------------------------------------------------------------------
# orthonormality
# ---------------------------------------------------------------------------

def test_level1_orthonormal():
    params = DeformationParams(d=3, mu=(0.4, 0.2, 0.0))
    even = [AngularState(two_ell=(v, 0), parity=(1, 1, 1)) for v in (0, 2, 4)]
    mixed = [AngularState(two_ell=(v, 0), parity=(1, -1, 1)) for v in (1, 3, 5)]
    for family in (even, mixed):
        for a in family:
            for b in family:
                got = angular_inner_product(1, a, b, params)
                target = 1.0 if a is b else 0.0
                tol = 1e-10 if a is b else 1e-9
                assert abs(got - target) < tol


def test_level2_orthonormal():
    params = DeformationParams(d=4, mu=(0.4, 0.1, 0.3, 0.0))
    family = [
        AngularState(two_ell=(1, v, 0), parity=(1, -1, 1, 1))
        for v in (0, 2, 4)
    ]
    for a in family:
        for b in family:
            got = angular_inner_product(2, a, b, params)
            target = 1.0 if a is b else 0.0
            tol = 1e-10 if a is b else 1e-9
            assert abs(got - target) < tol


def _admissible(d, max_two_ell):
    """Every admissible state of dimension d with each 2 l_j <= max_two_ell."""
    out = []
    for two_ell in itertools.product(range(max_two_ell + 1), repeat=d - 1):
        for parity in itertools.product((1, -1), repeat=d):
            try:
                out.append(AngularState(two_ell, parity))
            except InvalidStateError:
                pass
    return out


_MU4 = DeformationParams(d=4, mu=(0.4, -0.3, 0.7, 0.2))


def _state_id(state):
    return "l{}s{}".format("".join(map(str, state.two_ell)),
                           "".join("+-"[s < 0] for s in state.parity.s))


@pytest.mark.parametrize("state", _admissible(4, 3), ids=_state_id)
def test_theta_eigenfunction_unit_norm_deformed(state):
    # each level integrates to one against its measure, the d-dimensional
    # Dunkl weight prod |x_i|^(2 mu_i) times the Jacobian's sin^(j-1) t_j:
    # |cos t|^(2 mu_1) |sin t|^(2 mu_2) on [0, 2pi) at level 1, and
    # sin^(j-1+2(mu_1+..+mu_j)) t |cos t|^(2 mu_(j+1)) on [0, pi] above.
    # Theta^2 is a polynomial in u = cos 2t (its prefactor powers are even
    # integers), so a Gauss-Jacobi rule in u for the measure alone,
    # independent of the package's own rule and exponents, is exact; each
    # quarter turn contributes the same.
    mu = _MU4.mu
    for j in range(1, 4):
        sin_p, cos_p, copies = ((2 * mu[1], 2 * mu[0], 4) if j == 1 else
                                (j - 1 + 2 * sum(mu[:j]), 2 * mu[j], 2))
        alpha, beta = (sin_p - 1.0) / 2.0, (cos_p - 1.0) / 2.0
        u, w = roots_jacobi(40, alpha, beta)
        theta = theta_eigenfunction(j, state, _MU4, np.arccos(u) / 2.0)
        norm = copies * 2.0 ** -(alpha + beta) / 4.0 * np.sum(w * theta ** 2)
        assert abs(norm - 1.0) < 1e-12, (j, norm)


def test_level1_norm_at_rounded_weight_sum_minus_one():
    # mu_1 + mu_2 = 0 puts the level-1 Jacobi exponents at a + b = -1 up to
    # rounding, where the recurrence's k = 1 term is 0/0
    s = AngularState.from_total(3, 0.0)
    params = DeformationParams(3, (0.2, -0.2, 0.0))
    assert abs(angular_inner_product(1, s, s, params) - 1.0) < 1e-13


def test_inner_product_rejects_mixed_sectors():
    params = DeformationParams(d=3, mu=(0.4, 0.2, 0.0))
    a = AngularState(two_ell=(0, 0), parity=(1, 1, 1))
    b = AngularState(two_ell=(1, 0), parity=(1, -1, 1))
    with pytest.raises(InvalidStateError):
        angular_inner_product(1, a, b, params)


@pytest.mark.parametrize("level", [0, 3])
def test_theta_eigenfunction_refuses_a_level_outside_the_tower(level):
    # d = 3 has levels 1 and 2
    with pytest.raises(DomainError, match=r"level must lie in \[1, 2\]"):
        theta_eigenfunction(level, AngularState.from_total(3, 0.0),
                            DeformationParams.uniform(3, 0.2), 0.5)


def test_inner_product_rejects_states_that_differ_below_the_level():
    params = DeformationParams.uniform(3, 0.2)
    a = AngularState(two_ell=(0, 2), parity=(1, 1, 1))
    b = AngularState(two_ell=(2, 2), parity=(1, 1, 1))
    with pytest.raises(InvalidStateError, match="differ below"):
        angular_inner_product(2, a, b, params)


def test_inner_product_out_of_range_fails_fast():
    # degree 400 Jacobi values at a = b = 299.5 overflow: no inf comes back
    s = AngularState(two_ell=(800,), parity=(1, 1))
    with pytest.raises(DomainError, match="double range"):
        angular_inner_product(1, s, s, DeformationParams(2, (300.0, 300.0)))
    # each norm is finite, their product is not: no 0 comes back for what
    # is the state's unit norm
    s = AngularState(two_ell=(400,), parity=(1, 1))
    with pytest.raises(DomainError, match="double range"):
        angular_inner_product(1, s, s, DeformationParams(2, (800.0, 800.0)))


@pytest.mark.parametrize("two_l, mu", [(1200, 600.0), (400, 4000.0)])
def test_theta_eigenfunction_out_of_range_fails_fast(two_l, mu):
    # the Jacobi values and the normalization leave double range: no NaN or
    # inf comes back, and no RuntimeWarning is raised on the way
    state = AngularState(two_ell=(two_l,), parity=(1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="double range"):
            theta_eigenfunction(1, state, DeformationParams(2, (mu, mu)),
                                np.linspace(0.1, 1.4, 5))


@pytest.mark.parametrize("axis", [0, 1])
def test_theta_eigenfunction_refuses_a_rounded_jacobi_parameter(axis):
    # mu_j = nextafter(-1/2, 0) is a valid coupling, but mu_j - 1/2 rounds
    # to -1.0, where the level-1 Jacobi weight is not integrable
    mu = [0.3, 0.3]
    mu[axis] = math.nextafter(-0.5, 0.0)
    state = AngularState.from_total(2, 0.0)
    with pytest.raises(InvalidStateError,
                       match=r"jacobi parameters out of range: \(.*-1\.0"):
        theta_eigenfunction(1, state, DeformationParams(2, tuple(mu)), 0.5)
