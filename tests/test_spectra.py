"""Tests for the closed-form bound states of the three radial problems."""

import dataclasses
import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad

from dunkl_spectra import (
    AngularState,
    Coulomb,
    DeformationParams,
    DomainError,
    InvalidStateError,
    Oscillator,
    Pseudoharmonic,
    bound_energy,
    coulomb_energy,
    coulomb_large_d_expansion,
    energy_1d,
    oscillator_energy,
    radial_solution,
    radial_wavefunction,
    reduced_density,
)
from dunkl_spectra.cartesian import _axis_record
from dunkl_spectra.specfun import build_quadrature, kummer_m
from dunkl_spectra.spectra import _box_radius


def _weight_exponent(params):
    return params.d - 1.0 + 2.0 * params.mu_sum


# ---------------------------------------------------------------------------
# harmonic well
# ---------------------------------------------------------------------------

def test_oscillator_energy_examples():
    params0 = DeformationParams.uniform(3, 0.0)
    st0 = AngularState.from_total(3, 0.0)
    npt.assert_allclose(oscillator_energy(0, st0, params0, 1.0), 1.5,
                        rtol=1e-14)
    params = DeformationParams.uniform(3, 0.4)
    st1 = AngularState.from_total(3, 1.0)
    npt.assert_allclose(oscillator_energy(1, st1, params, 1.0), 6.7,
                        rtol=1e-14)


def test_oscillator_ladder_spacing():
    for d in (2, 3, 5):
        params = DeformationParams.uniform(d, 0.4)
        for two_L in (0, 1, 3):
            st = AngularState.from_total(d, two_L / 2.0)
            for omega, hbar in [(1.0, 1.0), (0.7, 2.0), (2.5, 1.0)]:
                for n in range(6):
                    diff = (oscillator_energy(n + 1, st, params, omega, hbar)
                            - oscillator_energy(n, st, params, omega, hbar))
                    npt.assert_allclose(diff, 2.0 * hbar * omega, rtol=1e-14)


def test_oscillator_undeformed_reduction():
    # mu = 0 collapses to hbar w (2n + l + d/2) with l = 2L
    for d in (2, 3, 4, 6):
        params = DeformationParams.uniform(d, 0.0)
        for two_L in (0, 1, 2, 4):
            st = AngularState.from_total(d, two_L / 2.0)
            for n in range(4):
                ref = 1.0 * (2 * n + two_L + d / 2.0)
                assert oscillator_energy(n, st, params, 1.0) == ref


def test_oscillator_energy_monotone_in_d():
    values = []
    for d in range(3, 12):
        params = DeformationParams.uniform(d, 0.2)
        st = AngularState.from_total(d, 1.0)
        values.append(oscillator_energy(2, st, params, 1.0))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_oscillator_large_d_ratio():
    for d in (50, 200, 1000):
        params = DeformationParams.uniform(d, 0.0)
        st = AngularState.from_total(d, 0.5)
        ratio = oscillator_energy(1, st, params, 1.0) / (d / 2.0)
        assert abs(ratio - 1.0) < 8.0 / d


def test_oscillator_nodeless_ground_state():
    params = DeformationParams.uniform(3, 0.4)
    st = AngularState.from_total(3, 0.0)
    sol = radial_solution(Oscillator(1.0), 0, st, params)
    r = np.linspace(0.05, 6.0, 200)
    assert np.all(radial_wavefunction(sol, r) > 0.0)


def test_oscillator_first_excited_node():
    # M(-1, b, u) = 1 - u/b vanishes at u = b, i.e. r* = sqrt(b hbar/(m w))
    params = DeformationParams.uniform(3, 0.4)
    st = AngularState.from_total(3, 0.5)
    omega = 1.3
    sol = radial_solution(Oscillator(omega), 1, st, params)
    r_star = math.sqrt(sol.kummer_b / sol.decay_scale)
    eps = 1e-6
    lo = radial_wavefunction(sol, r_star - eps)
    hi = radial_wavefunction(sol, r_star + eps)
    assert lo * hi < 0.0
    assert abs(radial_wavefunction(sol, r_star)) < 1e-10
    inner = np.linspace(0.05, r_star - 0.05, 120)
    outer = np.linspace(r_star + 0.05, 3.0 * r_star, 120)
    assert len(set(np.sign(radial_wavefunction(sol, inner)))) == 1
    assert len(set(np.sign(radial_wavefunction(sol, outer)))) == 1


def test_oscillator_norm():
    for mu, two_L, n in [(0.0, 0, 0), (0.4, 1, 2), (-0.3, 2, 1)]:
        params = DeformationParams.uniform(3, mu)
        st = AngularState.from_total(3, two_L / 2.0)
        sol = radial_solution(Oscillator(1.0), n, st, params)
        c = _weight_exponent(params)
        total, err = quad(
            lambda r: radial_wavefunction(sol, r) ** 2 * r**c,
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# pseudoharmonic well
# ---------------------------------------------------------------------------

def test_pho_energy_reference_value():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    got = bound_energy(Pseudoharmonic(8.0, 1.0), 0, st, params)
    assert abs(got - 12.4603) < 1e-4
    npt.assert_allclose(got, 12.460362751475142, rtol=1e-14)


def test_pho_ladder_spacing():
    for D_e, r_e in [(8.0, 1.0), (2.0, 1.5), (5.0, 0.7)]:
        params = DeformationParams.uniform(3, 0.4)
        st = AngularState.from_total(3, 1.0)
        Omega = 2.0 * math.sqrt(D_e) / r_e
        for n in range(5):
            pot = Pseudoharmonic(D_e, r_e)
            diff = (bound_energy(pot, n + 1, st, params)
                    - bound_energy(pot, n, st, params))
            npt.assert_allclose(diff, 2.0 * Omega, rtol=1e-12)


def test_pho_shallow_well_oscillator_form():
    # for a very shallow well the shifted ladder collapses onto an
    # equally spaced oscillator-type spectrum in the frequency Omega
    D_e, r_e = 1e-8, 1.0
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    Omega = 2.0 * math.sqrt(D_e) / r_e
    s0 = params.mu_sum + params.d / 2.0
    base = math.sqrt(1.0 + s0 * (s0 - 2.0))
    for n in range(4):
        shifted = (bound_energy(Pseudoharmonic(D_e, r_e), n, st, params)
                   + 2.0 * D_e)
        npt.assert_allclose(shifted, Omega * (2 * n + 1 + base), rtol=1e-6)


def test_pho_norm_and_positivity():
    params = DeformationParams.uniform(4, 0.4)
    st = AngularState.from_total(4, 0.5)
    sol = radial_solution(Pseudoharmonic(8.0, 1.0), 1, st, params)
    c = _weight_exponent(params)
    total, err = quad(
        lambda r: radial_wavefunction(sol, r) ** 2 * r**c,
        0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
    assert abs(total - 1.0) < 1e-10
    assert sol.kummer_b > 0.0


def test_pho_parameter_validation():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        bound_energy(Pseudoharmonic(-1.0, 1.0), 0, st, params)
    with pytest.raises(DomainError):
        bound_energy(Pseudoharmonic(8.0, 0.0), 0, st, params)


# ---------------------------------------------------------------------------
# attractive 1/r problem
# ---------------------------------------------------------------------------

def test_coulomb_energy_examples():
    params0 = DeformationParams.uniform(3, 0.0)
    st0 = AngularState.from_total(3, 0.0)
    npt.assert_allclose(coulomb_energy(0, st0, params0, 1.0), -0.5,
                        rtol=1e-12)
    npt.assert_allclose(coulomb_energy(1, st0, params0, 1.0), -0.125,
                        rtol=1e-12)
    params = DeformationParams.uniform(3, 0.4)
    got = coulomb_energy(0, st0, params, 1.0)
    npt.assert_allclose(got, -0.5 / 2.2**2, rtol=1e-12)
    npt.assert_allclose(got, -0.10330578512396693, rtol=1e-14)


def test_coulomb_undeformed_reduction():
    for d in (2, 3, 5):
        params = DeformationParams.uniform(d, 0.0)
        for two_L in (0, 1, 2):
            st = AngularState.from_total(d, two_L / 2.0)
            for n in range(3):
                kappa = n + two_L + (d - 1) / 2.0
                assert coulomb_energy(n, st, params, 1.0) == -0.5 / kappa**2


def test_coulomb_no_bound_state():
    # a sufficiently negative coupling sum pushes the effective principal
    # number to zero or below; no normalizable state exists there
    params = DeformationParams(d=3, mu=(-0.4, -0.4, -0.4))
    st = AngularState.from_total(3, 0.0)
    # kappa = 0 + 0 - 1.2 + 1.0 < 0
    with pytest.raises(DomainError):
        coulomb_energy(0, st, params, 1.0)


def test_coulomb_hydrogen_ground_orbital():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    sol = radial_solution(Coulomb(1.0), 0, st, params)
    npt.assert_allclose(sol.decay_scale, 1.0, rtol=1e-12)
    r = np.linspace(0.1, 8.0, 40)
    ratio = radial_wavefunction(sol, r) * np.exp(r)
    npt.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_coulomb_first_excited_node():
    params = DeformationParams.uniform(3, 0.4)
    st = AngularState.from_total(3, 0.0)
    sol = radial_solution(Coulomb(1.0), 1, st, params)
    r_star = sol.kummer_b / (2.0 * sol.decay_scale)
    eps = 1e-7
    assert (radial_wavefunction(sol, r_star - eps)
            * radial_wavefunction(sol, r_star + eps)) < 0.0
    assert abs(radial_wavefunction(sol, r_star)) < 1e-12


def test_coulomb_norm():
    for mu, two_L, n in [(0.0, 0, 0), (0.4, 1, 1), (0.4, 0, 2)]:
        params = DeformationParams.uniform(3, mu)
        st = AngularState.from_total(3, two_L / 2.0)
        sol = radial_solution(Coulomb(1.0), n, st, params)
        c = _weight_exponent(params)
        total, err = quad(
            lambda r: radial_wavefunction(sol, r) ** 2 * r**c,
            0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert abs(total - 1.0) < 1e-10


def _virial_terms(rec, potential, mass):
    """<1> and the two sides of the virial identity for level rec.

    The r^-2 term, the angular barrier and the kinetic energy all scale as
    r^-2, so with V = shift + sum a_k r^k the virial theorem gives
    E - shift = sum_{k != -2} a_k (1 + k/2) <r^k>. Each moment is one
    Gauss-Laguerre rule in t = rho r^sigma, rho = (2/sigma) scale, where
    U^2 r^{c+k} dr = N^2 rho^-(g+1)/sigma t^g e^{-t} M(-n, b, t)^2 dt with
    g = alpha + k/sigma; M^2 has degree 2n, and n + 2 nodes are exact up
    to degree 2n + 3.
    """
    rho = 2.0 / rec.sigma * rec.scale

    def moment(k):
        g = rec.alpha + k / rec.sigma
        nodes, weights = build_quadrature(g, "exp_r", rec.n + 2)
        m = kummer_m(-rec.n, rec.b, nodes)
        return (rec.norm ** 2 * rho ** -(g + 1.0) / rec.sigma
                * float(np.sum(weights * m * m)))

    shift, terms = potential.well(mass)
    rhs = sum(a * (1.0 + k / 2.0) * moment(k) for a, k in terms if k != -2.0)
    return moment(0.0), rec.energy - shift, rhs


def _check_virial(rec, potential, mass):
    norm, lhs, rhs = _virial_terms(rec, potential, mass)
    assert abs(norm - 1.0) < 1e-11
    assert abs(lhs - rhs) < 1e-11 * abs(lhs)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_coulomb_virial_identity(n):
    # <V> = 2E for the undeformed attractive-1/r bound states
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    pot = Coulomb(1.0)
    _check_virial(radial_solution(pot, n, st, params), pot, 1.0)


def test_virial_identity_every_well():
    # seeded draws over all three wells, deformations and constants. The
    # pho well checked is the declared one that is solved (twice the r^2
    # coefficient of D_e (r/r_e - r_e/r)^2), so this does not settle which
    # well the paper means (ROADMAP.md, item 2)
    rng = np.random.default_rng(24)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        params = DeformationParams(d, tuple(rng.uniform(-0.45, 1.0, d)))
        st = AngularState.from_total(d, int(rng.integers(0, 5)) / 2.0)
        pot = (Oscillator(rng.uniform(0.2, 5.0)),
               Pseudoharmonic(rng.uniform(0.5, 50.0), rng.uniform(0.3, 3.0)),
               Coulomb(rng.uniform(0.2, 5.0)))[int(rng.integers(0, 3))]
        n = int(rng.integers(0, 13))
        hbar, mass = rng.uniform(0.3, 3.0, 2)
        _check_virial(radial_solution(pot, n, st, params, hbar, mass), pot,
                      mass)


def test_virial_identity_detects_energy_error():
    params = DeformationParams(4, (0.3, -0.2, 0.7, 0.1))
    st = AngularState.from_total(4, 1.5)
    for pot in (Oscillator(1.3), Pseudoharmonic(8.0, 1.2), Coulomb(0.9)):
        rec = radial_solution(pot, 5, st, params, 1.1, 0.8)
        _check_virial(rec, pot, 0.8)
        off = dataclasses.replace(rec, energy=rec.energy * (1.0 + 1e-9))
        with pytest.raises(AssertionError):
            _check_virial(off, pot, 0.8)


# ---------------------------------------------------------------------------
# large-d behaviour
# ---------------------------------------------------------------------------

def _one_axis_setup(d, mu):
    # coupling on one axis only, so the total stays fixed as d grows
    params = DeformationParams(d=d, mu=(mu,) + (0.0,) * (d - 1))
    state = AngularState.from_total(d, 0.0)
    return state, params


def test_large_d_leading_term():
    state, params = _one_axis_setup(30, 0.1)
    got = coulomb_large_d_expansion(0, state, params, 1.0, order=1)
    assert got == -2.0 / 30**2
    assert coulomb_large_d_expansion(0, state, params, 1.0, order=0) == 0.0


def test_large_d_accuracy_at_50():
    state, params = _one_axis_setup(50, 0.1)
    exact = coulomb_energy(0, state, params, 1.0)
    approx = coulomb_large_d_expansion(0, state, params, 1.0, order=2)
    assert abs(approx - exact) / abs(exact) < 0.01


def test_large_d_deviation_monotone():
    devs = []
    for d in (20, 40, 80, 160):
        state, params = _one_axis_setup(d, 0.1)
        exact = coulomb_energy(0, state, params, 1.0)
        approx = coulomb_large_d_expansion(0, state, params, 1.0, order=2)
        devs.append(abs(approx - exact) / abs(exact))
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_large_d_order_validation():
    state, params = _one_axis_setup(20, 0.1)
    with pytest.raises(DomainError):
        coulomb_large_d_expansion(0, state, params, 1.0, order=3)
    with pytest.raises(DomainError):
        coulomb_large_d_expansion(0, state, params, 1.0, order=-1)


# ---------------------------------------------------------------------------
# reduced densities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: radial_solution(
        Oscillator(1.0), 1, AngularState.from_total(3, 0.5),
        DeformationParams.uniform(3, 0.4)),
    lambda: radial_solution(
        Coulomb(1.0), 0, AngularState.from_total(3, 0.0),
        DeformationParams.uniform(3, 0.0)),
    lambda: radial_solution(
        Pseudoharmonic(8.0, 1.0), 0, AngularState.from_total(4, 0.0),
        DeformationParams.uniform(4, 0.2)),
])
def test_reduced_density_normalized(make):
    sol = make()
    total, err = quad(lambda r: reduced_density(sol, r), 0.0, np.inf,
                      epsabs=1e-11, epsrel=1e-11)
    assert abs(total - 1.0) < 1e-8
    r = np.linspace(1e-9, 10.0, 300)
    dens = reduced_density(sol, r)
    assert np.all(dens >= 0.0)
    assert reduced_density(sol, 1e-12) < 1e-20


# ---------------------------------------------------------------------------
# dispatch layer and level records
# ---------------------------------------------------------------------------

def test_bound_energy_dispatch():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    assert bound_energy(Oscillator(1.0), 0, st, params) == oscillator_energy(
        0, st, params, 1.0)
    assert bound_energy(Coulomb(1.0), 0, st, params) == coulomb_energy(
        0, st, params, 1.0)


def test_radial_solution_dispatch():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    for pot in (Oscillator(1.0), Coulomb(1.0), Pseudoharmonic(8.0, 1.0)):
        sol = radial_solution(pot, 1, st, params)
        assert sol.n == 1
        assert sol.kummer_a == -1.0
        assert sol.potential == pot


def test_potential_validation():
    with pytest.raises(DomainError):
        Oscillator(-1.0)
    with pytest.raises(DomainError):
        Coulomb(0.0)
    with pytest.raises(DomainError):
        Pseudoharmonic(8.0, -0.2)


def test_record_refuses_level_above_continuum():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    rec = radial_solution(Coulomb(1.0), 0, st, params)
    assert rec.energy == -0.5
    with pytest.raises(InvalidStateError,
                       match="coulomb bound states must lie below 0.0, got 0.5"):
        dataclasses.replace(rec, energy=0.5)
    lvl = radial_solution(Oscillator(1.0), 0, st, params)
    assert (lvl.energy, lvl.potential.tag) == (1.5, "oscillator")


def test_quantum_number_validation():
    params = DeformationParams.uniform(3, 0.0)
    st = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        oscillator_energy(-1, st, params, 1.0)
    with pytest.raises(InvalidStateError):
        oscillator_energy(0, AngularState.from_total(4, 0.0), params, 1.0)


def test_refused_coulomb_state_raises_package_error():
    # 4L + c <= 0 (d = 2, L = 0, mu_1 + mu_2 <= -1/2) leaves Kummer b <= 0
    # at n >= 1; the closed-form norm must refuse it before taking lgamma(b)
    st = AngularState.from_total(2, 0.0)
    for mu in ((-0.25, -0.25), (-0.3, -0.3)):
        params = DeformationParams(d=2, mu=mu)
        for n in (1, 3):
            with pytest.raises((DomainError, InvalidStateError)):
                radial_solution(Coulomb(1.0), n, st, params)


def test_every_entry_point_refuses_kummer_b_nonpositive():
    # the record itself refuses b <= 0, so the energies, the record, the
    # solution and the large-d series refuse the same 1/r levels; n = 0
    # has no positive effective principal number and stays a DomainError
    st = AngularState.from_total(2, 0.0)
    for mu in ((-0.3, -0.3), (-0.25, -0.25)):
        params = DeformationParams(d=2, mu=mu)
        for call in (lambda n: bound_energy(Coulomb(1.0), n, st, params),
                     lambda n: coulomb_energy(n, st, params, 1.0),
                     lambda n: radial_solution(Coulomb(1.0), n, st, params),
                     lambda n: coulomb_large_d_expansion(n, st, params, 1.0)):
            for n in (1, 3):
                with pytest.raises(InvalidStateError,
                                   match="b=.* must be positive"):
                    call(n)
            with pytest.raises(DomainError, match="principal number"):
                call(0)


def _mp_density(sol, r):
    """The reduced density of sol in 40-digit arithmetic, from each family's
    own closed form: N u^{p/2} e^{-u/2} M(-n, b, u) in u = scale r^2 with
    N^-2 = scale^{-(c+1)/2} n! Gamma(b)^2 / (2 Gamma(n+b)), or
    N r^p e^{-scale r} M(-n, b, 2 scale r) with
    N^-2 = (2 scale)^{-(b+1)} (2n+b) n! Gamma(b)^2 / Gamma(n+b)."""
    mp = mpmath
    with mp.workdps(40):
        n, c, p, b, s = (mp.mpf(x) for x in (sol.n, sol.c, sol.p, sol.b,
                                              sol.scale))
        gamma_part = mp.factorial(n) * mp.gamma(b) ** 2 / mp.gamma(n + b)
        out = []
        for x in r:
            x = mp.mpf(x)
            if sol.potential.tag == "coulomb":
                norm_sq = 1 / ((2 * s) ** -(b + 1) * (2 * n + b) * gamma_part)
                u = norm_sq * (x ** p * mp.exp(-s * x)
                               * mp.hyp1f1(-n, b, 2 * s * x)) ** 2
            else:
                norm_sq = 2 / (s ** (-(c + 1) / 2) * gamma_part)
                t = s * x * x
                u = norm_sq * (t ** (p / 2) * mp.exp(-t / 2)
                               * mp.hyp1f1(-n, b, t)) ** 2
            out.append(float(u * x ** c))
    return np.array(out)


@pytest.mark.parametrize("potential, d, mu, L", [
    (Oscillator(1.7), 3, (0.3, 0.3, 0.3), 1.0),
    (Pseudoharmonic(3.0, 1.4), 4, (0.3, -0.2, 0.5, 0.1), 0.0),
    (Coulomb(1.3), 3, (0.2, 0.2, 0.2), 1.0),
], ids=["oscillator", "pho", "coulomb"])
@pytest.mark.parametrize("n", [1, 8, 20])
def test_reduced_density_against_mpmath(potential, d, mu, L, n):
    # pointwise, with p != 0 in both families, against 40-digit closed forms
    sol = radial_solution(potential, n, AngularState.from_total(d, L),
                          DeformationParams(d=d, mu=mu), 1.2, 0.8)
    assert sol.p > 0.0
    r = np.linspace(sol.r_max / 400, sol.r_max, 400)
    want = _mp_density(sol, r)
    got = reduced_density(sol, r)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(want)


def test_reduced_density_where_u_squared_and_r_c_leave_double_range():
    # omega = 1e-100, d = 10: U^2 underflows and r^9 overflows at these radii,
    # while the density itself is an ordinary double
    sol = radial_solution(Oscillator(1e-100), 0, AngularState.from_total(10, 0.0),
                          DeformationParams.uniform(10, 0.0))
    r = np.array([1e49, 1e50, 2e50])
    want = _mp_density(sol, r)
    npt.assert_allclose(want, [8.3e-61, 3.1e-52, 7.8e-51], rtol=0.02)
    npt.assert_allclose(reduced_density(sol, r), want, rtol=1e-13)


def test_states_on_a_2d_grid_match_the_flat_grid():
    # n = 6 cancels in the Kummer sum, so part of the grid is redone widened
    sol = radial_solution(Oscillator(1.0), 6, AngularState.from_total(3, 0.0),
                          DeformationParams.uniform(3, 0.0))
    r = np.linspace(0.1, 6.0, 40)
    for fn in (radial_wavefunction, reduced_density):
        got = fn(sol, r.reshape(4, 10))
        assert got.shape == (4, 10)
        npt.assert_array_equal(got.reshape(-1), fn(sol, r))


# ---------------------------------------------------------------------------
# closed-form records and physical constants
# ---------------------------------------------------------------------------

def test_radial_solution_record_matches_energy():
    params = DeformationParams(d=4, mu=(0.3, -0.2, 0.5, 0.1))
    st = AngularState.from_total(4, 1.0)
    for pot in (Oscillator(1.7), Pseudoharmonic(3.0, 1.4), Coulomb(1.3)):
        for n in range(3):
            rec = radial_solution(pot, n, st, params, 1.2, 0.8)
            assert rec.energy == bound_energy(pot, n, st, params, 1.2, 0.8)
            assert (rec.n, rec.b, rec.scale) == (n, rec.kummer_b,
                                                 rec.decay_scale)
            assert rec.c == _weight_exponent(params)
            assert rec.leading_exponent == (
                rec.p / 2.0 if rec.sigma == 2.0 else rec.p)
            # U ~ r^p near the origin: p solves the indicial equation
            npt.assert_allclose(rec.p * (rec.p + rec.c - 1.0), rec.barrier,
                                rtol=1e-12)
            assert rec.r_max > 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_physical_constants_positive_and_finite(bad):
    params = DeformationParams.uniform(3, 0.2)
    st = AngularState.from_total(3, 0.5)
    for make in (Oscillator, Coulomb, lambda v: Pseudoharmonic(v, 1.0),
                 lambda v: Pseudoharmonic(8.0, v)):
        with pytest.raises(DomainError):
            make(bad)
    for pot in (Oscillator(1.0), Pseudoharmonic(8.0, 1.0), Coulomb(1.0)):
        for consts in ({"hbar": bad}, {"mass": bad}):
            with pytest.raises(DomainError):
                bound_energy(pot, 0, st, params, **consts)
            with pytest.raises(DomainError):
                radial_solution(pot, 0, st, params, **consts)
    with pytest.raises(DomainError):
        oscillator_energy(0, st, params, 1.0, hbar=bad)
    with pytest.raises(DomainError):
        coulomb_large_d_expansion(0, st, params, 1.0, hbar=bad)


# ---------------------------------------------------------------------------
# constants at the edges of double range
# ---------------------------------------------------------------------------

_P3, _S3 = DeformationParams.uniform(3, 0.0), AngularState.from_total(3, 0.0)


@pytest.mark.parametrize("potential, hbar", [
    (Oscillator(1e300), 1.0),     # m w^2 / 2 overflows
    (Coulomb(1e-170), 1.0),       # the energy underflows to -0.0
    (Coulomb(1e-160), 1.0),       # ... to a subnormal
    (Oscillator(1e-200), 1e-200),  # hbar w underflows
])
def test_constants_outside_double_range_fail_fast(potential, hbar):
    with pytest.raises(DomainError):
        bound_energy(potential, 0, _S3, _P3, hbar)


@pytest.mark.parametrize("potential", [Oscillator(1e-130), Coulomb(1e150)])
def test_norm_outside_double_range_fails_fast(potential):
    # at d = 10 the norm underflows to 0 (oscillator) or overflows (1/r)
    sol = radial_solution(potential, 0, AngularState.from_total(10, 0.0),
                          DeformationParams.uniform(10, 0.0))
    with pytest.raises(DomainError):
        sol.norm


@pytest.mark.parametrize("omega, d", [(1e-150, 5), (1.0, 400)])
def test_norm_in_log_form(omega, d):
    # n = 0, L = 0: N^2 = 2 omega^{d/2} / Gamma(d/2); omega^{-d/2} alone
    # overflows at omega = 1e-150, d = 5, and Gamma(d/2) at d = 400
    sol = radial_solution(Oscillator(omega), 0, AngularState.from_total(d, 0.0),
                          DeformationParams.uniform(d, 0.0))
    with mpmath.workdps(40):
        half = mpmath.mpf(d) / 2
        want = mpmath.sqrt(2 * mpmath.mpf(omega) ** half / mpmath.gamma(half))
    assert sol.norm == pytest.approx(float(want), rel=1e-12)


def test_underflowed_well_coefficient_fails_fast():
    # m w^2/2 = 5e-601 underflows to 0, which would make the record a free
    # particle; the energy 1.5e-300 alone is still in range
    for potential in (Oscillator(1e-300), Oscillator(1e-160)):
        with pytest.raises(DomainError, match="potential terms"):
            radial_solution(potential, 0, _S3, _P3)
    rec = radial_solution(Oscillator(1e-150), 0, _S3, _P3)
    assert rec.vterms[0][0] == pytest.approx(5e-301, rel=1e-12)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_box_rule_clears_the_density(sigma):
    # per dr the density r^{2p+c} e^-t M(-n, b, t)^2 of level n is, up to a
    # constant, t^g e^-t M(-n, b, t)^2 with g = b - 1/2 (sigma = 2, where
    # 2p + c = 2b - 1) or g = b (sigma = 1, where 2p + c = b). At the box it
    # is below e^-40 of its largest value on a grid over the classical
    # region, so of its peak.
    with mpmath.workdps(30):
        for n in (0, 3, 10, 30, 119):
            for b in (0.6, 1.5, 5.0, 20.0, 60.0):
                g = b - 0.5 if sigma == 2.0 else b

                def log_density(t):
                    t = mpmath.mpf(t)
                    return (g * mpmath.log(t) - t + 2 * mpmath.log(
                        abs(mpmath.hyp1f1(-n, b, t))))

                t_box = 2.0 / sigma * _box_radius(n, b, 1.0, sigma) ** sigma
                top = 4.0 * n + 2.0 * b + 10.0
                peak = max(log_density(top * (i + 0.5) / 150)
                           for i in range(150))
                assert log_density(t_box) - peak < -40.0, (n, b)


@pytest.mark.parametrize("potential", [
    Oscillator(0.7), Pseudoharmonic(3.0, 1.4), Coulomb(1.3)])
def test_box_is_the_rule_of_the_record(potential):
    # r_max is read from the record's own n, b, scale and sigma: t reaches
    # 1.5 (4n + 2b) + 50 there, whatever the constants
    params = DeformationParams(d=3, mu=(0.2, -0.3, 0.4))
    for n in (0, 5):
        rec = radial_solution(potential, n, AngularState.from_total(3, 1.0),
                              params, 1.2, 0.8)
        t = 2.0 / rec.sigma * rec.scale * rec.r_max ** rec.sigma
        npt.assert_allclose(t, 1.5 * (4.0 * n + 2.0 * rec.b) + 50.0,
                            rtol=1e-13)


# ---------------------------------------------------------------------------
# one derivation per family, against the level formulas written out
# ---------------------------------------------------------------------------

def test_branch_rule_at_d2_negative_coupling_sum():
    # c = 1 + 2 (mu_1 + mu_2) = 0.2 and L = 0: the indicial roots are 0 and
    # 1 - c = 0.8, both square-integrable. Oscillator and 1/r keep p = 0,
    # the Cartesian branch; the r^-2 term of Pseudoharmonic takes the larger
    # root, which tends to 1 - c as D_e r_e^2 -> 0.
    params = DeformationParams(2, (-0.3, -0.1))
    state = AngularState.from_total(2, 0.0)
    for potential in (Oscillator(1.3), Coulomb(0.7)):
        assert radial_solution(potential, 0, state, params).p == 0.0
    for D_e, want in ((2.0, None), (1e-9, 0.8)):
        rec = radial_solution(Pseudoharmonic(D_e, 1.0), 0, state, params)
        npt.assert_allclose(rec.p * (rec.p + rec.c - 1.0), rec.barrier,
                            rtol=1e-12, atol=1e-15)
        assert rec.p > 1.0 - rec.c
        if want is not None:
            assert rec.p == pytest.approx(want, rel=1e-8)


def _level_formulas(n, d, S, L, mu, omega, D_e, r_e, e2, hbar, m):
    """The paper's levels, written out: (potential tag or axis parity) ->
    energy, p, b and scale, with S = sum mu, L the total angular number and
    mu the coupling of the Cartesian axis. Pseudoharmonic is the well solved,
    2 D_e r^2/r_e^2 - 2 D_e + D_e r_e^2/r^2. Evaluated in mpmath."""
    sqrt = mpmath.sqrt
    c = d - 1 + 2 * S
    w_sq = 4 * L * (L + S + (d - 2) / mpmath.mpf(2))
    s0 = S + d / mpmath.mpf(2)
    rad = 1 + s0 * (s0 - 2) + w_sq + 2 * D_e * m * r_e ** 2 / hbar ** 2
    delta_sq = w_sq + 2 * m * D_e * r_e ** 2 / hbar ** 2
    p = ((1 - c) + sqrt((c - 1) ** 2 + 4 * delta_sq)) / 2
    kappa = n + 2 * L + S + (d - 1) / mpmath.mpf(2)
    energy = -(m * e2 ** 2 / (2 * hbar ** 2)) / kappa ** 2
    out = {
        "oscillator": (2 * hbar * omega * (n + L + (d + 2 * S) / 4), 2 * L,
                       (d + 2 * S) / 2 + 2 * L, m * omega / hbar),
        "pho": (-2 * D_e + 4 * hbar * sqrt(D_e / (m * r_e ** 2))
                * (n + 0.5 + sqrt(rad) / 2), p, (c + 1) / 2 + p,
                m * 2 * sqrt(D_e / m) / r_e / hbar),
        "coulomb": (energy, 2 * L, 4 * L + 2 * S + d - 1,
                    sqrt(-2 * m * energy) / hbar) if kappa > 0 else None,
    }
    for s in (1, -1):
        out[s] = (hbar * omega * (2 * n + mu + 1 - s / mpmath.mpf(2)),
                  (1 - s) / mpmath.mpf(2), mu + 1 - s / mpmath.mpf(2),
                  m * omega / hbar)
    return out


def test_records_match_the_level_formulas():
    # every derived record, the Cartesian axes included, lies within 8 ulp
    # of the formula evaluated exactly from the same double inputs
    rng = np.random.default_rng(20260521)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 9))
        params = DeformationParams(d, tuple(rng.uniform(-0.45, 1.0, d)))
        L = int(rng.integers(0, 7)) / 2.0
        state = AngularState.from_total(d, L)
        n = int(rng.integers(0, 31))
        omega, D_e, r_e, e2, hbar, mass = np.exp(rng.uniform(-2.0, 2.0, 6))
        mu = params.mu[0]
        with mpmath.workdps(40):
            want = _level_formulas(n, d, mpmath.mpf(params.mu_sum), L,
                                   mpmath.mpf(mu), *map(mpmath.mpf, (
                                       omega, D_e, r_e, e2, hbar, mass)))
        records = {s: _axis_record(n, mu, s, omega, hbar, mass)
                   for s in (1, -1)}
        for potential in (Oscillator(omega), Pseudoharmonic(D_e, r_e),
                          Coulomb(e2)):
            if want[potential.tag] is not None:
                records[potential.tag] = radial_solution(
                    potential, n, state, params, hbar, mass)
        assert set(records) == {key for key, v in want.items() if v}
        for key, rec in records.items():
            for got, value in zip((rec.energy, rec.p, rec.b, rec.scale),
                                  map(float, want[key])):
                worst = max(worst, abs(got - value) / math.ulp(value))
        for s in (1, -1):
            assert energy_1d(n, mu, s, omega, hbar) == _axis_record(
                n, mu, s, omega, hbar, 1.0).energy
    assert worst <= 8.0


@pytest.mark.parametrize("omega, hbar", [
    (1e155, 1.0),    # m w^2/2 overflows
    (1e-155, 1.0),   # m w^2/2 underflows to a subnormal
    (1e10, 1e300),   # the energy overflows
    (1e-10, 1e-300),  # the energy underflows to a subnormal
    (1e100, 1e-300),  # m w/hbar overflows
])
def test_energy_1d_refuses_what_the_radial_oscillator_refuses(omega, hbar):
    # the axis record refuses constants whose well, energy or scale leaves
    # double range, as the radial oscillator does; energy_1d used to return
    # a number (or inf, or a subnormal) for each of these
    with pytest.raises(DomainError):
        energy_1d(0, 0.2, 1, omega, hbar)
