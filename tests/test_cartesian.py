"""Tests for the per-axis factorized solution."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    CartesianState,
    DeformationParams,
    DomainError,
    InvalidStateError,
    build_quadrature,
    energy_1d,
    total_energy,
    wavefunction_1d,
)
from dunkl_spectra.core import reflect_cartesian


# ---------------------------------------------------------------------------
# single-axis energies
# ---------------------------------------------------------------------------

def test_energy_1d_examples():
    npt.assert_allclose(energy_1d(0, 0.0, 1, 1.0), 0.5, rtol=1e-12)
    npt.assert_allclose(energy_1d(0, 0.4, 1, 1.0), 0.9, rtol=1e-12)
    npt.assert_allclose(energy_1d(1, 0.4, -1, 1.0), 3.9, rtol=1e-12)


def test_energy_1d_scaling():
    # linear in hbar and omega
    npt.assert_allclose(energy_1d(2, 0.1, 1, 3.0, hbar=2.0),
                        2.0 * 3.0 * (4.0 + 0.1 + 0.5), rtol=1e-14)


def test_energy_1d_domain_errors():
    with pytest.raises(DomainError):
        energy_1d(0, -0.5, 1, 1.0)
    with pytest.raises(DomainError):
        energy_1d(0, 0.1, 0, 1.0)
    with pytest.raises(DomainError):
        energy_1d(0, 0.1, 1, -1.0)
    with pytest.raises(DomainError):
        energy_1d(-1, 0.1, 1, 1.0)


def test_1d_constants_positive_and_finite():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            energy_1d(0, 0.1, 1, bad)
        with pytest.raises(DomainError):
            energy_1d(0, 0.1, 1, 1.0, hbar=bad)
        with pytest.raises(DomainError):
            wavefunction_1d(0, 0.1, 1, 1.0, 0.5, hbar=bad)
        with pytest.raises(DomainError):
            wavefunction_1d(0, 0.1, -1, 1.0, 0.5, mass=bad)


def test_fractional_quantum_numbers_rejected():
    with pytest.raises(DomainError):
        energy_1d(2.5, 0.0, 1, 1.0)
    with pytest.raises(DomainError):
        wavefunction_1d(1.5, 0.0, 1, 1.0, 0.5)
    with pytest.raises(InvalidStateError):
        CartesianState(n=(1.5, 0), parity=(1, 1))
    assert energy_1d(2.0, 0.0, 1, 1.0) == energy_1d(2, 0.0, 1, 1.0)
    assert CartesianState(n=(1.0, 0), parity=(1, 1)).n == (1, 0)


def test_1d_coupling_finite():
    with pytest.raises(DomainError):
        energy_1d(0, math.inf, 1, 1.0)
    with pytest.raises(DomainError):
        wavefunction_1d(0, math.inf, 1, 1.0, 0.5)


# ---------------------------------------------------------------------------
# total energy
# ---------------------------------------------------------------------------

def test_total_energy_ground_state_undeformed():
    state = CartesianState(n=(0, 0, 0), parity=(1, 1, 1))
    params = DeformationParams.uniform(3, 0.0)
    npt.assert_allclose(total_energy(state, params, 1.0), 1.5, rtol=1e-12)


def test_total_energy_deformed_example():
    state = CartesianState(n=(1, 0, 0), parity=(1, 1, -1))
    params = DeformationParams.uniform(3, 0.4)
    npt.assert_allclose(total_energy(state, params, 1.0), 5.7, rtol=1e-12)


def test_total_energy_minimized_at_all_even():
    # among the 8 parity sectors of the d = 3 ground multiplet, the all-even
    # one is lowest: each odd axis costs one extra hbar*omega
    params = DeformationParams.uniform(3, 0.4)
    energies = {}
    for parity in itertools.product((1, -1), repeat=3):
        state = CartesianState(n=(0, 0, 0), parity=parity)
        energies[parity] = total_energy(state, params, 1.0)
    best = min(energies, key=energies.get)
    assert best == (1, 1, 1)
    for parity, e in energies.items():
        flips = sum(1 for s in parity if s == -1)
        npt.assert_allclose(e, energies[(1, 1, 1)] + flips, rtol=1e-12)


def test_total_energy_additivity():
    rng = np.random.default_rng(20260819)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = tuple(int(v) for v in rng.integers(0, 6, size=d))
        parity = tuple(int(v) for v in rng.choice([-1, 1], size=d))
        mu = tuple(float(v) for v in rng.uniform(-0.4, 1.5, size=d))
        omega = float(rng.uniform(0.3, 3.0))
        state = CartesianState(n=n, parity=parity)
        params = DeformationParams(d=d, mu=mu)
        total = total_energy(state, params, omega)
        parts = sum(
            energy_1d(n[j], mu[j], parity[j], omega) for j in range(d)
        )
        assert abs(total - parts) < 1e-13 * max(1.0, abs(parts))


def test_total_energy_dimension_mismatch():
    state = CartesianState(n=(0, 0), parity=(1, 1))
    params = DeformationParams.uniform(3, 0.1)
    with pytest.raises(InvalidStateError):
        total_energy(state, params, 1.0)


def test_cartesian_state_validation():
    with pytest.raises(InvalidStateError):
        CartesianState(n=(-1, 0), parity=(1, 1))
    with pytest.raises(InvalidStateError):
        CartesianState(n=(0, 0, 0), parity=(1, 1))
    with pytest.raises(DomainError):
        CartesianState(n=(0, 0), parity=(1, 2))


# ---------------------------------------------------------------------------
# single-axis wavefunctions
# ---------------------------------------------------------------------------

def test_wavefunction_parity_action():
    xs = np.linspace(0.2, 2.4, 9)
    for s in (1, -1):
        for n in (0, 1, 3):
            f = lambda pt: wavefunction_1d(n, 0.4, s, 1.0, float(np.asarray(pt)[0]))
            for x in xs:
                flipped = f(reflect_cartesian([x], 1))
                direct = f([x])
                npt.assert_allclose(flipped, s * direct, atol=1e-12)


def test_wavefunction_even_sector_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(0, 4))
        assert wavefunction_1d(n, 0.7, 1, 1.0, x) == wavefunction_1d(
            n, 0.7, 1, 1.0, -x
        )


def test_wavefunction_odd_sector_vanishes_at_origin():
    for n in (0, 1, 2):
        assert wavefunction_1d(n, 0.4, -1, 1.0, 0.0) == 0.0


def test_wavefunction_mu_zero_reduces_to_hermite():
    # with no deformation the even/odd sectors interleave into the plain
    # harmonic oscillator ladder, N = 2n + (1 - s)/2
    xs = np.linspace(-2.5, 2.5, 11)
    herm = {
        0: lambda u: np.ones_like(u),
        1: lambda u: 2.0 * u,
        2: lambda u: 4.0 * u**2 - 2.0,
        3: lambda u: 8.0 * u**3 - 12.0 * u,
        4: lambda u: 16.0 * u**4 - 48.0 * u**2 + 12.0,
    }
    for n, s in [(0, 1), (0, -1), (1, 1), (1, -1), (2, 1)]:
        N = 2 * n + (1 - s) // 2
        ref = (
            herm[N](xs)
            * np.exp(-0.5 * xs * xs)
            / math.sqrt(math.sqrt(math.pi) * 2.0**N * math.factorial(N))
        )
        got = wavefunction_1d(n, 0.0, s, 1.0, xs)
        # overall sign is a convention; fix it at one point
        sign = math.copysign(1.0, got[7] * ref[7])
        npt.assert_allclose(sign * got, ref, atol=1e-12)


def _overlap(n, m, mu, s, npoints=40):
    # 2 * int_0^inf psi_n psi_m x^{2 mu} dx evaluated with the half-line rule
    # for x^gamma e^{-x^2}. The wavefunctions already carry e^{-x^2/2} and the
    # odd-sector x, so the integrand handed to the rule is psi_n psi_m times
    # e^{x^2} x^{s-1}, a pure polynomial in x^2.
    gamma = 2.0 * mu + 1.0 - s
    rule = build_quadrature(gamma, "exp_r2", npoints)
    vals = (
        wavefunction_1d(n, mu, s, 1.0, rule.nodes)
        * wavefunction_1d(m, mu, s, 1.0, rule.nodes)
        * np.exp(rule.nodes**2)
        * rule.nodes ** (s - 1.0)
    )
    return 2.0 * float(np.sum(rule.weights * vals))


@pytest.mark.parametrize("mu", [-0.3, 0.0, 0.4])
def test_wavefunction_orthonormal(mu):
    # same-parity overlaps against the weight |x|^{2 mu}; opposite-parity
    # overlaps vanish identically by symmetry of the integrand
    for s in (1, -1):
        for n in range(4):
            for m in range(4):
                got = _overlap(n, m, mu, s)
                target = 1.0 if n == m else 0.0
                tol = 1e-10 if n == m else 1e-9
                assert abs(got - target) < tol


def test_wavefunction_norm_independent_rule():
    # unit norm re-checked with a rule far larger than the constructor used
    for mu, s, n in [(0.4, 1, 2), (0.4, -1, 1), (-0.3, 1, 0), (1.2, -1, 3)]:
        assert abs(_overlap(n, n, mu, s, npoints=48) - 1.0) < 1e-10


def test_wavefunction_shape_and_scaling():
    xs = np.linspace(-1.0, 1.0, 7)
    out = wavefunction_1d(0, 0.2, 1, 1.0, xs)
    assert out.shape == xs.shape
    # mass and omega enter only through m w / hbar and the normalization
    a = wavefunction_1d(0, 0.2, 1, 2.0, 0.7, hbar=1.0, mass=1.0)
    b = wavefunction_1d(0, 0.2, 1, 1.0, 0.7, hbar=0.5, mass=1.0)
    npt.assert_allclose(a, b, rtol=1e-12)
