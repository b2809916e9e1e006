"""Acceptance suite: one test per release criterion.

Each test carries an ``acceptance`` marker; the conftest hook prints a
one-line PASS/FAIL verdict per criterion at the end of the run.
"""

import itertools
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    AngularState,
    Coulomb,
    DeformationParams,
    DiscretizationConfig,
    Oscillator,
    PolarPoint,
    Pseudoharmonic,
    coulomb_energy,
    coulomb_large_d_expansion,
    kummer_m,
    laguerre,
    oscillator_energy,
    pho_energy,
    polar_to_cartesian,
    residual_check,
    wavefunction_1d,
)
from dunkl_spectra.cli import _FIGURES
from dunkl_spectra.core import reflect_cartesian
from dunkl_spectra.verify import (
    cartesian_1d_eigenvalues,
    oracle_report,
    orthogonality_matrix,
    radial_eigenvalues,
)


@pytest.mark.acceptance(num=1, label="hydrogen ladder exact, under 1 ms")
def test_criterion_1_hydrogen_recovery():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    coulomb_energy(0, state, params, 1.0)  # warm caches before timing
    t0 = time.perf_counter()
    got = [coulomb_energy(n, state, params, 1.0) for n in range(5)]
    elapsed = time.perf_counter() - t0
    ref = [-0.5 / (n + 1) ** 2 for n in range(5)]
    npt.assert_allclose(got, ref, rtol=1e-12)
    assert elapsed < 1e-3


@pytest.mark.acceptance(num=2, label="undeformed oscillator, 200-case sweep")
def test_criterion_2_undeformed_oscillator():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        two_L = int(rng.integers(0, 9))
        n = int(rng.integers(0, 13))
        omega = float(rng.uniform(0.2, 5.0))
        hbar = float(rng.uniform(0.2, 3.0))
        params = DeformationParams.uniform(d, 0.0)
        state = AngularState.from_total(d, two_L / 2.0)
        got = oscillator_energy(n, state, params, omega, hbar=hbar)
        ref = hbar * omega * (2.0 * n + two_L + d / 2.0)
        npt.assert_allclose(got, ref, rtol=1e-12)


@pytest.mark.acceptance(num=3, label="oscillator oracle sweep, 4 levels")
def test_criterion_3_oscillator_oracle_sweep():
    cfg = DiscretizationConfig(n_points=4000)  # richardson on by default
    t0 = time.perf_counter()
    for d, mu, two_L in itertools.product(
            (3, 4, 5), (-0.3, 0.0, 0.4), (0, 1, 2)):
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, two_L / 2.0)
        numeric = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 4)
        for n, num in enumerate(numeric):
            ref = oscillator_energy(n, state, params, 1.0)
            assert abs(num - ref) <= 1e-4 * abs(ref)
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.acceptance(num=4, label="attractive 1/r oracle sweep, 3 levels")
def test_criterion_4_coulomb_oracle_sweep():
    cfg = DiscretizationConfig(n_points=8000)  # auto box per level
    t0 = time.perf_counter()
    for d, mu, two_L in itertools.product(
            (3, 4, 5), (-0.3, 0.0, 0.4), (0, 1)):
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, two_L / 2.0)
        report = oracle_report(Coulomb(1.0), params, state, cfg, 3, 1e-3)
        assert report.passed, (d, mu, two_L, report.max_rel_err)
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.acceptance(num=5, label="shifted-minimum well vs oracle")
def test_criterion_5_pho_oracle_check():
    cfg = DiscretizationConfig()
    for De, d, mu in itertools.product((2.0, 8.0), (3, 4), (0.0, 0.4)):
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, 0.0)
        numeric = radial_eigenvalues(Pseudoharmonic(De, 1.0), params, state,
                                     cfg, 2)
        for n, num in enumerate(numeric):
            ref = pho_energy(n, state, params, De, 1.0)
            assert abs(num - ref) <= 1e-4 * abs(ref)
    # the deep-well reference point must come out of both routes
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    analytic = pho_energy(0, state, params, 8.0, 1.0)
    numeric = radial_eigenvalues(Pseudoharmonic(8.0, 1.0), params, state,
                                 cfg, 1)[0]
    assert abs(analytic - 12.4603) <= 1e-4
    assert abs(numeric - 12.4603) <= 1e-4


@pytest.mark.acceptance(num=6, label="single-axis parity spectra")
def test_criterion_6_cartesian_1d_spectra():
    cfg = DiscretizationConfig()
    for mu in (-0.3, 0.0, 0.4):
        for s in (1, -1):
            numeric = cartesian_1d_eigenvalues(mu, s, 1.0, cfg, 3)
            for n, num in enumerate(numeric):
                ref = 2.0 * n + mu + 1.0 - s / 2.0
                assert abs(num - ref) <= 1e-4 * abs(ref)


def _sectors_for(two_l):
    if two_l == 0:
        return [(1, 1)]
    if two_l % 2:
        return [(1, -1), (-1, 1)]
    return [(1, 1), (-1, -1)]


@pytest.mark.acceptance(num=7, label="first angular level eigen-check")
def test_criterion_7_angular_eigencheck():
    # the assembled state U(r) Theta_1(t_1) Theta_2(t_2) solves the full
    # d = 3 equation on a grid of the level-1 angle
    grid = np.linspace(0.17, np.pi / 2 - 0.11, 50)
    points = [polar_to_cartesian(PolarPoint(r=1.3, theta=(t, 1.0)))
              for t in grid]
    for mu in (-0.3, 0.0, 0.4):
        params = DeformationParams(d=3, mu=(mu, mu, 0.0))
        for two_l in (0, 1, 2, 3):
            for s1, s2 in _sectors_for(two_l):
                state = AngularState(two_ell=(two_l, 0), parity=(s1, s2, 1))
                assert residual_check(Oscillator(1.0), params, state, 0,
                                      points) < 1e-8


@pytest.mark.acceptance(num=8, label="identity suite")
def test_criterion_8_identity_suite():
    # confluent-series vs Laguerre-recurrence consistency
    xs = np.array([0.0, 0.3, 1.7, 5.0, 11.0, 30.0])
    for n in range(21):
        for alpha in (-0.4, 0.0, 0.5, 1.2):
            b = alpha + 1.0
            factor = math.exp(math.lgamma(n + 1) + math.lgamma(b)
                              - math.lgamma(b + n))
            lhs = kummer_m(-float(n), b, xs)
            rhs = factor * laguerre(n, alpha, xs)
            scale = np.maximum(np.abs(rhs), 1e-300)
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale)

    # Gram off-diagonals of the normalized radial families
    state = AngularState.from_total(3, 0.0)
    params = DeformationParams.uniform(3, 0.4)
    for pot in (Oscillator(1.0), Coulomb(1.0)):
        gram = orthogonality_matrix(pot, params, state, 5)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9

    # reflection action on a per-axis product state
    rng = np.random.default_rng(77)
    x = rng.uniform(0.2, 2.5, size=3)
    mus = (0.4, -0.3, 0.2)
    signs = (1, -1, -1)
    levels = (1, 2, 0)

    def psi(point):
        out = 1.0
        for j in range(3):
            out *= wavefunction_1d(levels[j], mus[j], signs[j], 1.0,
                                   float(point[j]))
        return out

    base = psi(x)
    for j in (1, 2, 3):
        flipped = psi(reflect_cartesian(x, j))
        assert abs(flipped - signs[j - 1] * base) <= 1e-12 * abs(base)


@pytest.mark.acceptance(num=9, label="figure-series properties")
def test_criterion_9_figure_properties():
    # trap levels: increasing in n along each curve, ordered by d across them
    for fid in ("1a", "1b"):
        _, rows, _, _ = _FIGURES[fid]()
        series = {}
        for row in rows:
            series.setdefault(row["d"], {})[row["n"]] = row["energy"]
        dims = sorted(series)
        for d in dims:
            energies = [series[d][n] for n in sorted(series[d])]
            assert all(b > a for a, b in zip(energies, energies[1:]))
        for n in sorted(series[dims[0]]):
            column = [series[d][n] for d in dims]
            assert all(b > a for a, b in zip(column, column[1:]))

    # level ratios: decaying in n, d-dependence dying out at large n
    for fid in ("3a", "3b"):
        _, rows, _, _ = _FIGURES[fid]()
        by_d, by_n = {}, {}
        for row in rows:
            by_d.setdefault(row["d"], {})[row["n"]] = abs(row["ratio"])
            by_n.setdefault(row["n"], []).append(abs(row["ratio"]))
        for d, curve in by_d.items():
            vals = [curve[n] for n in sorted(curve)]
            assert vals[0] == 1.0
            assert all(b < a for a, b in zip(vals, vals[1:]))
        gaps = [max(v) - min(v) for _, v in sorted(by_n.items())]
        peak = int(np.argmax(gaps))
        assert peak <= 3
        assert all(b < a for a, b in zip(gaps[peak:], gaps[peak + 1:]))

    # densities: nonnegative, unit mass, peak walking outward with coupling
    for fid in ("2a", "2b", "2c"):
        _, rows, _, _ = _FIGURES[fid]()
        peaks = {}
        for mu in (-0.4, 0.0, 0.4):
            pts = [(row["r"], row["rho"]) for row in rows
                   if row["mu_value"] == mu]
            r = np.array([p[0] for p in pts])
            rho = np.array([p[1] for p in pts])
            assert np.all(rho >= 0.0)
            assert abs(np.trapezoid(rho, r) - 1.0) < 1e-3
            peaks[mu] = r[int(np.argmax(rho))]
        assert peaks[-0.4] < peaks[0.0] < peaks[0.4]


@pytest.mark.acceptance(num=10, label="large-dimension asymptotics")
def test_criterion_10_large_d():
    # attractive 1/r: truncated series vs closed form, coupling on one axis
    # so the total coupling stays fixed while d grows
    for d, bound in ((50, 1e-2), (200, 1e-3)):
        params = DeformationParams(d=d, mu=(0.1,) + (0.0,) * (d - 1))
        state = AngularState.from_total(d, 0.0)
        exact = coulomb_energy(0, state, params, 1.0)
        approx = coulomb_large_d_expansion(0, state, params, 1.0, order=2)
        assert abs(approx - exact) / abs(exact) < bound

    # trap ground state approaches the d*hbar*omega/2 wall
    d = 100
    params = DeformationParams(d=d, mu=(0.1, 0.1, 0.1) + (0.0,) * (d - 3))
    state = AngularState.from_total(d, 0.0)
    ratio = oscillator_energy(0, state, params, 1.0) / (d / 2.0)
    assert abs(ratio - 1.0) < 0.02
