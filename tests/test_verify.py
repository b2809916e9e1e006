"""Tests for the independent grid-based eigenvalue oracle."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    AngularState,
    Coulomb,
    DeformationParams,
    DiscretizationConfig,
    DomainError,
    OracleReport,
    Oscillator,
    Pseudoharmonic,
    TailLeakWarning,
    cartesian_1d_eigenvalues,
    coulomb_energy,
    energy_1d,
    oracle_report,
    orthogonality_matrix,
    oscillator_energy,
    pho_energy,
    radial_eigenvalues,
    residual_check,
)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        DiscretizationConfig(n_points=99)
    with pytest.raises(DomainError):
        DiscretizationConfig(r_max=-2.0)
    with pytest.raises(DomainError):
        DiscretizationConfig(boundary="neumann_at_rmax")
    cfg = DiscretizationConfig()
    assert cfg.r_max is None
    assert cfg.n_points == 4000
    assert cfg.richardson


def test_config_rejects_non_finite_box():
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            DiscretizationConfig(r_max=bad)


def test_level_count_validation():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        radial_eigenvalues(Oscillator(1.0), params, state,
                           DiscretizationConfig(), 0)


# ---------------------------------------------------------------------------
# radial eigenvalues against closed forms
# ---------------------------------------------------------------------------

def test_oscillator_textbook_levels():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    got = radial_eigenvalues(Oscillator(1.0), params, state,
                             DiscretizationConfig(), 3)
    npt.assert_allclose(got, [1.5, 3.5, 5.5], atol=1e-5)


def test_hydrogen_levels():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    cfg = DiscretizationConfig(n_points=8000)
    got = [radial_eigenvalues(Coulomb(1.0), params, state, cfg, n + 1)[n]
           for n in range(2)]
    npt.assert_allclose(got, [-0.5, -0.125], rtol=1e-4)


def test_deformed_oscillator_levels():
    params = DeformationParams.uniform(4, 0.4)
    state = AngularState.from_total(4, 1.0)
    cfg = DiscretizationConfig(r_max=12.0, n_points=4000)
    got = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 3)
    ref = [oscillator_energy(n, state, params, 1.0) for n in range(3)]
    npt.assert_allclose(got, ref, rtol=1e-4)


def test_pho_levels():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    got = radial_eigenvalues(Pseudoharmonic(8.0, 1.0), params, state,
                             DiscretizationConfig(), 2)
    ref = [pho_energy(n, state, params, 8.0, 1.0) for n in range(2)]
    npt.assert_allclose(got, ref, rtol=1e-4)


def test_single_axis_levels():
    cfg = DiscretizationConfig()
    got = cartesian_1d_eigenvalues(0.0, 1, 1.0, cfg, 3)
    npt.assert_allclose(got, [0.5, 2.5, 4.5], atol=1e-5)
    for s in (1, -1):
        got = cartesian_1d_eigenvalues(0.4, s, 1.0, cfg, 3)
        ref = [energy_1d(n, 0.4, s, 1.0) for n in range(3)]
        npt.assert_allclose(got, ref, rtol=1e-4)


def test_single_axis_validation():
    cfg = DiscretizationConfig()
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(-0.6, 1, 1.0, cfg, 2)
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(0.4, 2, 1.0, cfg, 2)
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(0.4, 1, -1.0, cfg, 2)


def test_negative_coupling_sector():
    cfg = DiscretizationConfig()
    for s in (1, -1):
        got = cartesian_1d_eigenvalues(-0.3, s, 1.0, cfg, 3)
        ref = [energy_1d(n, -0.3, s, 1.0) for n in range(3)]
        npt.assert_allclose(got, ref, rtol=1e-4)


# ---------------------------------------------------------------------------
# grid convergence order
# ---------------------------------------------------------------------------

def test_second_order_convergence():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    ref = oscillator_energy(0, state, params, 1.0)
    errs = []
    for n in (500, 1000):
        cfg = DiscretizationConfig(r_max=12.0, n_points=n, richardson=False)
        got = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 1)[0]
        errs.append(abs(got - ref))
    order = math.log2(errs[0] / errs[1])
    assert 1.7 < order < 2.3


def test_richardson_improves_plain_grid():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    ref = oscillator_energy(0, state, params, 1.0)
    plain = radial_eigenvalues(
        Oscillator(1.0), params, state,
        DiscretizationConfig(r_max=10.0, n_points=800, richardson=False), 1)[0]
    extr = radial_eigenvalues(
        Oscillator(1.0), params, state,
        DiscretizationConfig(r_max=10.0, n_points=800, richardson=True), 1)[0]
    assert abs(extr - ref) < abs(plain - ref) / 10.0


def test_tail_leak_warning():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    cfg = DiscretizationConfig(r_max=2.5, n_points=400)
    with pytest.warns(TailLeakWarning):
        radial_eigenvalues(Oscillator(1.0), params, state, cfg, 2)


# ---------------------------------------------------------------------------
# residuals of the closed-form states
# ---------------------------------------------------------------------------

GRID = np.linspace(0.3, 4.0, 25)


def test_residual_oscillator():
    for d, mu in [(3, 0.0), (3, 0.4), (5, 0.2)]:
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, 0.0)
        res = residual_check(Oscillator(1.0), params, state, 0, GRID)
        assert res < 1e-6


def test_residual_hydrogen_1s():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    res = residual_check(Coulomb(1.0), params, state, 0, GRID)
    assert res < 1e-6


def test_residual_pho():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    res = residual_check(Pseudoharmonic(8.0, 1.0), params, state, 0, GRID)
    assert res < 1e-5


def test_residual_excited_states():
    params = DeformationParams.uniform(4, 0.4)
    state = AngularState.from_total(4, 1.0)
    assert residual_check(Oscillator(1.0), params, state, 2, GRID) < 1e-6
    assert residual_check(Coulomb(1.0), params, state, 1, GRID) < 1e-6


def test_residual_grid_guard():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        residual_check(Oscillator(1.0), params, state, 0,
                       np.linspace(0.0, 2.0, 10))


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------

def test_gram_oscillator_deformed():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    gram = orthogonality_matrix(Oscillator(1.0), params, state, 5)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9
    npt.assert_allclose(np.diag(gram), 1.0, atol=1e-10)


def test_gram_coulomb():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    gram = orthogonality_matrix(Coulomb(1.0), params, state, 4)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9
    npt.assert_allclose(np.diag(gram), 1.0, atol=1e-10)


def test_gram_undeformed_is_classical():
    # mu = 0 reduces to textbook Laguerre orthogonality; the Gram matrix
    # must be just as clean there
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 1.0)
    gram = orthogonality_matrix(Oscillator(1.0), params, state, 4)
    npt.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_gram_validation():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        orthogonality_matrix(Oscillator(1.0), params, state, 0)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_oracle_report_roundtrip():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(), 3, tolerance=1e-4)
    assert isinstance(rep, OracleReport)
    assert rep.passed
    assert rep.potential == "oscillator"
    assert len(rep.analytic) == len(rep.numeric) == 3
    assert rep.max_rel_err < 1e-4
    assert isinstance(rep.passed, bool)
    assert isinstance(rep.max_rel_err, float)
    doc = rep.to_dict()
    assert doc["potential"] == "oscillator"
    assert doc["passed"] is True
    assert doc["levels"] == [0, 1, 2]
    assert len(doc["analytic"]) == len(doc["numeric"]) == 3
    assert len(doc["rel_err"]) == len(doc["abs_err"]) == 3
    assert doc["grid"]["n_points"] == 4000


def test_oracle_report_coulomb_per_level_boxes():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Coulomb(1.0), params, state,
                        DiscretizationConfig(n_points=2000), 3,
                        tolerance=1e-3)
    assert rep.passed
    ref = [coulomb_energy(n, state, params, 1.0) for n in range(3)]
    npt.assert_allclose(rep.analytic, ref, rtol=1e-12)
    npt.assert_allclose(rep.numeric, ref, rtol=1e-3)


def test_oracle_report_failure_flag():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(n_points=150, richardson=False),
                        2, tolerance=1e-9)
    assert not rep.passed
    assert rep.max_rel_err > 1e-9


def test_oracle_report_records_box_used():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    cfg = DiscretizationConfig(n_points=400)
    rep = oracle_report(Oscillator(1.0), params, state, cfg, 3, 1e-3)
    box = DiscretizationConfig(r_max=rep.grid["r_max"], n_points=400)
    assert tuple(float(v) for v in radial_eigenvalues(
        Oscillator(1.0), params, state, box, 3)) == rep.numeric
    # the 1/r levels each get their own box
    rep = oracle_report(Coulomb(1.0), params, state, cfg, 3, 1e-2)
    assert len(rep.grid["r_max"]) == 3
    for n, r_max in enumerate(rep.grid["r_max"]):
        box = DiscretizationConfig(r_max=r_max, n_points=400)
        assert radial_eigenvalues(Coulomb(1.0), params, state, box,
                                  n + 1)[n] == rep.numeric[n]
    rep = oracle_report(Coulomb(1.0), params, state, box, 2, 1e-2)
    assert rep.grid["r_max"] == box.r_max


def test_oracle_report_needs_a_level():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    for pot in (Oscillator(1.0), Coulomb(1.0)):
        with pytest.raises(DomainError):
            oracle_report(pot, params, state, DiscretizationConfig(), 0, 1e-3)


def test_cartesian_oracle_rejects_bad_constants():
    cfg = DiscretizationConfig(n_points=200)
    for bad in (0.0, -1.0, math.inf, math.nan):
        for omega, hbar, mass in ((bad, 1.0, 1.0), (1.0, bad, 1.0),
                                  (1.0, 1.0, bad)):
            with pytest.raises(DomainError):
                cartesian_1d_eigenvalues(0.2, 1, omega, cfg, 2, hbar, mass)
