"""Tests for the independent grid-based eigenvalue oracle."""

import dataclasses
import logging
import math
import warnings

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import eigh_tridiagonal

from dunkl_spectra import (
    AngularState,
    ConvergenceError,
    Coulomb,
    DeformationParams,
    DiscretizationConfig,
    DomainError,
    InvalidStateError,
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
from dunkl_spectra import verify
from dunkl_spectra.verify import _p1_matrix, _refine


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        DiscretizationConfig(n_points=99)
    with pytest.raises(DomainError):
        DiscretizationConfig(r_max=-2.0)
    cfg = DiscretizationConfig()
    assert cfg.r_max is None
    assert cfg.n_points == 4000
    assert cfg.richardson


def test_config_rejects_fractional_grid():
    with pytest.raises(DomainError):
        DiscretizationConfig(n_points=400.5)
    cfg = DiscretizationConfig(r_max=10.0, n_points=400.0, richardson=False)
    assert type(cfg.n_points) is int
    params = DeformationParams.uniform(3, 0.2)
    state = AngularState.from_total(3, 0.0)
    vals = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 2)
    assert vals.shape == (2,)


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


def test_level_count_must_be_a_number():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        radial_eigenvalues(Oscillator(1.0), params, state,
                           DiscretizationConfig(), "2")


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


def test_single_axis_level_count_validation():
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(0.4, 1, 1.0, DiscretizationConfig(), 0)


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


def test_gram_pseudoharmonic():
    # non-integer leading power p, so the integrand's power of r is too
    params = DeformationParams.uniform(3, 0.3)
    state = AngularState.from_total(3, 1.0)
    gram = orthogonality_matrix(Pseudoharmonic(2.0, 1.1), params, state, 8)
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


def test_oracle_report_overflowing_cells_fail_fast():
    # q = 95 on the automatic boxes (~2.7e4): r^(q+1) overflows double
    params = DeformationParams.uniform(12, 3.0)
    state = AngularState.from_total(12, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ConvergenceError, match=r"q=95 .*r_max=27075"):
            oracle_report(Coulomb(1.0), params, state,
                          DiscretizationConfig(n_points=400), 2, 1e-2)
    assert not [w for w in caught if w.category is RuntimeWarning]


# ---------------------------------------------------------------------------
# level counts
# ---------------------------------------------------------------------------

def test_gram_rejects_fractional_count():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        orthogonality_matrix(Oscillator(1.0), params, state, 2.5)


def test_oracle_report_rejects_fractional_count():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.raises(DomainError):
        oracle_report(Oscillator(1.0), params, state, DiscretizationConfig(),
                      2.5, 1e-3)


def test_single_axis_rejects_fractional_count():
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(0.4, 1, 1.0, DiscretizationConfig(), 1.5)


# ---------------------------------------------------------------------------
# assembly and the two-grid eigensolve
# ---------------------------------------------------------------------------

def _per_element_matrix(q, vterms, r_max, n, scale):
    """The tridiagonal form with every element's stiffness and hat moments
    taken from that element's own endpoints, in 40-digit arithmetic."""
    with mp.workdps(40):
        h = mp.mpf(r_max) / n
        edges = [k * h for k in range(n + 1)]

        def moments(a):
            # per element (lo, hi): r^a against the hats of lo and of hi,
            # and r^a alone; summed per vertex
            a = mp.mpf(a)
            p1 = [e ** (a + 1) / (a + 1) for e in edges]
            p2 = [e ** (a + 2) / (a + 2) for e in edges]
            lo_hat, hi_hat, plain = [], [], []
            for k in range(n):
                i0, i1 = p1[k + 1] - p1[k], p2[k + 1] - p2[k]
                lo_hat.append((edges[k + 1] * i0 - i1) / h)
                hi_hat.append((i1 - edges[k] * i0) / h)
                plain.append(i0)
            return [lo_hat[0]] + [lo_hat[i] + hi_hat[i - 1]
                                  for i in range(1, n)], plain

        mass, plain = moments(q)
        load = [0] * n
        for coeff, power in vterms:
            load = [v + coeff * m for v, m in zip(load, moments(q + power)[0])]
        stiff = [w / h ** 2 for w in plain]
        diag = [(stiff[i] + (stiff[i - 1] if i else 0) + scale * load[i])
                / mass[i] for i in range(n)]
        off = [-stiff[i] / mp.sqrt(mass[i] * mass[i + 1])
               for i in range(n - 1)]
        return tuple(np.array([float(v) for v in arr]) for arr in
                     (diag, off, [mp.sqrt(m) for m in mass], edges[:-1]))


@pytest.mark.parametrize("q, vterms", [
    (1.0, [(0.5, 2.0)]),
    (-0.8, [(0.5, 2.0)]),
    (0.3, [(-1.0, -1.0)]),
    (2.4, [(0.7, 2.0), (-4.0, 0.0)]),
    (28.6, [(0.5, 2.0)]),
])
def test_shared_powers_match_per_cell_formulas(q, vterms):
    # the shared-power closed forms do not cancel for vertices far from the
    # origin: every entry agrees with the exact per-element moments to a
    # few tens of roundoffs
    for r_max, n in ((12.0, 400), (37.3, 1234)):
        got = _p1_matrix(q, vterms, r_max, n, 2.0)
        want = _per_element_matrix(q, vterms, r_max, n, 2.0)
        for g, w in zip(got, want):
            npt.assert_allclose(g, w, rtol=1e-14, atol=0.0)


def _index_bisection(potential, params, state, cfg, k):
    """Richardson values with both grids bisected at each level's index."""
    rec = potential.radial_problem(k - 1, state, params, 1.0, 1.0)
    r_max = rec.r_max if cfg.r_max is None else cfg.r_max
    grids = []
    for n in (cfg.n_points, 2 * cfg.n_points):
        diag, off, _, _ = _p1_matrix(rec.c + 2.0 * rec.p, rec.vterms, r_max,
                                     n, 2.0)
        grids.append(np.array([
            eigh_tridiagonal(diag, off, select="i", select_range=(j, j),
                             eigvals_only=True)[0] for j in range(k)]) / 2.0)
    coarse, fine = grids
    return (4.0 * fine - coarse) / 3.0 + rec.shift


@pytest.mark.parametrize("potential, r_max", [
    (Oscillator(1.0), 12.0), (Pseudoharmonic(8.0, 1.0), 12.0),
    (Coulomb(1.0), 500.0)])
def test_level_value_independent_of_level_count(potential, r_max):
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    cfg = DiscretizationConfig(r_max=r_max, n_points=400)
    runs = [radial_eigenvalues(potential, params, state, cfg, k)
            for k in range(1, 5)]
    for j in range(4):
        assert len({float(vals[j]) for vals in runs[j:]}) == 1


def test_single_axis_level_independent_of_level_count():
    cfg = DiscretizationConfig(r_max=9.0, n_points=400)
    for s in (1, -1):
        runs = [cartesian_1d_eigenvalues(0.4, s, 1.0, cfg, k)
                for k in range(1, 5)]
        for j in range(4):
            assert len({float(vals[j]) for vals in runs[j:]}) == 1


def test_refined_levels_match_index_bisection():
    rng = np.random.default_rng(20010117)
    potentials = (Oscillator(1.0), Pseudoharmonic(5.0, 1.2), Coulomb(1.0))
    cfg = DiscretizationConfig(n_points=500)
    for case in range(12):
        potential = potentials[case % 3]
        d = int(rng.integers(2, 13))
        params = DeformationParams.uniform(d, float(rng.uniform(-0.4, 1.0)))
        state = AngularState.from_total(d, float(rng.integers(0, 3)))
        coarse, fine = [], []
        got = radial_eigenvalues(potential, params, state, cfg, 3,
                                 coarse_solve=coarse, fine_solve=fine)
        want = _index_bisection(potential, params, state, cfg, 3)
        assert len(coarse) == len(fine) == 3
        for g, w, c, f in zip(got, want, coarse, fine):
            if c == f == "bisection":
                assert g == w
            else:
                assert abs(g - w) <= 1e-9 * abs(w)


def test_refinement_refuses_a_neighbour_in_its_window():
    # eigenvalues 1, 1 + 1e-10, 4, 6, 9: the iteration from the vector of
    # index 0 converges at once to 1, which lies within the window of
    # index 1 but is not its eigenvalue; for index 0 the window holds two
    diag = np.array([1.0, 1.0 + 1e-10, 4.0, 6.0, 9.0])
    off = np.zeros(4)
    start = np.eye(5)[0]
    values, how, _ = _refine(diag, off, range(1, 2), [start], 1.0)
    assert how == ["bisection"]
    assert values[0] == eigh_tridiagonal(diag, off, select="i",
                                         select_range=(1, 1),
                                         eigvals_only=True)[0]
    assert _refine(diag, off, range(0, 1), [start], 1.0)[1] == ["bisection"]
    diag[1] = 2.0
    values, how, _ = _refine(diag, off, range(0, 1), [start], 1.0)
    assert how == ["rqi"] and values[0] == 1.0


def test_smooth_case_refines_every_level():
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(), 4, 1e-4)
    assert rep.grid["fine_solve"] == ["rqi"] * 4
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(n_points=400, richardson=False),
                        2, 1e-2)
    assert rep.grid["fine_solve"] is None


def test_large_weight_exponent_refines_on_both_rungs():
    # q = c + 2p = 28.6: the cell-centred scheme's first cell decoupled into
    # a spurious low level here; the origin hat of the P1 scheme lies above
    # the spectrum, so every level refines on both rungs
    params = DeformationParams.uniform(12, 0.4)
    state = AngularState.from_total(12, 2.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(), 4, 1e-4)
    assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * 4
    assert rep.max_rel_err < 1e-8


def test_rejected_coarse_rung_falls_back_to_index_bisection(monkeypatch,
                                                             caplog):
    # the iteration fails on the n_points rung only, so each level's value
    # there is its index bisection, logged with the grid it was rejected on
    cfg = DiscretizationConfig(n_points=1600, richardson=False)
    rqi = verify._rqi
    monkeypatch.setattr(verify, "_rqi", lambda diag, off, x, tol: (
        None if len(diag) == cfg.n_points else rqi(diag, off, x, tol)))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    with caplog.at_level(logging.DEBUG, logger="dunkl_spectra"):
        rep = oracle_report(Oscillator(1.0), params, state, cfg, 3, 1e-3)
    assert rep.grid["coarse_solve"] == ["bisection"] * 3
    rec = Oscillator(1.0).radial_problem(2, state, params)
    diag, off, _, _ = _p1_matrix(rec.c + 2.0 * rec.p, rec.vterms, rec.r_max,
                                 cfg.n_points, 2.0)
    for j, got in enumerate(rep.numeric):
        want = eigh_tridiagonal(diag, off, select="i", select_range=(j, j),
                                eigvals_only=True)[0]
        assert got == want / 2.0 + rec.shift
    records = [r for r in caplog.records if r.name == "dunkl_spectra"]
    assert len(records) == 3
    assert all(r.levelno == logging.DEBUG for r in records)
    for r in records:
        message = r.getMessage()
        assert f"{cfg.n_points}-point grid" in message
        assert "Sturm index" in message
        assert f"r_max={rec.r_max:g}" in message


def test_more_levels_than_seed_grid_vertices():
    # 120 levels on 800 cells: the 100-cell seed grid is left out
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    vals = radial_eigenvalues(Oscillator(1.0), params, state,
                              DiscretizationConfig(n_points=800), 120)
    assert vals.shape == (120,) and np.all(np.diff(vals) > 0)
    assert abs(vals[0] - 1.5) < 1e-6


def test_large_weight_exponent_oscillator_passes():
    # q = 95 on the 26-wide box: the cell-centred scheme returned levels
    # 0.0 and 2.4e-6 against the closed forms 48 and 50
    params = DeformationParams.uniform(12, 3.0)
    state = AngularState.from_total(12, 3.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(n_points=400), 2, 1e-2)
    assert rep.passed


def test_single_axis_large_coupling_has_no_spurious_level():
    # weight exponents 24 and 26: the cell-centred scheme returned the
    # spurious 11.588 (s = +1) and 3.401 (s = -1) among three levels
    for s in (1, -1):
        got = cartesian_1d_eigenvalues(12.0, s, 1.0, DiscretizationConfig(), 3)
        ref = [energy_1d(n, 12.0, s, 1.0) for n in range(3)]
        npt.assert_allclose(got, ref, rtol=1e-8)


# per potential at the CLI's verify settings: levels, tolerance, grid points
_CLI_SETTINGS = {"oscillator": (4, 1e-4, 4000), "coulomb": (3, 1e-3, 8000),
                 "pho": (2, 1e-4, 4000)}


def test_seeded_sweep_agrees_with_closed_forms():
    # d 2-24, L 0-4, mu_j in (-0.45, 1), D_e 0.05-500, plus the 1/r problem
    # at q = 2e-4: Gaussian-family levels to 1e-6, 1/r levels to 1e-4, and
    # no rung falls back to bisection
    rng = np.random.default_rng(20240611)
    cases = [("coulomb", DeformationParams(2, (-0.3499, -0.15)), 0.0, 1.0)]
    while len(cases) < 90:
        d = int(rng.integers(2, 25))
        mu = tuple(float(m) for m in rng.uniform(-0.45, 1.0, d))
        cases.append((("oscillator", "coulomb", "pho")[len(cases) % 3],
                      DeformationParams(d, mu), int(rng.integers(0, 9)) / 2.0,
                      float(np.exp(rng.uniform(np.log(0.05), np.log(500.0))))))
    solved = 0
    for tag, params, L, depth in cases:
        potential = {"oscillator": Oscillator(1.0), "coulomb": Coulomb(1.0),
                     "pho": Pseudoharmonic(depth, 1.0)}[tag]
        k, tol, n_points = _CLI_SETTINGS[tag]
        try:
            rep = oracle_report(potential, params,
                                AngularState.from_total(params.d, L),
                                DiscretizationConfig(n_points=n_points), k, tol)
        except InvalidStateError:  # 1/r with Kummer b <= 0 at d = 2
            continue
        solved += 1
        assert rep.max_rel_err < (1e-4 if tag == "coulomb" else 1e-6)
        assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * k
    assert solved >= 80


def test_tail_leak_warning_per_level_coulomb_report():
    @dataclasses.dataclass(frozen=True)
    class TightCoulomb(Coulomb):
        """1/r whose automatic boxes are far too small."""
        def radial_problem(self, n, state, params, hbar=1.0, mass=1.0):
            rec = super().radial_problem(n, state, params, hbar, mass)
            return dataclasses.replace(rec, r_max=rec.r_max / 10.0)

    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    with pytest.warns(TailLeakWarning) as caught:
        rep = oracle_report(TightCoulomb(1.0), params, state,
                            DiscretizationConfig(n_points=400), 2, 1e-2)
    # each level is solved, and its tail checked, on its own box
    assert len(rep.grid["r_max"]) == 2
    assert sum(w.category is TailLeakWarning for w in caught) == 2


def test_tail_leak_warning_single_axis():
    cfg = DiscretizationConfig(r_max=2.5, n_points=400)
    for s in (1, -1):
        with pytest.warns(TailLeakWarning):
            cartesian_1d_eigenvalues(0.4, s, 1.0, cfg, 2)


@dataclasses.dataclass(frozen=True)
class _TightCoulomb(Coulomb):
    """1/r whose automatic per-level boxes are far too small."""
    def radial_problem(self, n, state, params, hbar=1.0, mass=1.0):
        rec = super().radial_problem(n, state, params, hbar, mass)
        return dataclasses.replace(rec, r_max=rec.r_max / 10.0)


_TIGHT = DiscretizationConfig(r_max=2.5, n_points=400)
_P3, _S3 = DeformationParams.uniform(3, 0.0), AngularState.from_total(3, 0.0)


@pytest.mark.parametrize("call", [
    lambda: radial_eigenvalues(Oscillator(1.0), _P3, _S3, _TIGHT, 2),
    lambda: oracle_report(Oscillator(1.0), _P3, _S3, _TIGHT, 2, 1e-2),
    lambda: oracle_report(_TightCoulomb(1.0), _P3, _S3,
                          DiscretizationConfig(n_points=400), 2, 1e-2),
    lambda: cartesian_1d_eigenvalues(0.4, 1, 1.0, _TIGHT, 2),
], ids=["radial_eigenvalues", "oracle_report_gaussian", "oracle_report_1_r",
        "cartesian_1d_eigenvalues"])
def test_tail_leak_warning_names_caller(call):
    # the warning points at the calling line, never inside verify
    with pytest.warns(TailLeakWarning) as caught:
        call()
    assert {w.filename for w in caught} == {__file__}
