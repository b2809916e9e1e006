"""Tests for the independent grid-based eigenvalue oracle."""

import dataclasses
import logging
import math
import warnings

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
from dunkl_spectra.verify import _fv_matrix, _refine


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

def _per_cell_matrix(q, vterms, r_max, n, scale):
    """The tridiagonal form with every cell's mass, loads and flux taken
    from that cell's own endpoints."""
    def power_int(q, a, b):
        if abs(q + 1.0) < 1e-12:
            return np.log(b / a)
        return (b ** (q + 1.0) - a ** (q + 1.0)) / (q + 1.0)

    h = r_max / n
    i = np.arange(1, n + 1)
    lo, hi, nodes = (i - 1.0) * h, i * h, (i - 0.5) * h
    cell_mass = power_int(q, lo, hi)
    load = np.zeros(n)
    for coeff, power in vterms:
        load += coeff * power_int(q + power, lo, hi)
    flux = 1.0 / power_int(-q, nodes, np.append(nodes[1:], r_max))
    diag = scale * load
    diag[:-1] += flux[:-1]
    diag[1:] += flux[:-1]
    diag[-1] += flux[-1]
    s = np.sqrt(cell_mass)
    return diag / cell_mass, -flux[:-1] / (s[:-1] * s[1:]), s, nodes


@pytest.mark.parametrize("q, vterms", [
    (1.0, [(0.5, 2.0)]),               # flux integrals take the log branch
    (-0.8, [(0.5, 2.0)]),
    (0.3, [(-1.0, -1.0)]),
    (2.4, [(0.7, 2.0), (-4.0, 0.0)]),
    (28.6, [(0.5, 2.0)]),
])
def test_shared_powers_match_per_cell_formulas(q, vterms):
    for r_max, n in ((12.0, 400), (37.3, 1234)):
        got = _fv_matrix(q, vterms, r_max, n, 2.0)
        want = _per_cell_matrix(q, vterms, r_max, n, 2.0)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def _index_bisection(potential, params, state, cfg, k):
    """Richardson values with both grids bisected at each level's index."""
    rec = potential.radial_problem(k - 1, state, params, 1.0, 1.0)
    r_max = rec.r_max if cfg.r_max is None else cfg.r_max
    grids = []
    for n in (cfg.n_points, 2 * cfg.n_points):
        diag, off, _, _ = _fv_matrix(rec.c + 2.0 * rec.p, rec.vterms, r_max,
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
        how = []
        got = radial_eigenvalues(potential, params, state, cfg, 3,
                                 fine_solve=how)
        want = _index_bisection(potential, params, state, cfg, 3)
        assert len(how) == 3
        for g, w, h in zip(got, want, how):
            if h == "rqi":
                assert abs(g - w) <= 1e-9 * abs(w)
            else:
                assert g == w


def test_refinement_refuses_a_neighbour_in_its_window():
    # eigenvalues 1, 1 + 1e-10, 4, 6, 9: the iteration from the vector of
    # index 0 converges at once to 1, which lies within the window of
    # index 1 but is not its eigenvalue; for index 0 the window holds two
    diag = np.array([1.0, 1.0 + 1e-10, 4.0, 6.0, 9.0])
    off = np.zeros(4)
    start = np.eye(5)[0]
    values, how = _refine(diag, off, range(1, 2), [start], 1.0)
    assert how == ["bisection"]
    assert values[0] == eigh_tridiagonal(diag, off, select="i",
                                         select_range=(1, 1),
                                         eigvals_only=True)[0]
    assert _refine(diag, off, range(0, 1), [start], 1.0)[1] == ["bisection"]
    diag[1] = 2.0
    values, how = _refine(diag, off, range(0, 1), [start], 1.0)
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


def test_spurious_level_falls_back_to_index_bisection(caplog):
    # q = c + 2p = 28.6: the first cell decouples into a spurious level, so
    # the coarse vector of index 0 does not lead to fine index 0
    params = DeformationParams.uniform(12, 0.4)
    state = AngularState.from_total(12, 2.0)
    cfg = DiscretizationConfig()
    with caplog.at_level(logging.DEBUG, logger="dunkl_spectra"):
        rep = oracle_report(Oscillator(1.0), params, state, cfg, 4, 1e-4)
    how = rep.grid["fine_solve"]
    assert "bisection" in how
    want = _index_bisection(Oscillator(1.0), params, state, cfg, 4)
    for got, ref, h in zip(rep.numeric, want, how):
        if h == "bisection":
            assert got == ref
        else:
            assert abs(got - ref) <= 1e-9 * abs(ref)
    records = [r for r in caplog.records if r.name == "dunkl_spectra"]
    assert len(records) == how.count("bisection")
    assert all(r.levelno == logging.DEBUG for r in records)
    assert f"r_max={rep.grid['r_max']:g}" in records[0].getMessage()
    assert "Sturm index" in records[0].getMessage()


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
