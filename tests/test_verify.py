"""Tests for the independent grid-based eigenvalue oracle."""

import dataclasses
import itertools
import logging
import math
import re
import warnings

import mpmath as mp
import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

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
    bound_energy,
    cartesian_1d_eigenvalues,
    coulomb_energy,
    energy_1d,
    oracle_report,
    orthogonality_matrix,
    oscillator_energy,
    radial_eigenvalues,
    radial_solution,
    residual_check,
    varpi_sq,
)
from dunkl_spectra import verify
from dunkl_spectra.spectra import _Potential
from dunkl_spectra.verify import _ldl, _p1_matrix, _refine


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


def test_config_richardson_must_be_a_bool():
    for bad in ("no", 0, 1, 1.0, None):
        with pytest.raises(DomainError):
            DiscretizationConfig(richardson=bad)
    assert not DiscretizationConfig(richardson=np.bool_(False)).richardson


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
    ref = [bound_energy(Pseudoharmonic(8.0, 1.0), n, state, params)
           for n in range(2)]
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

def _ray(d, radii=np.linspace(0.3, 4.0, 25)):
    """Points at the given radii along a ray off every coordinate
    hyperplane."""
    u = np.arange(1.0, d + 1.0)
    return radii[:, None] * (u / np.linalg.norm(u))


def test_residual_oscillator():
    for d, mu in [(3, 0.0), (3, 0.4), (5, 0.2)]:
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, 0.0)
        res = residual_check(Oscillator(1.0), params, state, 0, _ray(d))
        assert res < 1e-6


def test_residual_hydrogen_1s():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    res = residual_check(Coulomb(1.0), params, state, 0, _ray(3))
    assert res < 1e-6


def test_residual_pho():
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    res = residual_check(Pseudoharmonic(8.0, 1.0), params, state, 0, _ray(3))
    assert res < 1e-5


def test_residual_excited_states():
    params = DeformationParams.uniform(4, 0.4)
    state = AngularState.from_total(4, 1.0)
    assert residual_check(Oscillator(1.0), params, state, 2, _ray(4)) < 1e-6
    assert residual_check(Coulomb(1.0), params, state, 1, _ray(4)) < 1e-6


def test_residual_grid_guard():
    # each coordinate must lie more than two steps, 1e-3 |x|, from zero
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    check = lambda points: residual_check(Oscillator(1.0), params, state, 0,
                                          points)
    assert check([[1.0, 0.5, 1.2e-3]]) < 1e-6
    for points in ([[1.0, 0.5, 1.1e-3]], [[1.0, 0.0, 1.0]], [[0.0] * 3],
                   [[1.0, 0.5]], [1.0, 0.5, 0.7], np.empty((0, 3))):
        with pytest.raises(DomainError):
            check(points)


def test_residual_sweep_over_every_sector():
    # the assembled state solves the full equation in every parity sector
    # of d 2-8, for each potential: a random admissible state, n 0-6,
    # mu_j in (-0.4, 1), random constants, two points inside the state
    rng = np.random.default_rng(20261018)
    worst, cases, checked = 0.0, 0, 0
    for d in range(2, 9):
        for parity in itertools.product((1, -1), repeat=d):
            e = [(1 - s) // 2 for s in parity]
            two_ell = [e[0] + e[1]] + e[2:] + 2 * rng.integers(0, 2, d - 1)
            state = AngularState(tuple(two_ell), parity)
            params = DeformationParams(d, tuple(rng.uniform(-0.4, 1.0, d)))
            c1, c2, c3, hbar, mass = np.exp(rng.uniform(-1.0, 1.0, 5))
            for potential in (Oscillator(c1), Pseudoharmonic(8.0 * c2, c3),
                              Coulomb(c1)):
                n = int(rng.integers(0, 7))
                cases += 1
                try:
                    rec = radial_solution(potential, n, state, params, hbar,
                                          mass)
                except (DomainError, InvalidStateError):  # 1/r, no bound state
                    continue
                # radii inside the state: Kummer variable t up to about the
                # outer turning point 4n + 2b + 2 of e^{-t/2} M(-n, b, t)
                t = rng.uniform(0.05, 1.0, 2) * (4 * n + 2.0 * rec.b + 2.0)
                radii = (rec.sigma * t / (2.0 * rec.scale)) ** (1 / rec.sigma)
                u = rng.uniform(0.2, 1.0, d) * rng.choice((-1.0, 1.0), d)
                points = radii[:, None] * u / np.linalg.norm(u)
                worst = max(worst, residual_check(potential, params, state,
                                                  n, points, hbar, mass))
                checked += 1
    assert checked > 0.98 * cases
    assert worst <= 1e-7


@dataclasses.dataclass(frozen=True)
class _Kratzer(_Potential):
    """-e2/r + g/r^2: a new potential is its fields, tag and well alone."""
    e2: float = dataclasses.field(metadata={"help": "1/r coupling"})
    g: float = dataclasses.field(metadata={"help": "r^-2 strength"})
    tag = "kratzer"

    def well(self, mass):
        return 0.0, ((-self.e2, -1.0), (self.g, -2.0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_declared_kratzer_well_passes_oracle_and_residual(d):
    # the 1/r family plus an r^-2 term, declared in the test alone: the
    # derivation gives p the larger indicial root, and the oracle and the
    # residual of the d-dimensional equation both check that record
    potential = _Kratzer(1.3, 0.4)
    params = DeformationParams.uniform(d, 0.2)
    state = AngularState.from_total(d, 1.0)
    assert radial_solution(potential, 0, state, params).sigma == 1.0
    rep = oracle_report(potential, params, state,
                        DiscretizationConfig(n_points=8000), 3, 1e-8)
    assert rep.passed
    rng = np.random.default_rng(d)
    for n in range(3):
        rec = radial_solution(potential, n, state, params)
        assert rec.barrier > varpi_sq(state, params)
        radii = (np.array([0.3, 0.7]) * (4 * n + 2 * rec.b + 2.0)
                 / (2.0 * rec.scale))
        u = rng.uniform(0.2, 1.0, d) * rng.choice((-1.0, 1.0), d)
        points = radii[:, None] * u / np.linalg.norm(u)
        assert residual_check(potential, params, state, n, points) <= 1e-7


@dataclasses.dataclass(frozen=True)
class _InverseSquareWell(_Potential):
    """-e2/r - g/r^2: an attractive r^-2 term, strong enough at large g to
    make the particle fall to the centre."""
    e2: float = dataclasses.field(metadata={"help": "1/r coupling"})
    g: float = dataclasses.field(metadata={"help": "r^-2 attraction"})
    tag = "inverse-square"

    def well(self, mass):
        return 0.0, ((-self.e2, -1.0), (-self.g, -2.0))


def test_fall_to_the_centre_fails_fast():
    # at d = 3, L = 0 the indicial equation p (p + 1) = -2 g has no real
    # root once g > 1/8: every entry point refuses the well by name. Below
    # that the larger root gives a record that the oracle confirms
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    strong = _InverseSquareWell(1.0, 5.0)
    with pytest.raises(DomainError, match="inverse-square.*fall to the centre"):
        radial_solution(strong, 0, state, params)
    with pytest.raises(DomainError, match="fall to the centre"):
        oracle_report(strong, params, state, DiscretizationConfig(), 2, 1e-3)
    rep = oracle_report(_InverseSquareWell(1.0, 0.1), params, state,
                        DiscretizationConfig(n_points=8000), 2, 1e-6)
    assert rep.passed


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


_GRAM_SETUPS = [(3, 0.4, 0.0), (12, 3.0, 2.0)]


def _gram_error(potential, setup, n_max):
    d, mu, ell = setup
    gram = orthogonality_matrix(potential, DeformationParams.uniform(d, mu),
                                AngularState.from_total(d, ell), n_max)
    return float(np.max(np.abs(gram - np.eye(n_max))))


@pytest.mark.parametrize("setup", _GRAM_SETUPS)
@pytest.mark.parametrize("potential", [
    Oscillator(1.0), Coulomb(1.0), Pseudoharmonic(2.0, 1.1)])
def test_gram_at_high_levels(potential, setup):
    # M(-n, b, t) through the Laguerre recurrence: no 45-digit series runs
    # out of digits at n ~ 90
    assert _gram_error(potential, setup, 120) < 1e-11


@pytest.mark.parametrize("setup, n_max, error", [
    ((3, 0.4, 0.0), 200, ConvergenceError),
    ((3, 0.4, 0.0), 220, ConvergenceError),
    ((40, 3.0, 2.0), 180, DomainError)])
@pytest.mark.parametrize("potential", [Oscillator(1.0),
                                       Pseudoharmonic(2.0, 1.1)])
def test_gram_past_double_range_refuses(potential, setup, n_max, error):
    # the Gauss rule's Christoffel sums (ConvergenceError) or an entry's
    # sum (DomainError) leave double range: refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="invalid rule|double range"):
            _gram_error(potential, setup, n_max)


@pytest.mark.parametrize("n_max", [180, 200, 220])
@pytest.mark.parametrize("potential", [Oscillator(1.0),
                                       Pseudoharmonic(2.0, 1.1)])
def test_gram_in_double_range_at_high_levels(potential, n_max):
    assert _gram_error(potential, (12, 3.0, 2.0), n_max) < 1e-11


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


def test_oracle_report_tolerance_must_be_positive_and_finite():
    # an infinite tolerance would pass every report, nan or <= 0 fail it
    params = DeformationParams.uniform(3, 0.2)
    state = AngularState.from_total(3, 0.0)
    cfg = DiscretizationConfig(n_points=200)
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="tolerance"):
            oracle_report(Oscillator(1.0), params, state, cfg, 1, bad)
    assert oracle_report(Oscillator(1.0), params, state, cfg, 1, 1e-3).passed


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
    # q = 95 on the automatic boxes, where r^(q+1) overflows double: level
    # 0 has kappa = 0 + 2*3 + 36 + 11/2 = 47.5, so eta = 1/47.5,
    # b = 4*3 + 72 + 11 = 95 and t_box = 1.5 * (0 + 190) + 50 = 335, at
    # r = 335 * 47.5/2 = 7956.25. No entry and no start weight forms r^q,
    # so the report is solved, each level refined on both grids
    params = DeformationParams.uniform(12, 3.0)
    state = AngularState.from_total(12, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = oracle_report(Coulomb(1.0), params, state,
                            DiscretizationConfig(n_points=400), 2, 1e-2)
    assert rep.grid["r_max"][0] == 7956.25
    assert rep.passed and rep.max_rel_err < 1e-3
    assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * 2


def test_underflowing_masses_near_the_origin_pass():
    # pho at q = 96.2 on the doubled 8000-cell grid: the lumped masses
    # h (h rho)^q underflow to 0 at the first vertices, which is no
    # overflow, and the report passes
    params = DeformationParams(6, (0.9400338624575544, 0.9248172002503983,
                                   -0.27431931800827714, -0.36763187357255184,
                                   -0.27477731862881294, -0.18641110041319098))
    state = AngularState.from_total(6, 0.0)
    potential = Pseudoharmonic(43.24705537020759, 1.8644333792897605)
    hbar, mass = 0.5121564187139328, 1.971161562587456
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = oracle_report(potential, params, state,
                            DiscretizationConfig(n_points=4000), 2, 1e-4,
                            hbar, mass)
    assert rep.passed and rep.max_rel_err < 1e-9
    assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * 2


@pytest.mark.parametrize("potential, params, ell, hbar, mass, k, n_points", [
    (Pseudoharmonic(20.0, 2.0), DeformationParams.uniform(5, 1.0), 3.0,
     0.15, 7.0, 1, 1000),
    (Pseudoharmonic(20.0, 2.0), DeformationParams.uniform(5, 1.0), 3.0,
     0.1, 5.0, 2, 1000),
    (Pseudoharmonic(0.8873262834953853, 1.4228027558434577),
     DeformationParams(4, (1.4756081499918072, 2.1441468362578124,
                           1.704518487830377, 0.5033204543726593)), 1.0,
     0.010782404259878402, 6.455402021973491, 2, 1602),
], ids=["q448", "q567", "q894"])
def test_large_weight_exponent_starts_refine(potential, params, ell, hbar,
                                             mass, k, n_points):
    # the start weights are relative to the box edge, so at large q a start
    # is far below 1: at q = 894 its entries reach ~1e-208 on the doubled
    # grid, whose square sum underflows unless the start is first scaled by
    # its largest entry, and weights relative to the doubled grid's edge
    # would be 2^-447 smaller again on the n_points grid, where the whole
    # start underflowed. Every level refines on both grids
    state = AngularState.from_total(params.d, ell)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = oracle_report(potential, params, state,
                            DiscretizationConfig(n_points=n_points), k, 1e-4,
                            hbar, mass)
    assert rep.passed
    assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * k


def test_subnormal_start_is_scaled_by_its_largest_entry():
    # every entry of the start is subnormal, so its largest entry has no
    # finite reciprocal; divided by it, the start still refines its level
    diag, off = np.array([1.0, 2.0, 4.0]), np.array([0.1, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, how, _ = _refine(diag, off, range(0, 1),
                                 [np.array([5e-310, 1e-311, 0.0])], 1.0)
    assert how == ["rqi"]
    npt.assert_allclose(values, eigh_tridiagonal(
        diag, off, select="i", select_range=(0, 0), eigvals_only=True),
        rtol=1e-14)


def test_rescaled_matrix_gives_the_same_eigenpairs():
    # T times 2^600 or 2^-600, whose squares or solves leave double range,
    # is scaled back by a power of two inside _refine: each value is the
    # unscaled one times the same power, bit for bit, and each vector and
    # how it was found are the same; the zero start of level 2 is bisected
    q, vterms, r_max, n = 4.8, [(1.0, 2.0)], 6.0, 400
    diag, off, weights = _matrix(q, vterms, r_max, n, 2.0)
    r = np.arange(n) * (r_max / n)
    shape = np.exp(-0.5 * r * r)
    starts = [weights * shape, weights * shape * (1.0 - r * r / 2.9),
              np.zeros(n)]
    want, want_how, want_vecs = _refine(diag, off, range(3), starts, r_max)
    assert want_how == ["rqi", "rqi", "bisection"]
    for exp2 in (600, -600):
        got, how, vecs = _refine(np.ldexp(diag, exp2), np.ldexp(off, exp2),
                                 range(3), starts, r_max)
        assert [v.hex() for v in got] == [
            v.hex() for v in np.ldexp(want, exp2)]
        assert how == want_how
        assert np.array_equal(vecs, want_vecs)


@pytest.mark.parametrize("q, boxes_refused", [
    (-0.95, "none"), (-0.4, "none"), (0.3, "none"), (2.6, "none"),
    (83.0, "none"), (448.0, "none"), (1022.5, "all"), (1100.0, "all")])
def test_p1_matrix_refuses_only_non_finite_entries(q, boxes_refused):
    # over boxes from 1e-140 to 1e140 every entry of a 1/r matrix stays in
    # double range up to q ~ 1022, and no box is refused, whatever r^q on
    # it. From q ~ 1022 the profile's mass ratio m_1 = (2^(q+2) - 2)/
    # ((q+1)(q+2)) is infinite, so its entries at vertex 1 would be 0, a
    # vertex decoupled from its neighbours: the profile itself is refused,
    # once for every box
    vterms, n_points = [(-1.0, -1.0)], 100
    try:
        profile = verify._profile(q, (-1.0,), 2 * n_points)
    except ConvergenceError as exc:
        assert f"q={q:g}" in str(exc) and "r_max" not in str(exc)
        refused = [True]
    else:
        a, o, _, weights = profile
        assert np.all(a > 0.0) and np.all(o < 0.0)
        assert np.all(np.isfinite(weights))
        refused = []
        for r_max in np.geomspace(1e-140, 1e140, 561):
            for n in (n_points, 2 * n_points):
                try:
                    diag, off = _p1_matrix(q, vterms, r_max, n, 2.0, profile)
                except ConvergenceError:
                    refused.append(True)
                    continue
                assert np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
                refused.append(False)
    assert set(refused) == {boxes_refused == "all"}


@pytest.mark.parametrize("r_max", [1e300, 1e-300])
@pytest.mark.parametrize("potential", [
    Oscillator(1.0), Pseudoharmonic(5.0, 1.2), Coulomb(1.0)],
    ids=["osc", "pho", "coulomb"])
def test_box_whose_cell_square_leaves_double_range_is_refused(potential,
                                                              r_max):
    # h = r_max/n is a Python float: at r_max = 1e300 its square raises
    # OverflowError, and at 1e-300 it is 0, so a/h^2 is infinite. Were h a
    # numpy float, a/h^2 at 1e300 would underflow to 0 and the 1/r matrix
    # would pass with every off-diagonal -0.0
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    with pytest.raises(ConvergenceError, match=re.escape(f"r_max={r_max:g}")):
        oracle_report(potential, params, state,
                      DiscretizationConfig(r_max=r_max), 2, 1e-3)


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

def _matrix(q, vterms, r_max, n, scale):
    """_p1_matrix on a profile of its own n vertices, and that profile's
    start weights."""
    profile = verify._profile(q, tuple(p for _, p in vterms), n)
    return (*_p1_matrix(q, vterms, r_max, n, scale, profile), profile[-1])


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
                     (diag, off, [mp.sqrt(m) for m in mass]))


@pytest.mark.parametrize("q, vterms", [
    (1.0, [(0.5, 2.0)]),
    (-0.8, [(0.5, 2.0)]),
    (0.3, [(-1.0, -1.0)]),
    (2.4, [(0.7, 2.0), (-4.0, 0.0)]),
    (28.6, [(0.5, 2.0)]),
])
def test_p1_entries_match_per_element_moments(q, vterms):
    # the shared-power closed forms do not cancel for vertices far from the
    # origin: every entry agrees with the exact per-element moments to a
    # few tens of roundoffs, and the start weights are the square roots of
    # the masses over one constant per grid, h^((q+1)/2) n^(q/2)
    for r_max, n in ((12.0, 400), (37.3, 1234)):
        *got, weights = _matrix(q, vterms, r_max, n, 2.0)
        *want, roots = _per_element_matrix(q, vterms, r_max, n, 2.0)
        for g, w in zip(got, want):
            npt.assert_allclose(g, w, rtol=1e-14, atol=0.0)
        npt.assert_allclose(weights * math.sqrt(r_max / n) * r_max ** (q / 2),
                            roots, rtol=1e-14, atol=0.0)


def _index_bisection(potential, params, state, cfg, k):
    """Richardson values with both grids bisected at each level's index, on
    the box it is solved on: cfg.r_max, else the top level's box for the
    Gaussian family and each 1/r level's own."""
    recs = [radial_solution(potential, j, state, params, 1.0, 1.0)
            for j in range(k)]
    out = []
    for j, rec in enumerate(recs):
        box = recs[-1] if rec.sigma == 2.0 else rec
        r_max = box.r_max if cfg.r_max is None else cfg.r_max
        coarse, fine = (eigh_tridiagonal(
            *_matrix(rec.c + 2.0 * rec.p, rec.vterms, r_max, n, 2.0)[:2],
            select="i", select_range=(j, j), eigvals_only=True)[0] / 2.0
            for n in (cfg.n_points, 2 * cfg.n_points))
        out.append((4.0 * fine - coarse) / 3.0 + rec.shift)
    return np.array(out)


_LEVEL_COUNT_CASES = [(Oscillator(1.0), 12.0),
                      (Pseudoharmonic(8.0, 1.0), 12.0), (Coulomb(1.0), 500.0)]


# ids name the potential's index and the box, and the grid when it is not
# 400 cells
@pytest.mark.parametrize("potential, r_max, n_points", [
    pytest.param(potential, r_max, n_points, id=f"potential{i}-{r_max}"
                 + ("" if n_points == 400 else f"-{n_points}"))
    for n_points in (400, 1600)
    for i, (potential, r_max) in enumerate(_LEVEL_COUNT_CASES)])
def test_level_value_independent_of_level_count(potential, r_max, n_points):
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    cfg = DiscretizationConfig(r_max=r_max, n_points=n_points)
    runs = [radial_eigenvalues(potential, params, state, cfg, k)
            for k in range(1, 5)]
    for j in range(4):
        assert len({float(vals[j]) for vals in runs[j:]}) == 1


@pytest.mark.parametrize("potential, r_max", _LEVEL_COUNT_CASES,
                         ids=["oscillator", "pho", "coulomb"])
def test_oracle_numbers_are_radial_eigenvalues(potential, r_max):
    # one solve path: on an automatic or a given box the report's numbers
    # are radial_eigenvalues' bit for bit; an automatic box is the top
    # level's for the Gaussian family and each level's own for 1/r
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    for box in (None, r_max):
        cfg = DiscretizationConfig(r_max=box, n_points=400)
        for k in range(1, 5):
            rep = oracle_report(potential, params, state, cfg, k, 1.0)
            want = radial_eigenvalues(potential, params, state, cfg, k)
            assert rep.numeric == tuple(float(v) for v in want)
            recs = [radial_solution(potential, n, state, params)
                    for n in range(k)]
            auto = [rec.r_max for rec in
                    (recs[-1:] if recs[0].sigma == 2.0 else recs)]
            assert rep.grid["r_max"] == (box if box is not None else auto
                                         if len(auto) > 1 else auto[0])


@pytest.mark.parametrize("potential", [Oscillator(1.0),
                                       Pseudoharmonic(5.0, 1.2),
                                       Coulomb(1.0), _Kratzer(1.3, 0.4)],
                         ids=["oscillator", "pho", "coulomb", "kratzer"])
def test_oracle_report_is_one_radial_eigenvalues_call(monkeypatch,
                                                      potential):
    # every report, in either family, solves its levels in one call of the
    # module's radial_eigenvalues, the function perfbench's tracer wraps
    calls = []
    solve = verify.radial_eigenvalues
    monkeypatch.setattr(verify, "radial_eigenvalues",
                        lambda *args, **kw: calls.append(args) or solve(
                            *args, **kw))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    for k in range(1, 5):
        oracle_report(potential, params, state,
                      DiscretizationConfig(n_points=400), k, 1.0)
        assert len(calls) == k


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


@pytest.mark.parametrize("start", ["next level", "constant", "nan"])
@pytest.mark.parametrize("potential, n_points", [
    (Oscillator(1.0), 800), (Coulomb(1.0), 1600)])
def test_a_start_never_moves_a_value(monkeypatch, potential, n_points, start):
    # each level starts from a wrong shape: one degree too high, a constant
    # or NaN; its iteration is refused and the value is the index bisection's
    shapes = verify._shapes
    bad = {
        "next level": lambda nodes, levels: shapes(
            nodes, [(n + 1, *rest) for n, *rest in levels]),
        "constant": lambda nodes, levels: np.ones((len(levels), len(nodes))),
        "nan": lambda nodes, levels: np.full((len(levels), len(nodes)),
                                             np.nan),
    }
    monkeypatch.setattr(verify, "_shapes", bad[start])
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    cfg = DiscretizationConfig(n_points=n_points)
    coarse, fine = [], []
    got = radial_eigenvalues(potential, params, state, cfg, 3,
                             coarse_solve=coarse, fine_solve=fine)
    want = _index_bisection(potential, params, state, cfg, 3)
    assert coarse == fine == ["bisection"] * 3
    npt.assert_allclose(got, want, rtol=1e-9, atol=0.0)


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


# each case: diagonal, the run, the start vectors (rows of the identity or
# a mixture), and the outcome per level; every rejected level is bisected
_RUN_CASES = {
    # levels 1, 2 both converge to 2.0, whose window also holds 2 + 1e-10:
    # level 1 counts 3 at its tau, and level 2, above a rejected level,
    # counts 1 below its window
    "overlapping_windows": (
        [1.0, 2.0, 2.0 + 1e-10, 4.0, 5.0], range(1, 3), [1, 1],
        ["bisection", "bisection"]),
    # level 1 converges to the eigenvalue 1.0 below the run, level 2 to its
    # own 2.0: the top count is right, only the count at sigma_lo - w is not
    "eigenvalue_below_the_run": (
        [1.0, 1.5, 2.0, 3.0, 4.0], range(1, 3), [0, 2], ["bisection", "rqi"]),
    # levels 0, 1 converge to 1.0 and 3.0, skipping 2.0 between the windows;
    # at lo = 0 only the top count can see it
    "eigenvalue_between_windows": (
        [1.0, 2.0, 3.0, 4.0], range(0, 2), [0, 2], ["rqi", "bisection"]),
    "eigenvalue_between_windows_above_0": (
        [1.0, 2.0, 3.0, 4.0, 5.0], range(1, 3), [1, 3], ["rqi", "bisection"]),
    # the even mixture of levels 1 and 2 stalls at the quotient 2.5, which
    # every count would place at index 1
    "unconverged_level_inside_a_run": (
        [1.0, 2.0, 3.0, 4.0], range(0, 3), [0, (1, 2), 2],
        ["rqi", "bisection", "rqi"]),
}


@pytest.mark.parametrize("case", _RUN_CASES)
def test_run_certificate_rules(case):
    diag, levels, rows, want_how = _RUN_CASES[case]
    diag = np.array(diag)
    off = np.zeros(len(diag) - 1)
    eye = np.eye(len(diag))
    starts = [eye[list(row)].sum(axis=0) if isinstance(row, tuple)
              else eye[row] for row in rows]
    values, how, vecs = _refine(diag, off, levels, starts, 1.0)
    assert how == want_how
    npt.assert_array_equal(values, np.sort(diag)[levels.start:levels.stop])
    assert vecs.shape == (len(diag), len(levels))


def test_run_certificate_counts(monkeypatch):
    # per grid, one LDL^T factorization per level, which is both its solve
    # and its count (no level here refactors), and one count-only pass per
    # run that starts above index 0: none for a Gaussian-family run or a
    # 1/r level 0, one for a 1/r level 1
    calls = []
    ldl = verify._ldl
    monkeypatch.setattr(verify, "_ldl",
                        lambda *args: calls.append(args) or ldl(*args))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    cfg = DiscretizationConfig(n_points=800)
    rep = oracle_report(Oscillator(1.0), params, state, cfg, 4, 1e-4)
    assert rep.grid["fine_solve"] == ["rqi"] * 4 and len(calls) == 2 * 4
    calls.clear()
    rep = oracle_report(Coulomb(1.0), params, state, cfg, 2, 1e-3)
    assert rep.grid["fine_solve"] == ["rqi"] * 2 and len(calls) == 2 * 3


@pytest.mark.parametrize("level, counts", [(logging.WARNING, 3),
                                           (logging.DEBUG, 4)],
                         ids=["warning", "debug"])
def test_rejected_level_counts_its_sturm_index_only_for_debug(
        monkeypatch, caplog, level, counts):
    # each level takes one factorization; level 1 converges to 1.0, below
    # its index, and is bisected, so level 2 takes one count-only pass at
    # the bottom of its window; the rejected level 1 takes one more, for its
    # DEBUG message alone
    calls = []
    ldl = verify._ldl
    monkeypatch.setattr(verify, "_ldl",
                        lambda *args: calls.append(args) or ldl(*args))
    diag, levels, rows, want_how = _RUN_CASES["eigenvalue_below_the_run"]
    eye = np.eye(len(diag))
    with caplog.at_level(level, logger="dunkl_spectra"):
        _, how, _ = _refine(np.array(diag), np.zeros(len(diag) - 1), levels,
                            [eye[row] for row in rows], 1.0)
    assert how == want_how and len(calls) == counts
    assert len(caplog.records) == (level == logging.DEBUG)


def test_certified_levels_below_a_rejected_one_take_no_count(monkeypatch,
                                                             caplog):
    # levels 0 and 1 refine at once from their unit vectors; the even
    # mixture of e_2 and e_3 drifts to 4.0, which level 2's counts refuse.
    # Level 1's window lies above level 0's shift, which counts 1 there, so
    # it takes no count-only pass at 2 - w: every shift lies above its
    # level's value, one factorization each for levels 0 and 1
    shifts = []
    ldl = verify._ldl
    monkeypatch.setattr(verify, "_ldl",
                        lambda *args: shifts.append(args[2]) or ldl(*args))
    diag, eye = np.array([1.0, 2.0, 3.0, 4.0]), np.eye(4)
    with caplog.at_level(logging.WARNING, logger="dunkl_spectra"):
        values, how, _ = _refine(diag, np.zeros(3), range(0, 3),
                                 [eye[0], eye[1], eye[2] + eye[3]], 1.0)
    assert how == ["rqi", "rqi", "bisection"]
    npt.assert_array_equal(values, [1.0, 2.0, 3.0])
    width = verify._WINDOW * 4.0
    assert [x for x in shifts if x < 3.0] == [1.0 + width, 2.0 + width]
    assert len(shifts) == 13


def _reference_count(diag, off, x):
    """Eigenvalues in (floor, x] by LAPACK's bisection stopped at once."""
    if len(diag) == 1:  # the wrapper takes no empty off-diagonal
        return int(diag[0] <= x)
    tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    m, *_, info = dstebz(diag, off, 1, np.min(diag) - tnorm - 1.0, x, 0, 0,
                         2.0 * tnorm + 1.0, b"E")
    assert info == 0
    return m


def _pivmin(off):
    return np.finfo(float).tiny * max(1.0, np.max(off * off, initial=0.0))


def _full_count(diag, off, x):
    diag, off = np.asarray(diag, float), np.asarray(off, float)
    return _ldl(diag, off, x, _pivmin(off))[2]


@pytest.mark.parametrize("diag, off, shifts", [
    # size 1, the shift below, on and above the entry
    ([2.0], [], [1.0, 2.0, 3.0]),
    # size 2, eigenvalues 0 and 2: at x = 1 the first pivot is exactly 0,
    # at x = 0 the last one is
    ([1.0, 1.0], [1.0], [-1.0, 0.0, 1.0, 2.0, 3.0]),
    # decoupled entries, the shift exactly on one: (floor, x] counts it, and
    # a zero pivot before a zero coupling must not turn into 0/0
    ([2.0, 1.0, 3.0], [0.0, 0.0], [0.5, 1.0, 2.0, 2.5, 3.0]),
    ([3.0, 3.0, 3.0, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
    # the last pivot is the only one that fails
    ([4.0, 4.0, 1.0], [1.0, 1.0], [0.9, 1.0, 1.5]),
])
def test_sturm_count_edges(diag, off, shifts):
    for x in shifts:
        assert _full_count(diag, off, x) == _reference_count(
            np.array(diag), np.array(off), x), x


def test_sturm_count_hundreds_of_negative_pivots(monkeypatch):
    # the 1-D Laplacian, eigenvalues 2 - 2 cos(j pi/(n + 1)): half of them
    # lie below 2, and every shift below is counted through restarts, one
    # dpttrf call past each non-positive pivot but the last, which at the
    # midpoint below is the last vertex's, a matrix of size 1
    n = 1000
    diag, off = np.full(n, 2.0), np.full(n - 1, -1.0)
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    for j in (1, 17, 300, 500, 999):
        x = 0.5 * (exact[j - 1] + exact[j])
        assert _full_count(diag, off, x) == j
        assert _reference_count(diag, off, x) == j
    calls = []
    dpttrf = verify.dpttrf
    monkeypatch.setattr(verify, "dpttrf",
                        lambda *args, **kw: calls.append(1) or dpttrf(*args,
                                                                      **kw))
    x = 0.5 * (exact[499] + exact[500])
    assert _full_count(diag, off, x) == 500
    assert len(calls) == 500


def test_ldl_factors_solve_the_shifted_matrix():
    # with restarts, L D L^T is T - x I itself (no pivot below pivmin here),
    # and dpttrs on the factors solves with it
    rng = np.random.default_rng(7)
    n = 300
    diag, off = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
    shifted = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    for x in (-3.0, -0.2, 0.1, 0.7, 3.0):
        d, l, count = _ldl(diag, off, x, _pivmin(off))
        assert count == _reference_count(diag, off, x)
        lower = np.eye(n) + np.diag(l, -1)
        npt.assert_allclose(lower @ np.diag(d) @ lower.T,
                            shifted - x * np.eye(n), rtol=0.0, atol=1e-9)
        b = rng.standard_normal(n)
        got, info = verify.dpttrs(d, l, b)
        assert info == 0
        npt.assert_allclose((shifted - x * np.eye(n)) @ got, b, rtol=0.0,
                            atol=1e-8 * np.max(np.abs(got)))


def test_sturm_count_leaves_the_matrix_alone():
    diag, off = np.array([1.0, 1.0, 5.0]), np.array([1.0, 2.0])
    keep = diag.copy(), off.copy()
    assert _full_count(diag, off, 1.0) == _reference_count(diag, off, 1.0)
    npt.assert_array_equal(diag, keep[0])
    npt.assert_array_equal(off, keep[1])


def test_non_finite_shift_certifies_nothing(monkeypatch):
    diag, off = np.array([1.0, 3.0]), np.array([0.5])
    for x in (math.nan, math.inf, -math.inf):
        assert _ldl(diag, off, x, _pivmin(off)) is None
    # a run whose top quotient and shift are infinite would pass its count
    # test with a count of 2 at +inf, and sigma <= tau - tol and the
    # disjoint windows too
    value, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    found = iter([(value[0], vec[:, 0], value[0] + 1.0, 1),
                  (math.inf, np.ones(2), math.inf, 2)])
    monkeypatch.setattr(verify, "_inverse_iteration",
                        lambda *args: next(found))
    values, how, _ = _refine(diag, off, range(0, 2), [None, None], 1.0)
    assert how == ["rqi", "bisection"]
    npt.assert_allclose(values, eigh_tridiagonal(diag, off,
                                                 eigvals_only=True))


def test_sturm_count_matches_bisection_count_on_p1_matrices(monkeypatch):
    # every certificate shift sigma -+ w of seeded reports at 100 to 16,000
    # cells, and random shifts with no eigenvalue near them on the same
    # matrices, counted both ways
    rng = np.random.default_rng(20261019)
    ldl, iterate = verify._ldl, verify._inverse_iteration
    seen, solved = [], []

    def spy(diag, off, x, pivmin):
        got = ldl(diag, off, x, pivmin)
        seen.append((diag, off, x, got[2]))
        return got

    def spy_iterate(diag, off, *args):
        got = iterate(diag, off, *args)
        solved.append((diag, off, got))
        return got

    monkeypatch.setattr(verify, "_ldl", spy)
    monkeypatch.setattr(verify, "_inverse_iteration", spy_iterate)
    potentials = (Oscillator(1.0), Pseudoharmonic(5.0, 1.2), Coulomb(1.0))
    for case, n_points in enumerate((100, 400, 1000, 2500, 4000, 8000)):
        d = int(rng.integers(2, 9))
        params = DeformationParams.uniform(d, float(rng.uniform(-0.4, 1.0)))
        state = AngularState.from_total(d, float(rng.integers(0, 3)))
        oracle_report(potentials[case % 3], params, state,
                      DiscretizationConfig(n_points=n_points), 3, 1.0)
    assert max(len(diag) for diag, *_ in seen) == 16000
    checked, hundreds = 0, 0
    matrices = {}
    for diag, off, x, got in seen:
        assert got == _reference_count(diag, off, x)
        matrices[id(diag)] = diag, off
    # the count each solve hands the certificate is its factorization's
    assert len(solved) > len(matrices)
    for diag, off, (_, _, tau, got) in solved:
        assert got == _reference_count(diag, off, tau)
    assert len(seen) > len(solved)  # the count-only passes were seen too
    for diag, off in matrices.values():
        tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
        band = 1e-8 * tnorm
        low = np.min(diag) - tnorm
        for x in low + rng.random(4) * [0.05, 0.05, 1.0, 1.0] * (
                np.max(diag) - low):
            want = _reference_count(diag, off, x)
            if _reference_count(diag, off, x - band) != _reference_count(
                    diag, off, x + band):
                continue  # an eigenvalue within roundoff of x
            assert _full_count(diag, off, x) == want
            checked += 1
            hundreds += want >= 100
    assert checked >= 3 * len(matrices) and hundreds > 0


def _two_count_refine(diag, off, levels, starts, r_max):
    """The per-level check: each converged quotient sigma is kept when its
    shift tau lies at least tol above it and the eigenvalue counts at
    sigma - w and tau, taken by bisection, are exactly its index and its
    index + 1."""
    tnorm = np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off))
    floor, width = np.min(diag) - tnorm, verify._WINDOW * tnorm
    tol = verify._RESIDUAL * tnorm

    def count(x):
        return eigh_tridiagonal(diag, off, select="v",
                                select_range=(floor, x),
                                eigvals_only=True).size

    pairs, how = [], []
    for j, start in zip(levels, starts):
        found = verify._inverse_iteration(diag, off, start, tol, width,
                                          _pivmin(off))
        keep = (found is not None and found[2] - found[0] >= tol
                and count(found[0] - width) == j
                and count(found[2]) == j + 1)
        how.append("rqi" if keep else "bisection")
        pairs.append(found[:2] if keep else verify._bisect(diag, off, j))
    values, vecs = zip(*pairs)
    return np.array(values), how, np.column_stack(vecs)


def test_run_certificate_matches_the_per_level_check(monkeypatch):
    # seeded reports whose iterations now and then fail or converge to a
    # wrong index (an exact eigenpair of another level); the one-pass rule
    # must give every value and every rqi/bisection of the per-level check
    rng = np.random.default_rng(20261018)
    inverse_iteration = verify._inverse_iteration

    def unreliable(draws):
        def iterate(diag, off, x, *rest):
            u = next(draws)
            if u < 0.15:
                return None
            if u < 0.35:  # at once converged from another level's vector
                x = verify._bisect(diag, off, int(u * 100) % 5)[1]
            return inverse_iteration(diag, off, x, *rest)
        return iterate

    potentials = (Oscillator(1.0), Pseudoharmonic(5.0, 1.2), Coulomb(1.0))
    outcomes = set()
    for case in range(12):
        d = int(rng.integers(2, 9))
        params = DeformationParams.uniform(d, float(rng.uniform(-0.3, 1.0)))
        state = AngularState.from_total(d, float(rng.integers(0, 3)))
        cfg = DiscretizationConfig(n_points=int(rng.integers(800, 1600)))
        draws = rng.random(12)
        reports = []
        for refine in (verify._refine, _two_count_refine):
            monkeypatch.setattr(verify, "_refine", refine)
            monkeypatch.setattr(verify, "_inverse_iteration",
                                unreliable(iter(draws)))
            reports.append(oracle_report(potentials[case % 3], params, state,
                                         cfg, 3, 1.0))
        got, want = reports
        assert got.numeric == want.numeric
        for key in ("coarse_solve", "fine_solve"):
            assert got.grid[key] == want.grid[key]
            outcomes.update(got.grid[key])
    assert outcomes == {"rqi", "bisection"}


def test_rungs_sliced_from_one_profile_match_matrices_built_alone():
    # the three rungs of a ladder on the per-level boxes of one 1/r report
    # take prefixes of one profile built at the largest rung
    q, vterms = 2.6, [(-1.0, -1.0)]
    profile = verify._profile(q, (-1.0,), 1600)
    for r_max in (40.0, 173.2, 911.0):
        for n in (100, 800, 1600):
            got = _p1_matrix(q, vterms, r_max, n, 2.0, profile)
            want = _matrix(q, vterms, r_max, n, 2.0)
            for g, w in zip(got, want):
                npt.assert_allclose(g, w, rtol=1e-14, atol=0.0)
    assert verify._profile.cache_info().currsize <= 1


def test_one_profile_per_report():
    # the 1/r levels share one profile across their boxes, looked up once
    # per report, and at most one profile stays alive
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    verify._profile.cache_clear()
    for potential, k in ((Coulomb(1.0), 3), (Oscillator(1.0), 4)):
        before = verify._profile.cache_info()
        oracle_report(potential, params, state,
                      DiscretizationConfig(n_points=800), k, 1e-3)
        after = verify._profile.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits == before.hits
        assert after.currsize == 1


def test_one_shapes_call_per_run(monkeypatch):
    # each run's shapes are evaluated once, on the doubled grid's vertices,
    # and the n_points grid takes every second column
    calls = []
    shapes = verify._shapes
    monkeypatch.setattr(verify, "_shapes", lambda nodes, levels: (
        calls.append(len(nodes)) or shapes(nodes, levels)))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    for potential, k, runs in ((Coulomb(1.0), 3, 3), (Oscillator(1.0), 4, 1)):
        for richardson, vertices in ((True, 1600), (False, 800)):
            calls.clear()
            oracle_report(potential, params, state,
                          DiscretizationConfig(n_points=800,
                                               richardson=richardson),
                          k, 1e-3)
            assert calls == [vertices] * runs


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


@pytest.mark.parametrize("k", [60, 200])
def test_long_run_refines_every_level_on_both_grids(monkeypatch, k):
    # each level starts from its closed form, so no level of a long run is
    # bisected; k = 60 is the first report of `verify --levels 60`
    calls = []
    bisect = verify._bisect
    monkeypatch.setattr(verify, "_bisect",
                        lambda *args: calls.append(args) or bisect(*args))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(n_points=4000), k, 1e-4)
    assert rep.grid["coarse_solve"] == rep.grid["fine_solve"] == ["rqi"] * k
    assert not calls
    assert rep.passed


def test_long_run_past_the_underflow_bisects_no_high_level(monkeypatch):
    # the top level's box reaches t ~ 2450, where e^{-t/2} underflows; the
    # shapes carry a power of two per node, so no level from n = 365 up is
    # bisected (levels 303 and 304 of the n_points grid may be)
    levels = []
    bisect = verify._bisect
    monkeypatch.setattr(verify, "_bisect",
                        lambda *args: levels.append(args[2]) or bisect(*args))
    rep = oracle_report(Oscillator(1.0), DeformationParams.uniform(3, 0.4),
                        AngularState.from_total(3, 0.0),
                        DiscretizationConfig(n_points=4000), 400, 1e-4)
    assert rep.passed
    assert len(levels) <= 2 and all(j < 365 for j in levels)


def test_shapes_past_the_underflow_match_the_laguerre_function(monkeypatch):
    # e^{-t/2} L_n^(b-1)(t) at t where e^{-t/2} alone is below the doubles,
    # against mpmath; below the carry threshold the two paths agree
    b, n = 2.3, 420
    t = np.array([20.0, 900.0, 1500.0, 1700.0, 1800.0])
    got = verify._shapes(np.sqrt(t), [(n, b, 1.0, 2.0)])[0]
    with mp.workdps(30):
        want = [float(mp.exp(-x / 2) * mp.laguerre(n, b - 1, x)) for x in t]
    npt.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    nodes = np.linspace(0.0, 30.0, 500)
    shapes = [(j, b, 1.0, 2.0) for j in range(0, 200, 7)]
    plain = verify._shapes(nodes, shapes)
    monkeypatch.setattr(verify, "_PLAIN_T", 0.0)
    carried = verify._shapes(nodes, shapes)
    peak = np.max(np.abs(plain), axis=1, keepdims=True)
    assert np.max(np.abs(carried - plain) / peak) < 1e-12


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
    iterate = verify._inverse_iteration
    monkeypatch.setattr(verify, "_inverse_iteration", lambda diag, *rest: (
        None if len(diag) == cfg.n_points else iterate(diag, *rest)))
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.5)
    with caplog.at_level(logging.DEBUG, logger="dunkl_spectra"):
        rep = oracle_report(Oscillator(1.0), params, state, cfg, 3, 1e-3)
    assert rep.grid["coarse_solve"] == ["bisection"] * 3
    rec = radial_solution(Oscillator(1.0), 2, state, params)
    diag, off, _ = _matrix(rec.c + 2.0 * rec.p, rec.vterms, rec.r_max,
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


def test_more_levels_than_grid_vertices_fail_fast():
    # the n_points grid has n_points vertices, so at most that many levels
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    cfg = DiscretizationConfig(n_points=100)
    with pytest.raises(DomainError, match="the grid has 100"):
        radial_eigenvalues(Oscillator(1.0), params, state, cfg, 101)
    with pytest.raises(DomainError):
        cartesian_1d_eigenvalues(0.0, 1, 1.0, cfg, 150)
    with pytest.warns(TailLeakWarning):  # the top levels are grid modes
        vals = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 100)
    assert vals.shape == (100,) and np.all(np.isfinite(vals))
    assert abs(vals[0] - 1.5) < 1e-2


def test_more_levels_than_seed_grid_vertices():
    # 120 levels on 800 cells, more than an eighth of the grid's vertices
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


@pytest.mark.parametrize("seed", [5, 11])
def test_seeded_large_weight_exponents_pass(seed):
    # d 2-200, mu_j in (-1/2, 20), L 0-5 and q = c + 2p up to 1000, about
    # a fifth of the draws past q = 700: every report of the three
    # potentials passes at the CLI's settings, none is refused and none
    # warns; the 1/r levels, whose starts underflow past q ~ 700, are then
    # found by bisection
    rng = np.random.default_rng(seed)
    worst, reports = {}, 0
    while reports < 120:
        tag = ("oscillator", "coulomb", "pho")[reports % 3]
        d = int(rng.integers(2, 201))
        params = DeformationParams(d, tuple(
            float(m) for m in rng.uniform(-0.5, rng.uniform(-0.4, 20.0), d)))
        state = AngularState.from_total(d, int(rng.integers(0, 11)) / 2.0)
        potential = {"oscillator": Oscillator(1.0), "coulomb": Coulomb(1.0),
                     "pho": Pseudoharmonic(float(np.exp(rng.uniform(
                         np.log(0.5), np.log(50.0)))), 1.0)}[tag]
        try:
            rec = radial_solution(potential, 0, state, params)
        except InvalidStateError:  # 1/r with Kummer b <= 0 at d = 2
            continue
        if rec.c + 2.0 * rec.p > 1000.0:
            continue
        k, tol, n_points = _CLI_SETTINGS[tag]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = oracle_report(potential, params, state,
                                DiscretizationConfig(n_points=n_points), k, tol)
        assert rep.passed, (tag, params, state.two_ell)
        worst[tag] = max(worst.get(tag, 0.0), rep.max_rel_err)
        reports += 1
    assert worst["coulomb"] < 1e-5
    assert worst["oscillator"] < 1e-6 and worst["pho"] < 1e-6


def _tight_coulomb_report():
    """A 1/r oracle report whose records' automatic per-level boxes are far
    too small: the oracle reads the record's scale only through its box,
    r_max ~ 1/scale."""
    level = verify._level

    def tight(*args):
        rec = level(*args)
        return dataclasses.replace(rec, scale=rec.scale * 10.0)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_level", tight)
        return oracle_report(Coulomb(1.0), DeformationParams.uniform(3, 0.0),
                             AngularState.from_total(3, 0.0),
                             DiscretizationConfig(n_points=400), 2, 1e-2)


def test_tail_leak_warning_per_level_coulomb_report():
    with pytest.warns(TailLeakWarning) as caught:
        rep = _tight_coulomb_report()
    # each level is solved, and its tail checked, on its own box
    assert len(rep.grid["r_max"]) == 2
    assert sum(w.category is TailLeakWarning for w in caught) == 2


def test_tail_leak_warning_single_axis():
    cfg = DiscretizationConfig(r_max=2.5, n_points=400)
    for s in (1, -1):
        with pytest.warns(TailLeakWarning):
            cartesian_1d_eigenvalues(0.4, s, 1.0, cfg, 2)


_TIGHT = DiscretizationConfig(r_max=2.5, n_points=400)
_P3, _S3 = DeformationParams.uniform(3, 0.0), AngularState.from_total(3, 0.0)


@pytest.mark.parametrize("call", [
    lambda: radial_eigenvalues(Oscillator(1.0), _P3, _S3, _TIGHT, 2),
    lambda: oracle_report(Oscillator(1.0), _P3, _S3, _TIGHT, 2, 1e-2),
    _tight_coulomb_report,
    lambda: cartesian_1d_eigenvalues(0.4, 1, 1.0, _TIGHT, 2),
], ids=["radial_eigenvalues", "oracle_report_gaussian", "oracle_report_1_r",
        "cartesian_1d_eigenvalues"])
def test_tail_leak_warning_names_caller(call):
    # the warning points at the calling line, never inside verify
    with pytest.warns(TailLeakWarning) as caught:
        call()
    assert {w.filename for w in caught} == {__file__}


def test_oscillator_box_is_scale_free():
    # the box is one rule in t = m omega r^2/hbar, so every frequency and
    # every pair of constants solves the same rescaled matrix problem
    params = DeformationParams.uniform(3, -0.3)
    state = AngularState.from_total(3, 0.0)
    errs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", TailLeakWarning)
        for omega in (0.01, 0.1, 1.0, 10.0, 100.0):
            for hbar, mass in itertools.product((0.5, 2.0), repeat=2):
                errs.append(oracle_report(
                    Oscillator(omega), params, state, DiscretizationConfig(),
                    4, 1e-4, hbar, mass).max_rel_err)
    assert max(errs) - min(errs) <= 1e-10


@pytest.mark.parametrize("omega", [0.01, 1.0, 100.0])
def test_single_axis_box_follows_the_frequency(omega):
    # the single-axis state is the Laguerre function of u = m omega x^2/hbar,
    # so its box comes from the radial rule at b = mu + 1 - s/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cartesian_1d_eigenvalues(0.0, -1, omega, DiscretizationConfig(),
                                       1)[0]
    want = energy_1d(0, 0.0, -1, omega)
    assert abs(got - want) <= 1e-10 * want
