"""Constants that leave double range: every public entry point refuses them
with one of the package's exceptions, never with a raw OverflowError,
ZeroDivisionError or RuntimeWarning (warnings are errors under pytest), and
never returns a non-finite value off the origin."""

import math
import random
import warnings
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    AngularState,
    ConvergenceError,
    DeformationParams,
    DiscretizationConfig,
    DomainError,
    InvalidStateError,
    Oscillator,
    TailLeakWarning,
    angular_inner_product,
    bound_energy,
    build_quadrature,
    cartesian_1d_eigenvalues,
    energy_1d,
    oracle_report,
    orthogonality_matrix,
    radial_eigenvalues,
    radial_solution,
    radial_wavefunction,
    reduced_density,
    residual_check,
    theta_eigenfunction,
    wavefunction_1d,
)
from dunkl_spectra.specfun import (gauss_jacobi, jacobi_norm_sq,
                                  laguerre_norm_sq)
from dunkl_spectra.spectra import POTENTIALS

_HUGE_MU = DeformationParams.uniform(2, 1e306)


@pytest.mark.parametrize("call", [
    lambda: laguerre_norm_sq(0, 200.0),
    lambda: jacobi_norm_sq(0, 1100.0, -0.5),
    lambda: gauss_jacobi(1100.0, -0.5, 3),
    # log Gamma itself overflows past 2.56e305
    lambda: laguerre_norm_sq(0, 1e306),
    lambda: build_quadrature(1e306, "exp_r2", 4),
    lambda: radial_solution(Oscillator(1.0), 0,
                            AngularState.from_total(2, 0.0), _HUGE_MU).norm,
    # m w underflows to 0, so hbar/(m w) is inf
    lambda: wavefunction_1d(0, 0.0, 1, 1e-200, [1.0], mass=1e-200),
], ids=["laguerre_norm", "jacobi_norm", "gauss_jacobi", "laguerre_lgamma",
        "quadrature_lgamma", "radial_norm_lgamma", "axis_scale"])
def test_constant_out_of_range_is_a_domain_error(call):
    with pytest.raises(DomainError, match="double range"):
        call()


@pytest.mark.parametrize("build", [
    lambda: DiscretizationConfig(r_max=10 ** 400),
    lambda: Oscillator(10 ** 400),
], ids=["r_max", "omega"])
def test_int_constant_past_double_range_is_refused_when_built(build):
    # an int compares exactly, and 10**400 < inf: the bound is the largest
    # double, so no OverflowError waits for the first float conversion
    with pytest.raises(DomainError, match="positive and finite"):
        build()


def test_oracle_scale_in_range_when_hbar_squared_is_not():
    # 2 m/hbar^2 = 2e-160 although hbar^2 = 1e320 overflows; at hbar =
    # 1e-170 the factor itself is past the doubles
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    rep = oracle_report(Oscillator(1.0), params, state,
                        DiscretizationConfig(), 2, 1e-3, 1e160, 1e160)
    assert rep.passed
    assert rep.analytic[0] == bound_energy(Oscillator(1.0), 0, state, params,
                                           1e160, 1e160)
    assert residual_check(Oscillator(1.0), params, state, 1,
                          [[0.3, 0.4, 0.5]], 1e160, 1e160) < 1e-6
    for call in (
            lambda: oracle_report(Oscillator(1.0), params, state,
                                  DiscretizationConfig(), 2, 1e-3, 1e-170),
            lambda: residual_check(Oscillator(1.0), params, state, 1,
                                   [[0.3, 0.4, 0.5]], 1e-170)):
        with pytest.raises(DomainError, match="double range"):
            call()


def test_gram_prefactor_in_log_form():
    # rho^-(alpha+1) = 1e328 overflows alone; with N_i N_j it is in range
    gram = orthogonality_matrix(Oscillator(1.0),
                                DeformationParams.uniform(2, 20.0),
                                AngularState.from_total(2, 0.0), 3, hbar=1e8)
    npt.assert_allclose(gram, np.eye(3), rtol=0.0, atol=1e-12)


def test_radial_value_out_of_range_is_a_domain_error():
    # b = 124, c = 225, p = 11: r^(p + c/2) overflows inside the box while
    # U stays finite, so the density would be inf or NaN there
    sol = radial_solution(Oscillator(0.001), 0, AngularState.from_total(
        20, 5.5), DeformationParams.uniform(20, 5.15))
    r = np.linspace(sol.r_max / 20001, sol.r_max, 20001)
    assert np.all(np.isfinite(radial_wavefunction(sol, r)))
    with pytest.raises(DomainError, match="double range"):
        reduced_density(sol, r)
    # r^p overflows and e^{-t/2} underflows: inf times 0
    with pytest.raises(DomainError, match="double range"):
        radial_wavefunction(sol, [1.0, 1e300])


def test_density_at_the_origin_keeps_its_limit():
    # c = -0.6: the density diverges at r = 0, integrably, with no warning
    sol = radial_solution(Oscillator(1.0), 0, AngularState.from_total(2, 0.0),
                          DeformationParams(2, (-0.4, -0.4)))
    assert reduced_density(sol, 0.0) == math.inf
    assert np.all(np.isfinite(reduced_density(sol, [0.5, 1.0])))


def _entry_points(rng):
    """(name, call) of each public entry point at one draw: constants
    across 1e-300 .. 1e300 (or, in half the draws, 1e-3 .. 1e3, where most
    levels are in range) and couplings mostly below 3, some up to 1e300."""
    span = rng.choice([3.0, 300.0])

    def const():
        return 10.0 ** rng.uniform(-span, span)

    def coupling():
        return (10.0 ** rng.uniform(0.0, 300.0) if rng.random() < 0.2
                else rng.uniform(-0.49, 3.0))

    cls = rng.choice(list(POTENTIALS.values()))
    potential = cls(*(const() for _ in fields(cls)))
    d, n = rng.randint(2, 5), rng.randint(0, 4)
    params = DeformationParams(d, tuple(coupling() for _ in range(d)))
    state = AngularState.from_total(d, rng.randint(0, 6) / 2.0)
    hbar, mass, omega = const(), const(), const()
    mu, s = coupling(), rng.choice([1, -1])
    a, b = coupling() - 0.5, coupling() - 0.5
    variant = rng.choice(["exp_r", "exp_r2"])

    def radial(evaluate):
        sol = radial_solution(potential, n, state, params, hbar, mass)
        return evaluate(sol, np.geomspace(1e-3, 1e3, 20) * min(sol.r_max,
                                                                1e300))

    # the oracle on small grids, 100 to 200 cells, and the residual at
    # points on the diagonal inside the state's box
    cfg = DiscretizationConfig(n_points=100 + 25 * n)

    def residual():
        sol = radial_solution(potential, n, state, params, hbar, mass)
        r = np.array([[0.2], [0.5], [0.9]]) * min(sol.r_max, 1e300)
        return residual_check(potential, params, state, n,
                              np.full((3, d), 1.0) * r / math.sqrt(d), hbar,
                              mass)

    return [
        ("bound_energy", lambda: bound_energy(potential, n, state, params,
                                              hbar, mass)),
        ("radial_wavefunction", lambda: radial(radial_wavefunction)),
        ("reduced_density", lambda: radial(reduced_density)),
        ("theta_eigenfunction", lambda: theta_eigenfunction(
            1, state, params, np.linspace(0.1, 6.0, 20))),
        ("angular_inner_product", lambda: angular_inner_product(
            1, state, state, params)),
        ("orthogonality_matrix", lambda: orthogonality_matrix(
            potential, params, state, 3, hbar, mass)),
        ("wavefunction_1d", lambda: wavefunction_1d(
            n, mu, s, omega, np.linspace(-3.0, 3.0, 20), hbar, mass)),
        ("energy_1d", lambda: energy_1d(n, mu, s, omega, hbar)),
        ("laguerre_norm_sq", lambda: laguerre_norm_sq(n, a)),
        ("jacobi_norm_sq", lambda: jacobi_norm_sq(n, a, b)),
        ("gauss_jacobi", lambda: gauss_jacobi(a, b, n + 1)),
        ("build_quadrature", lambda: build_quadrature(a, variant, n + 1)),
        ("oracle_report", lambda: oracle_report(
            potential, params, state, cfg, n + 1, 1e-3, hbar, mass).numeric),
        ("radial_eigenvalues", lambda: radial_eigenvalues(
            potential, params, state, cfg, n + 1, hbar, mass)),
        ("cartesian_1d_eigenvalues", lambda: cartesian_1d_eigenvalues(
            mu, s, omega, cfg, n + 1, hbar, mass)),
        ("residual_check", residual),
    ]


def test_entry_points_raise_only_package_errors():
    rng, refused = random.Random(27), 0
    for draw in range(200):
        for name, call in _entry_points(rng):
            try:
                with warnings.catch_warnings():
                    # a box too small for a state is the oracle's own report
                    warnings.simplefilter("ignore", TailLeakWarning)
                    out = call()
            except (DomainError, InvalidStateError, ConvergenceError):
                refused += 1
                continue
            except Exception as exc:
                pytest.fail(f"draw {draw}, {name}: {exc!r}")
            assert np.all(np.isfinite(out)), (draw, name)
    # the sweep reaches both sides of the range
    assert 0 < refused < 200 * 16
