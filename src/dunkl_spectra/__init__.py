"""Bound-state spectra of reflection-deformed quantum problems.

Closed-form eigenvalues and eigenfunctions for three exactly solvable
radial potentials under a derivative deformed by parity reflections, in
any dimension d >= 2, together with an independent finite-element
eigensolver that cross-checks every closed form numerically.
"""

from .cartesian import CartesianState, energy_1d, total_energy, wavefunction_1d
from .core import (DeformationParams, ParityVector, PolarPoint,
                   cartesian_to_polar, polar_to_cartesian)
from .errors import (ConvergenceError, DomainError, InvalidStateError,
                     TailLeakWarning)
from .polar import (AngularState, angular_inner_product, lambda_sq,
                    parity_offsets, theta_eigenfunction, varpi_sq)
from .specfun import build_quadrature, jacobi, kummer_m, laguerre
from .spectra import (Coulomb, Oscillator, PotentialSpec,
                      Pseudoharmonic, RadialSolution, bound_energy,
                      coulomb_energy, coulomb_large_d_expansion,
                      oscillator_energy, pho_energy, radial_solution,
                      radial_wavefunction, reduced_density)
from .verify import (DiscretizationConfig, OracleReport,
                     cartesian_1d_eigenvalues, oracle_report,
                     orthogonality_matrix, radial_eigenvalues, residual_check)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DeformationParams", "ParityVector", "PolarPoint",
    "polar_to_cartesian", "cartesian_to_polar",
    "CartesianState", "energy_1d", "wavefunction_1d", "total_energy",
    "AngularState", "parity_offsets", "theta_eigenfunction",
    "angular_inner_product", "lambda_sq", "varpi_sq",
    "laguerre", "jacobi", "kummer_m", "build_quadrature",
    "Oscillator", "Pseudoharmonic", "Coulomb", "PotentialSpec",
    "RadialSolution",
    "oscillator_energy", "pho_energy", "coulomb_energy", "bound_energy",
    "radial_solution", "radial_wavefunction",
    "coulomb_large_d_expansion", "reduced_density",
    "DiscretizationConfig", "OracleReport", "radial_eigenvalues",
    "cartesian_1d_eigenvalues", "residual_check", "orthogonality_matrix",
    "oracle_report",
    "DomainError", "InvalidStateError", "ConvergenceError",
    "TailLeakWarning",
]
