"""Angular eigenfunction tower, separation constants, and the total angular
constant entering the radial equation.

Level j of the tower (1 <= j <= d-1) is an eigenfunction, eigenvalue
lam_j^2 below, of the level-j angular operator: for j = 1

    -T'' + 2 (mu_1 tan t - mu_2 cot t) T'
    + mu_1 (T(t) - T(pi - t)) / cos^2 t + mu_2 (T(t) - T(-t)) / sin^2 t

and for 2 <= j <= d-1, carrying lam_{j-1}^2 up from the level below,

    -T'' - [(j - 1 + 2 sum_{i<=j} mu_i) cot t - 2 mu_{j+1} tan t] T'
    + mu_{j+1} (T(t) - T(pi - t)) / cos^2 t + lam_{j-1}^2 / sin^2 t T(t).

verify.residual_check checks the whole tower at once, through the product
of its levels with the radial state in the d-dimensional equation. In the
variable u = cos 2t every level is a Jacobi polynomial times sine/cosine
prefactors:

    level 1:   cos^{e_1} t sin^{e_2} t P_k^{(a, b)}(cos 2t)
               a = mu_2 + e_2 - 1/2, b = mu_1 + e_1 - 1/2,
               k = l_1 - (e_1 + e_2)/2
    level j:   cos^{e_{j+1}} t sin^{2S} t P_k^{(a, b)}(cos 2t)
               S = l_1 + ... + l_{j-1},
               a = (j-2)/2 + 2S + sum_{i<=j} mu_i,
               b = mu_{j+1} + e_{j+1} - 1/2,
               k = l_j - e_{j+1}/2

where e_i = (1 - s_i)/2 are the parity offsets. The quantum numbers l_j may
be half-integers; they are stored doubled so the admissibility arithmetic
(each Jacobi degree k must be a nonnegative integer) stays exact.

Eigenvalues follow one formula across the tower,

    lam_k^2 = 4 L_k (L_k + mu_1 + ... + mu_{k+1} + (k-1)/2),
    L_k = l_1 + ... + l_k,

whose top entry k = d-1 is the constant fed to the radial equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DeformationParams, ParityVector
from .errors import DomainError, InvalidStateError, check_count
from .specfun import gauss_jacobi, jacobi, jacobi_norm_sq

__all__ = [
    "AngularState",
    "AngularSolution",
    "parity_offsets",
    "angular_solution",
    "theta_eigenfunction",
    "angular_inner_product",
    "lambda_sq",
    "varpi_sq",
]


def parity_offsets(parity: ParityVector) -> tuple:
    """e_j = (1 - s_j)/2, so even sectors give 0 and odd sectors give 1."""
    return tuple((1 - s) // 2 for s in parity.s)


@dataclass(frozen=True)
class AngularState:
    """Doubled angular quantum numbers 2*l_1 .. 2*l_{d-1} plus d parities.

    Construction validates the parity-consistency rules: each level's Jacobi
    degree must come out a nonnegative integer, which in particular forces
    l_1 = 0 to pair with s_1 = s_2 = +1.
    """
    two_ell: tuple
    parity: ParityVector

    def __post_init__(self):
        two_ell = tuple(check_count(v, "2*l_j", InvalidStateError)
                        for v in self.two_ell)
        if not isinstance(self.parity, ParityVector):
            object.__setattr__(self, "parity", ParityVector(tuple(self.parity)))
        d = len(self.parity)
        if len(two_ell) != d - 1:
            raise InvalidStateError(
                f"need d-1={d - 1} angular quantum numbers, got {len(two_ell)}")
        object.__setattr__(self, "two_ell", two_ell)
        e = parity_offsets(self.parity)
        first = two_ell[0] - e[0] - e[1]
        if first < 0 or first % 2:
            raise InvalidStateError(
                f"level 1 with 2*l_1={two_ell[0]} does not admit the parity "
                f"sector (s_1, s_2)=({self.parity.s[0]}, {self.parity.s[1]})")
        for j in range(2, d):
            k = two_ell[j - 1] - e[j]
            if k < 0 or k % 2:
                raise InvalidStateError(
                    f"level {j} with 2*l_{j}={two_ell[j - 1]} does not admit "
                    f"s_{j + 1}={self.parity.s[j]}")

    @classmethod
    def from_total(cls, d: int, L: float) -> "AngularState":
        """Minimal state of dimension d carrying total angular number L.

        Puts everything into l_1; an odd doubled value needs one mixed
        parity, placed on axis 2.
        """
        two_l = int(round(2 * L))
        if abs(2 * L - two_l) > 1e-12 or two_l < 0:
            raise InvalidStateError(f"total angular number {L} must be a "
                                    f"nonnegative half-integer")
        s = [1] * d
        if two_l % 2:
            s[1] = -1
        return cls(two_ell=(two_l,) + (0,) * (d - 2), parity=ParityVector(tuple(s)))

    @property
    def d(self) -> int:
        return len(self.parity)

    def ell_partial(self, k: int) -> float:
        """L_k = l_1 + ... + l_k."""
        return sum(self.two_ell[:k]) / 2.0

    @property
    def ell_total(self) -> float:
        return sum(self.two_ell) / 2.0


@dataclass(frozen=True)
class AngularSolution:
    """Closed-form data of one tower level: prefactor exponents, the Jacobi
    parameters and degree, and the level eigenvalue."""
    level: int
    jacobi_alpha: float
    jacobi_beta: float
    cos_exponent: int
    sin_exponent: int
    degree: int
    eigenvalue: float

    def __post_init__(self):
        if self.jacobi_alpha <= -1.0 or self.jacobi_beta <= -1.0:
            raise InvalidStateError(
                f"jacobi parameters out of range: ({self.jacobi_alpha}, "
                f"{self.jacobi_beta})")


def _separation_eigenvalue(k: int, L_k: float, params: DeformationParams) -> float:
    return 4.0 * L_k * (L_k + params.mu_partial(k + 1) + (k - 1) / 2.0)


def _check_dimension(state: AngularState, params: DeformationParams) -> None:
    """InvalidStateError unless state and params share one dimension."""
    if state.d != params.d:
        raise InvalidStateError(
            f"state has dimension {state.d}, parameters have {params.d}")


def _check_level(j: int, state: AngularState, params: DeformationParams) -> None:
    _check_dimension(state, params)
    if not 1 <= j <= params.d - 1:
        raise DomainError(f"level must lie in [1, {params.d - 1}], got {j}")


def angular_solution(j: int, state: AngularState,
                     params: DeformationParams) -> AngularSolution:
    """Closed-form record of tower level j for the given state."""
    _check_level(j, state, params)
    e = parity_offsets(state.parity)
    mu = params.mu
    if j == 1:
        degree = (state.two_ell[0] - e[0] - e[1]) // 2
        return AngularSolution(
            level=1,
            jacobi_alpha=mu[1] + e[1] - 0.5,
            jacobi_beta=mu[0] + e[0] - 0.5,
            cos_exponent=e[0],
            sin_exponent=e[1],
            degree=degree,
            eigenvalue=_separation_eigenvalue(1, state.ell_partial(1), params))
    two_S = sum(state.two_ell[:j - 1])
    degree = (state.two_ell[j - 1] - e[j]) // 2
    return AngularSolution(
        level=j,
        jacobi_alpha=(j - 2) / 2.0 + two_S + params.mu_partial(j),
        jacobi_beta=mu[j] + e[j] - 0.5,
        cos_exponent=e[j],
        sin_exponent=two_S,
        degree=degree,
        eigenvalue=_separation_eigenvalue(j, state.ell_partial(j), params))


def theta_eigenfunction(j: int, state: AngularState, params: DeformationParams,
                        theta, normalized: bool = True):
    """Evaluate tower level j at angle(s) theta.

    Normalized (default) to unit norm against the level's weight over its
    angular range; in u = cos 2t the constant is the closed-form Jacobi norm
    h_k (DLMF 18.3). DomainError when it or a value leaves double range.
    """
    sol = angular_solution(j, state, params)
    theta = np.asarray(theta, dtype=float)
    a, b = sol.jacobi_alpha, sol.jacobi_beta
    # in u = cos 2t the level weight, over the full turn for j = 1 and the
    # half turn above, is mult 2^{-(a+b+2)} (1-u)^a (1+u)^b du
    mult = 4.0 if j == 1 else 2.0
    try:
        with np.errstate(all="ignore"):
            out = (jacobi(sol.degree, a, b, np.cos(2.0 * theta))
                   * np.cos(theta) ** sol.cos_exponent
                   * np.sin(theta) ** sol.sin_exponent)
            norm = (np.sqrt(mult * 2.0 ** (-(a + b + 2.0))
                            * jacobi_norm_sq(sol.degree, a, b))
                    if normalized else 1.0)
            out = out / norm
    except OverflowError:
        norm = math.inf
    if not (0.0 < norm < math.inf and np.all(np.isfinite(out))):
        raise DomainError(f"level {j} eigenfunction of degree {sol.degree} "
                          f"leaves double range")
    return out if np.ndim(out) else float(out)


def angular_inner_product(j: int, state_a: AngularState, state_b: AngularState,
                          params: DeformationParams) -> float:
    """Inner product of two normalized level-j eigenfunctions under the
    level weight, by Gauss-Jacobi quadrature in u = cos 2t.

    Both states must share the parity sector and the lower-level quantum
    numbers, so they live over one and the same weight. DomainError when
    the rule, the quadrature sum or the norms leave double range.
    """
    _check_level(j, state_a, params)
    if state_a.parity != state_b.parity:
        raise InvalidStateError("states lie in different parity sectors")
    if state_a.two_ell[:j - 1] != state_b.two_ell[:j - 1]:
        raise InvalidStateError("states differ below the requested level")
    sa = angular_solution(j, state_a, params)
    sb = angular_solution(j, state_b, params)
    a, b = sa.jacobi_alpha, sa.jacobi_beta
    try:
        with np.errstate(all="ignore"):
            nodes, weights = gauss_jacobi(a, b, max(sa.degree, sb.degree) + 2)
            vals = (jacobi(sa.degree, a, b, nodes)
                    * jacobi(sb.degree, a, b, nodes))
            norms = (jacobi_norm_sq(sa.degree, a, b)
                     * jacobi_norm_sq(sb.degree, a, b))
            # mult 2^{-(a+b+2)} of the level weight cancels against the norms
            value = float(np.sum(weights * vals)) / np.sqrt(norms)
    except OverflowError:
        value = norms = math.inf
    if not (math.isfinite(value) and norms < math.inf):
        raise DomainError(f"level {j} inner product of degrees {sa.degree} "
                          f"and {sb.degree} leaves double range")
    return value


def lambda_sq(k: int, state: AngularState, params: DeformationParams) -> float:
    """Separation constant of tower level k, 1 <= k <= d-2."""
    _check_dimension(state, params)
    if not 1 <= k <= params.d - 2:
        raise DomainError(f"level must lie in [1, {params.d - 2}], got {k}")
    return _separation_eigenvalue(k, state.ell_partial(k), params)


def varpi_sq(state: AngularState, params: DeformationParams) -> float:
    """Total angular constant 4 L (L + sum mu + (d-2)/2), L = sum of all l."""
    _check_dimension(state, params)
    return _separation_eigenvalue(params.d - 1, state.ell_total, params)
