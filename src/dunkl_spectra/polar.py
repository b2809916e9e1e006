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
(each Jacobi degree k must be a nonnegative integer) stays exact. One
derivation, _tower, gives each level's two exponents and doubled degree 2k;
AngularState's check reads it, and both evaluators read it through _level,
which adds the Jacobi parameters.

Eigenvalues follow one formula across the tower,

    lam_k^2 = 4 L_k (L_k + mu_1 + ... + mu_{k+1} + (k-1)/2),
    L_k = l_1 + ... + l_k,

whose top entry k = d-1 is the constant fed to the radial equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import DeformationParams, ParityVector
from .errors import DomainError, InvalidStateError, check_count
from .specfun import gauss_jacobi, jacobi, jacobi_norm_sq

__all__ = [
    "AngularState",
    "parity_offsets",
    "theta_eigenfunction",
    "angular_inner_product",
    "lambda_sq",
    "varpi_sq",
]


def parity_offsets(parity: ParityVector) -> tuple:
    """e_j = (1 - s_j)/2, so even sectors give 0 and odd sectors give 1."""
    return tuple((1 - s) // 2 for s in parity.s)


def _tower(state: "AngularState"):
    """Yield (cos exponent, sin exponent, doubled Jacobi degree 2k) of each
    level j = 1 .. d-1 of the state, as in the module docstring."""
    two_ell, e = state.two_ell, parity_offsets(state.parity)
    yield e[0], e[1], two_ell[0] - e[0] - e[1]
    for j in range(2, state.d):
        yield e[j], sum(two_ell[:j - 1]), two_ell[j - 1] - e[j]


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
        s = self.parity.s
        for j, (_, _, two_k) in enumerate(_tower(self), start=1):
            if two_k < 0 or two_k % 2:
                raise InvalidStateError(
                    f"level 1 with 2*l_1={two_ell[0]} does not admit the "
                    f"parity sector (s_1, s_2)=({s[0]}, {s[1]})" if j == 1 else
                    f"level {j} with 2*l_{j}={two_ell[j - 1]} does not admit "
                    f"s_{j + 1}={s[j]}")

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


def _separation_eigenvalue(k: int, L_k: float, params: DeformationParams) -> float:
    return 4.0 * L_k * (L_k + params.mu_partial(k + 1) + (k - 1) / 2.0)


def _check_dimension(state: AngularState, params: DeformationParams) -> None:
    """InvalidStateError unless state and params share one dimension."""
    if state.d != params.d:
        raise InvalidStateError(
            f"state has dimension {state.d}, parameters have {params.d}")


def _level(j: int, state: AngularState, params: DeformationParams) -> tuple:
    """(a, b, cos exponent, sin exponent, degree) of tower level j: its
    Jacobi parameters and the row of _tower that the state admits."""
    _check_dimension(state, params)
    if not 1 <= j <= params.d - 1:
        raise DomainError(f"level must lie in [1, {params.d - 1}], got {j}")
    cos_e, sin_e, two_k = next(islice(_tower(state), j - 1, None))
    mu = params.mu
    if j == 1:
        a, b = mu[1] + sin_e - 0.5, mu[0] + cos_e - 0.5
    else:
        a, b = (j - 2) / 2.0 + sin_e + params.mu_partial(j), mu[j] + cos_e - 0.5
    # reachable: mu_j = nextafter(-1/2, 0) gives mu_j - 1/2 == -1.0 exactly
    if a <= -1.0 or b <= -1.0:
        raise InvalidStateError(f"jacobi parameters out of range: ({a}, {b})")
    return a, b, cos_e, sin_e, two_k // 2


def theta_eigenfunction(j: int, state: AngularState, params: DeformationParams,
                        theta):
    """Evaluate tower level j at angle(s) theta, normalized to unit norm
    against the level's weight over its angular range; in u = cos 2t the
    constant is the closed-form Jacobi norm h_k (DLMF 18.3). DomainError
    when it or a value leaves double range.
    """
    a, b, cos_e, sin_e, k = _level(j, state, params)
    theta = np.asarray(theta, dtype=float)
    # in u = cos 2t the level weight, over the full turn for j = 1 and the
    # half turn above, is mult 2^{-(a+b+2)} (1-u)^a (1+u)^b du
    mult = 4.0 if j == 1 else 2.0
    try:
        with np.errstate(all="ignore"):
            out = (jacobi(k, a, b, np.cos(2.0 * theta))
                   * np.cos(theta) ** cos_e * np.sin(theta) ** sin_e)
            norm = np.sqrt(mult * 2.0 ** (-(a + b + 2.0))
                           * jacobi_norm_sq(k, a, b))
            out = out / norm
    except OverflowError:
        norm = math.inf
    if not (0.0 < norm < math.inf and np.all(np.isfinite(out))):
        raise DomainError(f"level {j} eigenfunction of degree {k} "
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
    a, b, _, _, ka = _level(j, state_a, params)
    if state_a.parity != state_b.parity:
        raise InvalidStateError("states lie in different parity sectors")
    if state_a.two_ell[:j - 1] != state_b.two_ell[:j - 1]:
        raise InvalidStateError("states differ below the requested level")
    kb = _level(j, state_b, params)[4]
    try:
        with np.errstate(all="ignore"):
            nodes, weights = gauss_jacobi(a, b, max(ka, kb) + 2)
            vals = jacobi(ka, a, b, nodes) * jacobi(kb, a, b, nodes)
            norms = jacobi_norm_sq(ka, a, b) * jacobi_norm_sq(kb, a, b)
            # mult 2^{-(a+b+2)} of the level weight cancels against the norms
            value = float(np.sum(weights * vals)) / np.sqrt(norms)
    except OverflowError:
        value = norms = math.inf
    if not (math.isfinite(value) and norms < math.inf):
        raise DomainError(f"level {j} inner product of degrees {ka} "
                          f"and {kb} leaves double range")
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
