"""Independent references for the benchmark's correctness checks.

Everything here is re-derived from the closed forms in arbitrary precision
(mpmath) and never calls the library. Normalization constants use the
Gamma-ratio closed forms, not numerical quadrature:

* M(-n, b, u) = n!/(b)_n L_n^{b-1}(u)                        (DLMF 13.6.19)
* int_0^inf u^a e^-u L_n^a(u)^2 du = Gamma(n+a+1)/n!          (DLMF 18.3)
* int_0^inf u^(a+1) e^-u L_n^a(u)^2 du = (2n+a+1) Gamma(n+a+1)/n!
* int_-1^1 (1-x)^a (1+x)^b P_n^(a,b)(x)^2 dx = h_n             (DLMF 18.3)

The check functions return an error figure and never raise on a mismatch,
so a caller can count failures and list them.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40

# Tabulated values are compared relative to the state's peak density.
DENSITY_TOL = 1e-10
# Closed-form energies in the oracle report against the reference formulas.
ENERGY_TOL = 1e-12


def _angular_sums(spec):
    d = spec["d"]
    S = mp.fsum(mp.mpf(m) for m in spec["mu"])
    L = mp.mpf(sum(spec["two_ell"])) / 2
    c = d - 1 + 2 * S
    w2 = 4 * L * (L + S + mp.mpf(d - 2) / 2)
    return S, L, c, w2


def energy(spec, n):
    """Closed-form bound energy of level n for a radial spec."""
    with mp.workdps(DPS):
        return float(_energy_mp(spec, n))


def _energy_mp(spec, n):
    d = spec["d"]
    hbar, mass = mp.mpf(spec["hbar"]), mp.mpf(spec["mass"])
    k = spec["consts"]
    S, L, c, w2 = _angular_sums(spec)
    tag = spec["potential"]
    if tag == "oscillator":
        return 2 * hbar * mp.mpf(k["omega"]) * (n + L + (d + 2 * S) / 4)
    if tag == "pho":
        De, re = mp.mpf(k["De"]), mp.mpf(k["re"])
        s0 = S + mp.mpf(d) / 2
        rad = 1 + s0 * (s0 - 2) + w2 + 2 * De * mass * re ** 2 / hbar ** 2
        return -2 * De + 4 * hbar * mp.sqrt(De / (mass * re ** 2)) * (
            n + mp.mpf(1) / 2 + mp.sqrt(rad) / 2)
    kappa = n + 2 * L + S + mp.mpf(d - 1) / 2
    return -mass * mp.mpf(k["e2"]) ** 2 / (2 * hbar ** 2 * kappa ** 2)


def weight_exponent(spec):
    """q = c + 2p of the radial weight r^q that the finite-volume oracle uses.

    p is 2L for the oscillator and 1/r, and the indicial root for the
    pseudoharmonic well.
    """
    with mp.workdps(DPS):
        S, L, c, w2 = _angular_sums(spec)
        if spec["potential"] != "pho":
            return float(c + 4 * L)
        k, hbar, mass = spec["consts"], spec["hbar"], spec["mass"]
        delta_sq = w2 + 2 * mass * mp.mpf(k["De"]) * mp.mpf(k["re"]) ** 2 / mp.mpf(hbar) ** 2
        return float(1 + mp.sqrt((c - 1) ** 2 + 4 * delta_sq))


def _radial_shape(spec):
    """(variable map, leading power, Kummer b, squared norm) in mpmath."""
    n = spec["n"]
    hbar, mass = mp.mpf(spec["hbar"]), mp.mpf(spec["mass"])
    k = spec["consts"]
    S, L, c, w2 = _angular_sums(spec)
    tag = spec["potential"]
    if tag == "coulomb":
        eta = -2 * mass * _energy_mp(spec, n)
        eta = mp.sqrt(eta) / hbar
        B = 4 * L + c
        lag = mp.gamma(n + B) / mp.factorial(n) * (2 * n + B)
        inv_norm_sq = ((2 * eta) ** (-(B + 1))
                       * (mp.factorial(n) / mp.rf(B, n)) ** 2 * lag)
        return ("coulomb", eta, 2 * L, B, c, 1 / mp.sqrt(inv_norm_sq))
    if tag == "oscillator":
        scale = mass * mp.mpf(k["omega"]) / hbar
        lead = L
        b = (spec["d"] + 2 * S) / 2 + 2 * L
    else:
        De, re = mp.mpf(k["De"]), mp.mpf(k["re"])
        delta_sq = w2 + 2 * mass * De * re ** 2 / hbar ** 2
        p = ((1 - c) + mp.sqrt((c - 1) ** 2 + 4 * delta_sq)) / 2
        scale = mass * (2 * mp.sqrt(De / mass) / re) / hbar
        lead = p / 2
        b = (c + 1) / 2 + p
    # the Laguerre weight exponent equals b - 1 for the whole Gaussian family
    lag = mp.gamma(n + b) / mp.factorial(n)
    inv_norm_sq = (scale ** (-(c + 1) / 2) / 2
                   * (mp.factorial(n) / mp.rf(b, n)) ** 2 * lag)
    return ("gauss", scale, lead, b, c, 1 / mp.sqrt(inv_norm_sq))


def reduced_density(spec, rs):
    """Reference U(r)^2 r^c at the radii rs (floats)."""
    n = spec["n"]
    with mp.workdps(DPS):
        family, scale, lead, b, c, norm = _radial_shape(spec)
        out = []
        for r in rs:
            r = mp.mpf(r)
            if family == "gauss":
                u = scale * r * r
                U = norm * u ** lead * mp.exp(-u / 2) * mp.hyp1f1(-n, b, u)
            else:
                U = (norm * r ** lead * mp.exp(-scale * r)
                     * mp.hyp1f1(-n, b, 2 * scale * r))
            out.append(float(U * U * r ** c))
        return out


def kummer(a, b, xs):
    """Reference M(a, b, x) at the points xs."""
    with mp.workdps(DPS):
        return [float(mp.hyp1f1(a, b, mp.mpf(x))) for x in xs]


def theta_eigenfunction(spec, j, thetas):
    """Reference normalized level-j angular factor at the angles thetas."""
    mu = spec["mu"]
    two_ell = spec["two_ell"]
    e = [(1 - s) // 2 for s in spec["parity"]]
    with mp.workdps(DPS):
        if j == 1:
            a = mp.mpf(mu[1]) + e[1] - mp.mpf(1) / 2
            b = mp.mpf(mu[0]) + e[0] - mp.mpf(1) / 2
            cos_exp, sin_exp = e[0], e[1]
            deg = (two_ell[0] - e[0] - e[1]) // 2
            mult = 4
        else:
            two_S = sum(two_ell[:j - 1])
            a = (mp.mpf(j - 2) / 2 + two_S
                 + mp.fsum(mp.mpf(m) for m in mu[:j]))
            b = mp.mpf(mu[j]) + e[j] - mp.mpf(1) / 2
            cos_exp, sin_exp = e[j], two_S
            deg = (two_ell[j - 1] - e[j]) // 2
            mult = 2
        denom = (mp.gamma(a + b + 2) if deg == 0 else
                 (2 * deg + a + b + 1) * mp.gamma(deg + a + b + 1)
                 * mp.factorial(deg))
        h = (2 ** (a + b + 1) * mp.gamma(deg + a + 1) * mp.gamma(deg + b + 1)
             / denom)
        norm = 1 / mp.sqrt(mult * 2 ** (-(a + b + 2)) * h)
        out = []
        for t in thetas:
            t = mp.mpf(t)
            v = norm * mp.jacobi(deg, a, b, mp.cos(2 * t))
            out.append(float(v * mp.cos(t) ** cos_exp * mp.sin(t) ** sin_exp))
        return out


def axis_density(n, mu, s, omega, hbar, mass, xs):
    """Reference single-axis density |x|^{2 mu} psi(x)^2."""
    with mp.workdps(DPS):
        mu_, om, hb, ms = (mp.mpf(v) for v in (mu, omega, hbar, mass))
        alpha = mu_ - mp.mpf(s) / 2
        a = mp.sqrt(hb / (ms * om))
        inv_norm_sq = a ** (2 * mu_ + 2 - s) * mp.gamma(n + alpha + 1) / mp.factorial(n)
        out = []
        for x in xs:
            x = mp.mpf(x)
            u = x * x / (a * a)
            psi = mp.exp(-u / 2) * mp.laguerre(n, alpha, u)
            if s == -1:
                psi *= x
            out.append(float(psi * psi * abs(x) ** (2 * mu_) / inv_norm_sq))
        return out


def peak_relative_error(values, reference):
    """Largest |value - reference| over the largest |reference|."""
    peak = max(abs(v) for v in reference)
    if not peak > 0.0 or not all(math.isfinite(v) for v in values):
        return math.inf
    return max(abs(v - r) for v, r in zip(values, reference)) / peak
