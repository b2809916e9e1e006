"""Seeded inputs, the timed operation, and the correctness check of each
workload.

Inputs come from ``random.Random(seed)`` only, so one seed gives the same
inputs on every machine. The factors that set an op's cost or verdict are
drawn as a shuffled full factorial (potential or Cartesian x n for
tabulate, potential x d x L for oracle_sweep), and the others as seeded
permutations of their levels, so the mix of cheap and expensive ops stays
the same from seed to seed.

An op's output is checked after the timed loop. ``check`` returns None for a
good output, or ``(known, reason)`` for a failed one. ``known`` is True only
for the documented library defects:

* ``oracle_outside_tolerance``: the finite-volume oracle misses the closed
  form by more than its tolerance, its report says so, and the weight
  exponent q = c + 2p lies in the regime where the oracle is known to fail
  (``oracle_known_regime``): q at or above a per-potential threshold
  (ROADMAP item 1), or, for 1/r, q below 0.2, next to the states the
  package refuses (found by this benchmark);
* ``verify_csv_unquoted``: ``dunkl-spectra verify --format csv`` writes
  comma-joined lists into unquoted cells, so its rows do not parse
  (ROADMAP item 4);
* ``coulomb_c_nonpositive``: for the 1/r problem with 4L + c <= 0 (d = 2,
  L = 0, mu_1 + mu_2 <= -1/2) the package refuses the state, with
  ``DomainError`` from ``coulomb_energy`` at n = 0 and ``InvalidStateError``
  ("b must be positive") from ``radial_solution`` at n >= 1.

Every other failure is unexpected: among them an oracle report that
passes where the reference says it should not, and one that fails outside
the known regime.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import struct
import subprocess
import sys
import warnings

import numpy as np

from dunkl_spectra import cartesian, core, errors, polar, spectra, verify

import reference

POTENTIALS = ("oscillator", "pho", "coulomb")
# per-potential levels, tolerance and radial points of the CLI's verify jobs
ORACLE_SETTINGS = {"oscillator": (4, 1e-4, 4000), "coulomb": (3, 1e-3, 8000),
                   "pho": (2, 1e-4, 4000)}
MU_RANGE = (-0.45, 1.0)
# The oracle fails from about these weight exponents q = c + 2p up (ROADMAP
# item 1) at the CLI's settings, where its spurious near-origin mode drops
# below the top checked level. For 1/r the problem depends on q alone; for
# the oscillator and pho the edge also moves with the box-to-length ratio.
# The lowest failing q found was 10.29 (1/r), 19.81 (oscillator, shortest
# lengths of the draw ranges) and 17.28 (pho, deep narrow wells), each
# threshold set about half a unit below.
ORACLE_FAILS_FROM_Q = {"oscillator": 19.0, "pho": 16.5, "coulomb": 10.0}
# 1/r also fails below this q (d = 2, L = 0, mu_1 + mu_2 near -1/2): the
# error grows from 1.0e-3 at q = 0.16 to 2.9e-3 at q = 0.002.
COULOMB_FAILS_BELOW_Q = 0.2
CLI_COMMANDS = ("spectrum", "density", "figure", "verify")
FIGURE_IDS = ("1a", "1b", "2a", "2b", "2c", "3a", "3b")
# argv prefix that runs the `dunkl-spectra` console script in a fresh
# process; after main returns, the child writes its peak resident memory
# (kB) as the last line of its standard error
CLI_ENTRY = [sys.executable, "-c",
             "import resource, sys; from dunkl_spectra.cli import main; "
             "code = main(); print(resource.getrusage(resource.RUSAGE_SELF)"
             ".ru_maxrss, file=sys.stderr); sys.exit(code)"]


# ---------------------------------------------------------------- inputs


class _Strata:
    """Endless stream of seeded permutations of a level set."""

    def __init__(self, rng, levels):
        self.rng, self.levels, self.queue = rng, list(levels), []

    def next(self):
        if not self.queue:
            self.queue = self.levels[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _factorial(rng, **levels):
    """Strata over every combination of the named levels, as dicts."""
    names = list(levels)
    return _Strata(rng, [dict(zip(names, combo))
                         for combo in itertools.product(*levels.values())])


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _angular(rng, d, two_l):
    """Random admissible (two_ell, parity) with sum(two_ell) = two_l."""
    odd = rng.choice([m for m in range(0, min(two_l, d) + 1)
                      if m % 2 == two_l % 2])
    e = [0] * d
    for axis in rng.sample(range(d), odd):
        e[axis] = 1
    two_ell = [e[0] + e[1]] + e[2:]
    for _ in range((two_l - odd) // 2):
        two_ell[rng.randrange(d - 1)] += 2
    return tuple(two_ell), tuple(1 - 2 * v for v in e)


def _constants(rng, tag):
    if tag == "oscillator":
        return {"omega": _log_uniform(rng, 0.5, 2.0)}
    if tag == "pho":
        return {"De": _log_uniform(rng, 0.5, 50.0),
                "re": _log_uniform(rng, 0.5, 2.0)}
    return {"e2": _log_uniform(rng, 0.5, 2.0)}


class _RadialDraws:
    """Radial configurations over one domain.

    `design` yields dicts fixing the tag and some of d, two_l and n jointly
    (a shuffled full factorial); the rest come from their own strata. Every
    stratum advances on every draw, so each one's stream is the same
    whichever keys the design fixes.
    """

    def __init__(self, rng, design, d_range, two_l_max, n_max):
        self.rng, self.design = rng, design
        self.strata = {"tag": _Strata(rng, POTENTIALS),
                       "d": _Strata(rng, range(d_range[0], d_range[1] + 1)),
                       "two_l": _Strata(rng, range(two_l_max + 1)),
                       "n": _Strata(rng, range(n_max + 1))}

    def draw(self, tag=None):
        rng = self.rng
        cell = dict(self.design.next())
        if tag:
            cell["tag"] = tag
        for key, strata in self.strata.items():
            cell.setdefault(key, strata.next())
        d = cell["d"]
        two_ell, parity = _angular(rng, d, cell["two_l"])
        tag = cell["tag"] if cell["tag"] in POTENTIALS else "oscillator"
        return {"potential": tag,
                "consts": _constants(rng, tag),
                "d": d, "mu": tuple(rng.uniform(*MU_RANGE) for _ in range(d)),
                "two_ell": two_ell, "parity": parity, "n": cell["n"],
                "hbar": _log_uniform(rng, 0.5, 2.0),
                "mass": _log_uniform(rng, 0.5, 2.0),
                "kind": "cartesian" if cell["tag"] == "cartesian" else "radial"}


def tabulate_draws(rng):
    # cost is set by (potential or Cartesian, n): cover those jointly
    design = _factorial(rng, tag=POTENTIALS + ("cartesian",), n=range(25))
    return _RadialDraws(rng, design, (2, 8), 6, 24)


def oracle_draws(rng):
    # pass or fail is set by (potential, d, L): cover those jointly
    design = _factorial(rng, tag=POTENTIALS, d=range(2, 13), two_l=range(5))
    return _RadialDraws(rng, design, (2, 12), 4, 0)


def radial_extent(spec):
    """A box that holds the state: its variable reaches ~4n + 2b + margin."""
    S = sum(spec["mu"])
    L = sum(spec["two_ell"]) / 2.0
    c = spec["d"] - 1.0 + 2.0 * S
    n, hbar, mass, k = spec["n"], spec["hbar"], spec["mass"], spec["consts"]
    if spec["potential"] == "coulomb":
        kappa = n + 2.0 * L + S + (spec["d"] - 1.0) / 2.0
        eta = mass * k["e2"] / (hbar ** 2 * kappa)
        return (4.0 * n + 2.0 * (4.0 * L + c) + 30.0) / (2.0 * eta)
    if spec["potential"] == "oscillator":
        scale = mass * k["omega"] / hbar
    else:
        scale = 2.0 * math.sqrt(k["De"] * mass) / (k["re"] * hbar)
    return math.sqrt((4.0 * n + 2.0 * c + 8.0 * L + 40.0) / scale)


def _tabulate_inputs(rng):
    draws = tabulate_draws(rng)
    while True:
        spec = draws.draw()
        n = spec["n"]
        if spec["kind"] == "cartesian":
            d = spec["d"]
            split = [0] * d
            for _ in range(n):
                split[rng.randrange(d)] += 1
            a = math.sqrt(spec["hbar"] / (spec["mass"] * spec["consts"]["omega"]))
            spec["axes"] = tuple(
                (nj, mu, rng.choice((1, -1)), a * math.sqrt(4.0 * nj + 30.0),
                 2 * (50 + 10 * nj))
                for nj, mu in zip(split, spec["mu"]))
        else:
            spec["r_max"] = radial_extent(spec)
            spec["npts"] = 200 + 20 * n
            spec["ntheta"] = 64 + 16 * sum(spec["two_ell"])
        yield spec


def _oracle_inputs(rng):
    draws = oracle_draws(rng)
    while True:
        yield draws.draw()


def cli_argv(spec):
    # `--flag=value`, since argparse reads "-0.2,0.3" as an option name
    flags = {"potential": spec["potential"], "d": spec["d"],
             "mu": ",".join(repr(float(m)) for m in spec["mu"]),
             "ell": ",".join(f"{t}/2" for t in spec["two_ell"]),
             "parity": ",".join(f"{s:+d}" for s in spec["parity"]),
             "hbar": repr(spec["hbar"]), "mass": repr(spec["mass"]),
             **{key: repr(value) for key, value in spec["consts"].items()}}
    return [f"--{key}={value}" for key, value in flags.items()]


def cli_inputs(rng):
    tab = _RadialDraws(rng, _factorial(rng, tag=POTENTIALS, n=range(25)),
                       (2, 8), 6, 24)
    ora = oracle_draws(rng)
    mix = _Strata(rng, [(c, f) for c in CLI_COMMANDS for f in ("csv", "json")])
    while True:
        cmd, fmt = mix.next()
        if cmd == "figure":
            spec = {"fig": rng.choice(FIGURE_IDS)}
            argv = ["figure", f"--id={spec['fig']}"]
        elif cmd == "verify":
            spec = ora.draw()
            argv = ["verify"] + cli_argv(spec)
        else:
            spec = tab.draw()
            argv = [cmd] + cli_argv(spec)
            if cmd == "spectrum":
                spec["levels"] = spec["n"] + 1
                argv += [f"--levels={spec['levels']}"]
            else:
                spec["r_max"] = radial_extent(spec)
                spec["npts"] = rng.randrange(64, 513)
                argv += [f"--n={spec['n']}", f"--rmax={spec['r_max']!r}",
                         f"--grid={spec['npts']}"]
        spec.update(cmd=cmd, fmt=fmt, argv=argv + [f"--format={fmt}"])
        yield spec


INPUTS = {"tabulate": _tabulate_inputs, "oracle_sweep": _oracle_inputs,
          "cli_cold": cli_inputs}


def make_inputs(workload, seed):
    """The endless stream of op inputs of a workload for one seed."""
    return INPUTS[workload](random.Random(f"{workload}:{seed}"))


def first_inputs(workload, seed, count):
    """The first `count` op inputs of a workload for one seed."""
    return list(itertools.islice(make_inputs(workload, seed), count))


# ------------------------------------------------------------ library calls


def _potential(spec):
    k = spec["consts"]
    if spec["potential"] == "oscillator":
        return spectra.Oscillator(omega=k["omega"])
    if spec["potential"] == "pho":
        return spectra.Pseudoharmonic(D_e=k["De"], r_e=k["re"])
    return spectra.Coulomb(e2=k["e2"])


def library_inputs(spec):
    params = core.DeformationParams(d=spec["d"], mu=spec["mu"])
    state = polar.AngularState(two_ell=spec["two_ell"],
                               parity=core.ParityVector(spec["parity"]))
    return _potential(spec), params, state


def radial_grid(spec):
    return np.linspace(spec["r_max"] / spec["npts"], spec["r_max"], spec["npts"])


def theta_grid(spec, j):
    return np.linspace(0.0, (2.0 if j == 1 else 1.0) * math.pi, spec["ntheta"])


def tabulate_op(spec):
    if spec["kind"] == "cartesian":
        omega = spec["consts"]["omega"]
        return [cartesian.wavefunction_1d(nj, mu, s, omega,
                                          np.linspace(-xmax, xmax, npts),
                                          spec["hbar"], spec["mass"])
                for nj, mu, s, xmax, npts in spec["axes"]]
    potential, params, state = library_inputs(spec)
    sol = spectra.radial_solution(potential, spec["n"], state, params,
                                  spec["hbar"], spec["mass"])
    rho = spectra.reduced_density(sol, radial_grid(spec))
    angular = [polar.theta_eigenfunction(j, state, params, theta_grid(spec, j))
               for j in range(1, spec["d"])]
    return sol, rho, angular


def oracle_config(tag):
    k, tol, n_points = ORACLE_SETTINGS[tag]
    return verify.DiscretizationConfig(n_points=n_points), k, tol


def oracle_op(spec):
    """One oracle report plus the number of tail-leak warnings it raised."""
    potential, params, state = library_inputs(spec)
    cfg, k, tol = oracle_config(spec["potential"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", errors.TailLeakWarning)
        report = verify.oracle_report(potential, params, state, cfg, k, tol,
                                      spec["hbar"], spec["mass"])
    return report, sum(issubclass(w.category, errors.TailLeakWarning)
                       for w in caught)


def cli_op(spec, env, cwd):
    """(exit code, stdout, stderr tail, peak RSS in kB) of one CLI process."""
    proc = subprocess.run(CLI_ENTRY + spec["argv"], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=150)
    head, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    if not last.isdigit():
        head, last = proc.stderr, "0"
    return proc.returncode, proc.stdout, head[-400:], int(last)


OPS = {"tabulate": tabulate_op, "oracle_sweep": oracle_op}


# ------------------------------------------------------------------ checks


def _sample(rng, size, count, extra):
    return sorted(set(rng.sample(range(size), min(count, size))) | set(extra))


def _peak_error(values, idx, ref_values):
    return reference.peak_relative_error([float(values[i]) for i in idx],
                                         ref_values)


def coulomb_refused(spec):
    if spec.get("potential") != "coulomb" or spec.get("kind") != "radial":
        return False
    c = spec["d"] - 1.0 + 2.0 * sum(spec["mu"])
    return 2.0 * sum(spec["two_ell"]) + c <= 0.0


def raised_verdict(spec, message):
    """Verdict on an op that raised `message` ("ExceptionType: text")."""
    if coulomb_refused(spec) and message.startswith(("DomainError",
                                                      "InvalidStateError")):
        return True, f"coulomb_c_nonpositive: {message}"
    return False, message


def check_tabulate(spec, out, rng):
    if spec["kind"] == "cartesian":
        for axis, psi in zip(spec["axes"], out):
            nj, mu, s, xmax, npts = axis
            x = np.linspace(-xmax, xmax, npts)
            rho = np.abs(x) ** (2.0 * mu) * np.asarray(psi) ** 2
            idx = _sample(rng, npts, 6, [int(np.argmax(rho))])
            ref = reference.axis_density(nj, mu, s, spec["consts"]["omega"],
                                         spec["hbar"], spec["mass"], x[idx])
            err = _peak_error(rho, idx, ref)
            if not err <= reference.DENSITY_TOL:
                return False, f"axis density off by {err:.2e} of its peak"
        return None
    sol, rho, angular = out
    e_ref = reference.energy(spec, spec["n"])
    if not abs(sol.energy - e_ref) <= reference.ENERGY_TOL * abs(e_ref):
        return False, f"energy {sol.energy!r} against reference {e_ref!r}"
    r = radial_grid(spec)
    idx = _sample(rng, len(r), 6, [int(np.argmax(rho))])
    err = _peak_error(rho, idx, reference.reduced_density(spec, r[idx]))
    if not err <= reference.DENSITY_TOL:
        return False, f"density off by {err:.2e} of its peak"
    for j, values in enumerate(angular, start=1):
        idx = _sample(rng, spec["ntheta"], 4, [int(np.argmax(np.abs(values)))])
        ref = reference.theta_eigenfunction(spec, j, theta_grid(spec, j)[idx])
        err = _peak_error(values, idx, ref)
        if not err <= reference.DENSITY_TOL:
            return False, f"angular level {j} off by {err:.2e} of its peak"
    return None


def oracle_verdict(spec, report):
    """Independent pass/fail of a report, or an unexpected-failure reason."""
    tol = ORACLE_SETTINGS[spec["potential"]][1]
    ok = True
    for n, analytic, numeric in zip(report.levels, report.analytic,
                                    report.numeric):
        e_ref = reference.energy(spec, n)
        if not abs(analytic - e_ref) <= reference.ENERGY_TOL * abs(e_ref):
            return None, f"level {n}: closed form {analytic!r} vs {e_ref!r}"
        ok = ok and abs(numeric - e_ref) <= tol * abs(e_ref)
    return ok, None


def oracle_known_regime(spec):
    """Whether the oracle is known to fail at this configuration."""
    q = reference.weight_exponent(spec)
    if spec["potential"] == "coulomb" and q < COULOMB_FAILS_BELOW_Q:
        return True
    return q >= ORACLE_FAILS_FROM_Q[spec["potential"]]


def oracle_failure(spec, what):
    """Verdict on an oracle report that fails honestly."""
    q = reference.weight_exponent(spec)
    if oracle_known_regime(spec):
        return True, f"oracle_outside_tolerance at q = {q:.3f}: {what}"
    return False, f"oracle fails at q = {q:.3f}, outside the known regime: {what}"


def check_oracle(spec, out, rng):
    report, _ = out
    ok, reason = oracle_verdict(spec, report)
    if reason:
        return False, reason
    if ok != report.passed:
        return False, (f"report says passed={report.passed}, reference "
                       f"says {ok}")
    if not ok:
        return oracle_failure(spec, f"max_rel_err {report.max_rel_err:.3g} > "
                                    f"{report.tolerance:g}")
    return None


class ParseError(ValueError):
    pass


def parse_output(fmt, text):
    """Rows of a CLI document as dicts of strings (csv) or values (json)."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"json: {exc}") from None
        return doc["levels"] or doc["samples"]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows:
        raise ParseError("csv: no header")
    header, rows = rows[0], rows[1:]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"csv: row {i} has {len(row)} fields under a "
                             f"{len(header)}-column header")
    return [dict(zip(header, row)) for row in rows]


def _to_value(text):
    if isinstance(text, str):
        if text in ("true", "false"):
            return text == "true"
        return float(text) if any(ch in text for ch in ".en") else int(text)
    return text


def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return struct.pack("<d", float(a)) == struct.pack("<d", float(b))
    return a == b


def _figure_rows(fig):
    """The rows of a figure, rebuilt from the public API."""
    rows = []
    if fig in ("1a", "1b"):
        mu = 0.4 if fig == "1a" else -0.4
        for d in (3, 4, 5, 6):
            params = core.DeformationParams.uniform(d, mu)
            state = polar.AngularState.from_total(d, 0.0)
            rows += [{"d": d, "n": n, "energy": float(spectra.oscillator_energy(
                n, state, params, omega=1.0))} for n in range(8)]
    elif fig in ("2a", "2b", "2c"):
        d = {"2a": 3, "2b": 4, "2c": 5}[fig]
        for mu in (-0.4, 0.0, 0.4):
            params = core.DeformationParams.uniform(d, mu)
            state = polar.AngularState.from_total(d, 1.0)
            sol = spectra.radial_solution(spectra.Oscillator(omega=1.0), 1,
                                          state, params)
            r = np.linspace(8.0 / 400, 8.0, 400)
            rows += [{"mu_value": mu, "r": float(ri), "rho": float(vi)}
                     for ri, vi in zip(r, spectra.reduced_density(sol, r))]
    else:
        mu = 0.4 if fig == "3a" else -0.4
        for d in (3, 4, 5, 6):
            params = core.DeformationParams.uniform(d, mu)
            state = polar.AngularState.from_total(d, 1.0)
            ground = spectra.coulomb_energy(0, state, params, e2=1.0)
            for n in range(21):
                e = spectra.coulomb_energy(n, state, params, e2=1.0)
                rows.append({"d": d, "n": n, "energy": float(e),
                             "ratio": float(abs(e / ground))})
    return rows


def library_rows(spec):
    """What the CLI must print for this op, from the same library calls."""
    cmd = spec["cmd"]
    if cmd == "figure":
        return _figure_rows(spec["fig"])
    potential, params, state = library_inputs(spec)
    hbar, mass = spec["hbar"], spec["mass"]
    if cmd == "spectrum":
        return [{"n": n, "energy": float(spectra.bound_energy(
            potential, n, state, params, hbar, mass))}
            for n in range(spec["levels"])]
    if cmd == "density":
        sol = spectra.radial_solution(potential, spec["n"], state, params,
                                      hbar, mass)
        r = radial_grid(spec)
        return [{"r": float(ri), "rho": float(vi)}
                for ri, vi in zip(r, spectra.reduced_density(sol, r))]
    report, _ = oracle_op(spec)
    return [{"n": n, "energy": a, "numeric": x,
             "rel_err": abs(x - a) / abs(a), "tolerance": report.tolerance,
             "passed": report.passed}
            for n, a, x in zip(report.levels, report.analytic, report.numeric)]


def compare_rows(got, want):
    """None when every library value appears bit for bit, else a reason."""
    if len(got) != len(want):
        return f"{len(got)} rows, library has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        for key, value in w.items():
            if key not in g:
                return f"row {i} lacks {key}"
            parsed = _to_value(g[key])
            if not _same(parsed, value):
                return f"row {i} {key}: printed {g[key]!r}, library {value!r}"
    return None


def check_cli(spec, out, rng):
    code, stdout, stderr = out[:3]
    cmd, fmt = spec["cmd"], spec["fmt"]
    if code == 3 and coulomb_refused(spec):
        return True, f"coulomb_c_nonpositive: exit 3: {stderr.strip()[-200:]}"
    if code not in (0, 1) or (code == 1 and cmd != "verify"):
        return False, f"exit {code}: {stderr.strip()[-200:]}"
    try:
        rows = parse_output(fmt, stdout)
    except ParseError as exc:
        known = cmd == "verify" and fmt == "csv" and "fields under" in str(exc)
        return known, ("verify_csv_unquoted: " if known else "") + str(exc)
    want = library_rows(spec)
    mismatch = compare_rows(rows, want)
    if mismatch:
        return False, mismatch
    if code == 1:
        if all(row["passed"] for row in want):
            return False, "verify exited 1 but every level passed"
        return oracle_failure(spec, "exit 1")
    if cmd == "verify" and not all(row["passed"] for row in want):
        return False, "verify exited 0 on a failing report"
    return None


CHECKS = {"tabulate": check_tabulate, "oracle_sweep": check_oracle,
          "cli_cold": check_cli}


def describe(spec):
    """The inputs of an op in one line, for the failure list."""
    if "argv" in spec:
        return "dunkl-spectra " + " ".join(spec["argv"])
    keep = ("kind", "potential", "consts", "d", "mu", "two_ell", "parity", "n",
            "hbar", "mass")
    return json.dumps({k: spec[k] for k in keep if k in spec})
