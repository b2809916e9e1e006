"""Per-layer figures of a traced run.

``from_spans`` reads the per-layer figures from the spans of a set of ops.
The worker reads them from the workload loop first. A figure the loop has
no spans for comes from ``run``: direct calls into the package on seeded
inputs, made after the loop with tracing on. Their spans carry op ids that
start with ``"probe"``, so they never count in the loop's figures, and
their timings are read from those spans like the loop's. Three groups of
figures are always probed, because no workload makes those calls: the
``build_quadrature`` sizes, the warm ``radial_solution`` and the
in-process ``cli.main``.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics

import numpy as np

from dunkl_spectra import cli, specfun, spectra

import reference
import workloads

QUADRATURE_SIZES = (8, 24, 64)
PROBE_STATES = 2  # probed tabulate states per kind (each potential, Cartesian)


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _kummer_variable(sol, r):
    if isinstance(sol.potential, spectra.Coulomb):
        return 2.0 * sol.decay_scale * r, r ** sol.leading_exponent * np.exp(
            -sol.decay_scale * r)
    u = sol.decay_scale * r * r
    return u, u ** sol.leading_exponent * np.exp(-0.5 * u)


def kummer_error(tabulated, rng):
    """Largest error of M(a, b, u) on the tabulated states' own u grids.

    The error of the enveloped function u^p e^{-u/2} M relative to its peak,
    which is what the density inherits; plain relative error is unbounded at
    the zeros of M.
    """
    worst = 0.0
    for spec, (sol, _, _) in tabulated:
        u, envelope = _kummer_variable(sol, workloads.radial_grid(spec))
        m = specfun.kummer_m(sol.kummer_a, sol.kummer_b, u)
        idx = sorted(set(rng.sample(range(len(u)), 12))
                     | {int(np.argmax(np.abs(m * envelope)))})
        ref = np.array(reference.kummer(sol.kummer_a, sol.kummer_b, u[idx]))
        worst = max(worst, float(np.max(np.abs(m[idx] - ref) * envelope[idx])
                                 / np.max(np.abs(ref) * envelope[idx])))
    return worst


def verify_figures(tracer, ops, reports):
    """Figures of the verify layer over the oracle reports of `ops`."""
    eig = tracer.durations_ms("verify.radial_eigenvalues", ops)
    if not eig:
        return {}
    points = tracer.count("verify.radial_eigenvalues", ops)
    return {
        "verify.radial_eigenvalues_ms": statistics.median(eig),
        "verify.grid_points": points,
        "verify.points_per_ms": points / sum(eig),
        "verify.tail_warnings": sum(w for _, w in reports),
        "verify.pass_frac": sum(r.passed for r, _ in reports) / len(reports),
        "verify.max_rel_err": max(r.max_rel_err for r, _ in reports),
    }


def from_spans(tracer, ops, tabulated, reports, rng):
    """Every figure that the spans of `ops` give.

    `tabulated` holds the (input, output) pairs of the radial tabulate ops
    among them and `reports` their oracle reports with tail-warning counts.
    """
    t = tracer
    out = {
        "spectra.radial_solution_cold_ms": _median(
            t.durations_ms("spectra.radial_solution", ops)),
        "spectra.reduced_density_us_per_point": t.us_per_point(
            "spectra.reduced_density", ops),
        "spectra.bound_energy_us": _median(
            t.durations_ms("spectra.bound_energy", ops), 1e3),
        # M(a, b, u) on the state's own grid, not on the norm's quadrature nodes
        "specfun.kummer_m_us_per_point": t.us_per_point(
            "specfun.kummer_m", ops, within="spectra.reduced_density"),
        "specfun.laguerre_us_per_point": t.us_per_point("specfun.laguerre", ops),
        "specfun.jacobi_us_per_point": t.us_per_point("specfun.jacobi", ops),
        "polar.theta_eigenfunction_us_per_point": t.us_per_point(
            "polar.theta_eigenfunction", ops),
        "cartesian.wavefunction_1d_ms": _median(
            t.durations_ms("cartesian.wavefunction_1d", ops)),
    }
    if tabulated:
        enabled, t.enabled = t.enabled, False  # the reference's calls are untimed
        out["specfun.kummer_m_max_rel_err"] = kummer_error(tabulated, rng)
        t.enabled = enabled
    out.update(verify_figures(tracer, ops, reports))
    return {k: v for k, v in out.items() if v is not None}


def _tabulate_states(seed):
    """Seeded tabulate inputs, PROBE_STATES of each potential and Cartesian."""
    wanted = {tag: PROBE_STATES for tag in workloads.POTENTIALS + ("cartesian",)}
    for spec in workloads.make_inputs("tabulate", f"probe:{seed}"):
        tag = "cartesian" if spec["kind"] == "cartesian" else spec["potential"]
        if wanted[tag] and not workloads.coulomb_refused(spec):
            wanted[tag] -= 1
            yield spec
        if not any(wanted.values()):
            return


def _cli_main(tracer, seed, scratch):
    """`cli.main(argv)` in process, one csv and one json per subcommand."""
    todo = {(cmd, fmt) for cmd in workloads.CLI_COMMANDS
            for fmt in ("csv", "json")}
    sizes = []
    for spec in workloads.make_inputs("cli_cold", f"probe:{seed}"):
        if (spec["cmd"], spec["fmt"]) not in todo or workloads.coulomb_refused(spec):
            continue
        todo.discard((spec["cmd"], spec["fmt"]))
        os.makedirs(scratch, exist_ok=True)
        target = os.path.join(scratch, "out")
        tracer.op = f"probe.cli.{spec['cmd']}"
        cli.main(spec["argv"] + ["--output", target])
        # some subcommands derive their file names from --output
        sizes.append(sum(os.path.getsize(os.path.join(scratch, name))
                         for name in os.listdir(scratch)))
        shutil.rmtree(scratch)
        if not todo:
            break
    out = {f"cli.main_ms.{cmd}": statistics.median(tracer.durations_ms(
        "cli.main", {f"probe.cli.{cmd}"})) for cmd in workloads.CLI_COMMANDS}
    out["cli.bytes_out"] = statistics.median(sizes)
    return out


def run(tracer, seed, scratch, have, tabulated):
    """Probe the figures the loop did not give.

    `have` holds the names of the figures the loop gave and `tabulated` the
    loop's radial tabulate ops, whose states the warm probe calls again.
    Returns the probed figures and the op ids of every probe span.
    """
    rng = random.Random(f"probe:{seed}")
    out = {}
    if "spectra.radial_solution_cold_ms" not in have:
        tracer.op = "probe.tabulate"
        tabulated = []
        for spec in _tabulate_states(seed):
            result = workloads.tabulate_op(spec)
            if spec["kind"] == "radial":
                tabulated.append((spec, result))
        out.update(from_spans(tracer, {"probe.tabulate"}, tabulated, [], rng))
    # a second call with the same arguments, so every norm cache hits; the
    # last states tabulated are the ones still in the caches
    tracer.op = "probe.warm"
    for spec, _ in tabulated[-12:]:
        potential, params, state = workloads.library_inputs(spec)
        spectra.radial_solution(potential, spec["n"], state, params,
                                spec["hbar"], spec["mass"])
    out["spectra.radial_solution_warm_us"] = statistics.median(
        tracer.durations_ms("spectra.radial_solution", {"probe.warm"})) * 1e3
    if "spectra.bound_energy_us" not in have:
        tracer.op = "probe.energy"
        for spec, _ in tabulated:
            potential, params, state = workloads.library_inputs(spec)
            for n in range(25):
                spectra.bound_energy(potential, n, state, params,
                                     spec["hbar"], spec["mass"])
        out["spectra.bound_energy_us"] = statistics.median(
            tracer.durations_ms("spectra.bound_energy", {"probe.energy"})) * 1e3
    for variant, npoints in itertools.product(("exp_r2", "exp_r"),
                                              QUADRATURE_SIZES):
        name = f"specfun.build_quadrature_ms.{variant}.n{npoints}"
        tracer.op = f"probe.{name}"
        for _ in range(2):
            specfun.build_quadrature(rng.uniform(0.5, 10.0), variant, npoints)
        out[name] = min(tracer.durations_ms("specfun.build_quadrature",
                                            {tracer.op}))
    if "verify.radial_eigenvalues_ms" not in have:
        tracer.op = "probe.oracle"
        draws = workloads.oracle_draws(rng)
        reports = [workloads.oracle_op(draws.draw(tag))
                   for tag in workloads.POTENTIALS]
        out.update(verify_figures(tracer, {"probe.oracle"}, reports))
    cli_figures = _cli_main(tracer, seed, scratch)
    if "cli.bytes_out" in have:
        del cli_figures["cli.bytes_out"]
    out.update(cli_figures)
    probe_ops = {s[4] for s in tracer.spans
                 if isinstance(s[4], str) and s[4].startswith("probe")}
    return out, probe_ops
