"""One benchmark process: import the package, make the inputs, run the
closed loop, then check every output.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode {setup,run} [--trace 1] [--ops N] --out result.json

It stamps ``ready_at`` (``time.monotonic()``) once the package is imported
and the seeded input stream exists, so the parent can time set-up from
process start. ``--mode setup`` stops there. Inputs are drawn from the
stream between ops, outside the op timer, so a run lasts its full T seconds
whatever the speed. ``--ops N`` runs exactly the first N ops instead of
running for T seconds (the untraced replay of a traced run). The result is
written as JSON to ``--out``; with ``--trace 1`` the spans are written next
to it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

from tracing import LAYERS, Tracer, instrument  # noqa: E402


def _import_package(tracer):
    if tracer is None:
        import dunkl_spectra
    else:
        with tracer.span("import.dunkl_spectra"):
            import dunkl_spectra
    if not os.path.abspath(dunkl_spectra.__file__).startswith(SRC + os.sep):
        sys.exit(f"dunkl_spectra imported from {dunkl_spectra.__file__}, "
                 f"not from {SRC}")


# A shared or frequency-scaled CPU can change speed by tens of percent over
# seconds, and interpreted code, LAPACK and process start-up do not slow
# down alike. So the loop times a fixed reference task that resembles the
# workload's hot path but never calls the package: interpreter arithmetic
# plus small numpy calls, a 3000-point scipy tridiagonal eigensolve, or,
# for cli_cold, whose ops are child processes, a child process that imports
# the package's dependencies (numpy, scipy.linalg, mpmath) and exits. The
# costlier tasks run after every few ops only. An op's time is scaled by
# REF_TASK_S over the median of the 11 reference times around it. Raw times
# are kept in the result file. (A 300-point eigensolve read up to 12% apart
# from process to process on the same ops; the 3000-point one up to 4%.)
REF_TASK_S = {"interpreter": 0.6e-3, "lapack": 5e-3, "child": 0.4}
REF_KIND = {"tabulate": "interpreter", "oracle_sweep": "lapack",
            "cli_cold": "child"}
REF_EVERY = {"interpreter": 1, "lapack": 5, "child": 3}
# An in-process op runs on one thread, so the process CPU time it takes is
# its cost without the moments the machine gave the CPU to others (on a
# shared VM those added 10-100 ms to a few ops per run, which set the
# tail). cli_cold's ops are child processes: they, and its reference child,
# are timed by the wall clock.
OP_CLOCK = {"tabulate": time.process_time, "oracle_sweep": time.process_time,
            "cli_cold": time.perf_counter}


def reference_task(kind, clock=time.perf_counter):
    """A function that runs the fixed `kind` task and returns its seconds
    by `clock`."""
    import numpy as np

    if kind == "child":
        cmd = [sys.executable, "-c", "import numpy, scipy.linalg, mpmath"]

        def task():
            subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    elif kind == "lapack":
        from scipy.linalg import eigh_tridiagonal

        diag, off = 2.0 + np.arange(3000) / 3000.0, -np.ones(2999)

        def task():
            eigh_tridiagonal(diag, off, select="i", select_range=(0, 3),
                             eigvals_only=True)
    else:
        x = np.linspace(0.0, 1.0, 256)

        def task():
            total = 0
            for i in range(6000):
                total += i * i
            for k in range(20):
                np.exp(-x) * np.sqrt(x + k)

    def timed():
        start = clock()
        task()
        return clock() - start
    return timed


def normalize(durations, ref_times, kind, half_window=5):
    """Op times at the speed where the reference task takes REF_TASK_S."""
    every = REF_EVERY[kind]
    out = []
    for i, t in enumerate(durations):
        j = i // every  # the reference timed right after op i, or before it
        window = ref_times[max(0, j - half_window):j + half_window + 1]
        out.append(t * REF_TASK_S[kind] / statistics.median(window))
    return out


def _tail(durations):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _loop(workload, inputs, seconds, ops, tracer):
    import workloads

    if workload == "cli_cold":
        env, cwd = dict(os.environ), ROOT

        def op(spec):
            if tracer is None:
                return workloads.cli_op(spec, env, cwd)
            with tracer.span("cli.process"):
                return workloads.cli_op(spec, env, cwd)
    else:
        op = workloads.OPS[workload]
    kind = REF_KIND[workload]
    clock = OP_CLOCK[workload]
    reference = reference_task(kind, clock)
    specs, durations, ref_times, outputs, raised = [], [], [], [], {}
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        if (i >= ops) if ops else (time.perf_counter() >= deadline):
            break
        spec = next(inputs)
        specs.append(spec)
        t0 = clock()
        try:
            if tracer is None:
                out = op(spec)
            else:
                tracer.op = i
                with tracer.span("bench.op"):
                    out = op(spec)
        except Exception as exc:  # a raising op is a counted failure
            out, raised[i] = None, f"{type(exc).__name__}: {exc}"
        durations.append(clock() - t0)
        outputs.append(out)
        if i % REF_EVERY[kind] == 0:
            ref_times.append(reference())
    return (specs, durations, ref_times, outputs, raised,
            time.perf_counter() - start)


def _check(workload, seed, inputs, outputs, raised):
    import workloads

    check = workloads.CHECKS[workload]
    failures = []
    for i, out in enumerate(outputs):
        if i in raised:
            verdict = workloads.raised_verdict(inputs[i], raised[i])
        else:
            verdict = check(inputs[i], out, random.Random(f"check:{seed}:{i}"))
        if verdict is not None:
            failures.append({"op": i, "known": verdict[0], "reason": verdict[1],
                             "inputs": workloads.describe(inputs[i])})
    return failures


def _layer_figures(args, tracer, specs, outputs):
    """Per-layer figures: from the loop's spans where the loop calls the
    layer, from the probes where it does not. Also says which is which."""
    import probes

    loop_ops = set(range(len(specs)))
    tabulated, reports = [], []
    if args.workload == "tabulate":
        tabulated = [(spec, out) for spec, out in zip(specs, outputs)
                     if out is not None and spec["kind"] == "radial"]
    if args.workload == "oracle_sweep":
        reports = [out for out in outputs if out is not None]
    layer = probes.from_spans(tracer, loop_ops, tabulated, reports,
                              random.Random(f"kummer:{args.seed}"))
    if args.workload == "cli_cold":
        layer["cli.bytes_out"] = statistics.median(
            len(out[1].encode()) for out in outputs if out is not None)
    source = dict.fromkeys(layer, "loop")
    tracer.enabled = True
    probed, probe_ops = probes.run(
        tracer, args.seed,
        os.path.join(os.path.dirname(args.out), f"probe_tmp_{os.getpid()}"),
        set(layer), tabulated)
    tracer.enabled = False
    for name, value in probed.items():
        layer.setdefault(name, value)
        source.setdefault(name, "probe")
    # self time of each layer in the loop (the import before it included);
    # a layer the loop never calls reads its self time in the probes
    loop_self = tracer.self_ms(loop_ops | {None})
    probe_self = tracer.self_ms(probe_ops)
    for name in ("import", "bench") + LAYERS:
        key = f"self_ms.{name}"
        if loop_self.get(name):
            layer[key], source[key] = loop_self[name], "loop"
        else:
            layer[key], source[key] = probe_self.get(name, 0.0), "probe"
    loop_spans = sum(s[4] in loop_ops for s in tracer.spans)
    layer["trace.spans_per_op"] = loop_spans / len(specs)
    return layer, source, loop_self


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()

    tracer = Tracer() if args.trace else None
    _import_package(tracer)
    import numpy, scipy, mpmath  # noqa: E401  (already loaded by the package)
    import workloads
    if tracer is not None:
        instrument(tracer)
    inputs = workloads.make_inputs(args.workload, args.seed)
    ready_at = time.monotonic()
    if args.mode == "setup":
        with open(args.out, "w") as fh:
            json.dump({"ready_at": ready_at}, fh)
        return

    specs, raw, ref_times, outputs, raised, loop_s = _loop(
        args.workload, inputs, args.seconds, args.ops, tracer)
    durations = normalize(raw, ref_times, REF_KIND[args.workload])
    # the CLI children report their own peak; the reference children are
    # not the workload's
    rss_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                 + [out[3] for out in outputs
                    if args.workload == "cli_cold" and out is not None])
    if tracer is not None:
        tracer.enabled = False  # the checks' own library calls are not traced
    failures = _check(args.workload, args.seed, specs, outputs, raised)
    tail, tail_pct, tail_n = _tail(durations)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ready_at": ready_at,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "mpmath": mpmath.__version__},
        "nproc": os.cpu_count(),
        # `failed`: ops whose outcome goes against the reference, a fault
        # of the package or of the benchmark; `known_defects`: ops that hit
        # a documented defect exactly as the reference predicts
        "attempted": len(durations),
        "failed": sum(not f["known"] for f in failures),
        "known_defects": sum(f["known"] for f in failures),
        "failures": failures, "loop_s": loop_s,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_tail_ms": tail * 1e3, "op_tail_pct": tail_pct,
        "op_tail_samples_beyond": tail_n,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": statistics.median(raw) * 1e3,
        "raw_op_tail_ms": _tail(raw)[0] * 1e3,
        "ref_task_ms": statistics.median(ref_times) * 1e3,
        "op_ms": [t * 1e3 for t in durations],
        "raw_op_ms": [t * 1e3 for t in raw],
        "ref_ms": [t * 1e3 for t in ref_times],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if tracer is not None:
        layer, source, loop_self = _layer_figures(args, tracer, specs, outputs)
        result.update(layer=layer, layer_source=source, loop_self_ms=loop_self)
        with open(args.out[:-5] + ".spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
