"""Benchmark of dunkl-spectra: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload {tabulate,oracle_sweep,cli_cold} \
        --seed N --seconds T --trace {0,1}

Run it from the root of a source checkout; it imports the package from
``src/`` and never from an installed copy. With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics. A table comes first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. Details of the run
(failing inputs, tail percentile, versions, spans) go to ``.bench_out/``.

Every process it starts runs single-threaded (OMP, OpenBLAS and MKL thread
counts set to 1), one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
import worker  # noqa: E402  (its reference tasks scale set-up time too)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170


# set in this process, so every process it starts inherits them
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_worker(args, seconds, mode, trace=0, ops=0):
    """Run one worker; return (seconds until it was ready, its result)."""
    tag = f"{args.workload}_seed{args.seed}_trace{trace}_{mode}{ops or ''}"
    out = os.path.join(OUT, f"{tag}.json")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--mode", mode, "--trace", str(trace), "--ops", str(ops),
           "--out", out]
    # CLOCK_MONOTONIC is shared by all processes, so the worker's ready
    # stamp and this start stamp are on one time line
    start = time.monotonic()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(out) as fh:
        res = json.load(fh)
    return res["ready_at"] - start, res


def setup_time(args, mode):
    """Set-up seconds of one fresh worker, raw and at reference speed.

    Set-up is mostly imports, so the reference is the workers' reference
    child, which imports the package's dependencies, run right after it.
    """
    raw, res = run_worker(args, args.seconds, mode)
    reference = worker.reference_task("child")()
    return raw, raw * worker.REF_TASK_S["child"] / reference, res


def _wall(cmd):
    start = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def import_metrics():
    """Fresh-interpreter import costs: bare start-up and -X importtime."""
    out = {"import.interpreter_s": statistics.median(
        _wall([sys.executable, "-c", "pass"]) for _ in range(5))}
    samples = {"dunkl_spectra": [], "scipy.linalg": [], "mpmath": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dunkl_spectra"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)$", line)
            if m and m.group(3) in samples:
                samples[m.group(3)].append(int(m.group(1)) / 1e6)
    names = {"dunkl_spectra": "package", "scipy.linalg": "scipy_linalg",
             "mpmath": "mpmath"}
    for mod, values in samples.items():
        out[f"import.{names[mod]}_s"] = statistics.median(values)
    return out


def end_to_end(args):
    run_worker(args, args.seconds, "setup")  # unmeasured: warms pyc and page cache
    samples = [setup_time(args, "setup")[:2] for _ in range(SETUP_REPEATS - 1)]
    *last, res = setup_time(args, "run")
    samples.append(tuple(last))
    res["setup_s"] = statistics.median(norm for _, norm in samples)
    res["raw_setup_s"] = statistics.median(raw for raw, _ in samples)
    res["setup_samples_s"] = samples
    res["ok_frac"] = 1.0 - (res["failed"] + res["known_defects"]) / res["attempted"]
    return res, {k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms",
                                     "ok_frac", "setup_s", "peak_rss_mb")}


def tracing_overhead(traced, untraced):
    """Summed op time traced minus untraced over the same ops, in seconds,
    and the standard error of that sum from the spread of the per-op
    differences. The op times are at reference speed (wall clock on
    cli_cold, whose traced parent only waits for its children, so there the
    figure is noise)."""
    diffs = [(a - b) / 1e3 for a, b in zip(traced["op_ms"], untraced["op_ms"])]
    noise = statistics.stdev(diffs) * len(diffs) ** 0.5 if len(diffs) > 1 else 0.0
    return sum(diffs), noise


def per_layer(args):
    """A traced run, its untraced replay over the same ops, import probes."""
    _, res = run_worker(args, args.seconds / 2.0, "run", trace=1)
    _, replay = run_worker(args, args.seconds, "run", ops=res["attempted"])
    res["untraced_loop_s"] = replay["loop_s"]
    layer = dict(res["layer"])
    layer["trace.overhead_s"], layer["trace.overhead_noise_s"] = (
        tracing_overhead(res, replay))
    layer.update(import_metrics())
    return res, layer


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("tabulate", "oracle_sweep", "cli_cold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "dunkl_spectra", "__init__.py")):
        sys.exit(f"no package source under {SRC}: run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    os.environ.update(SINGLE_THREAD)

    res, values = (per_layer if args.trace else end_to_end)(args)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} nproc={res['nproc']} "
          + " ".join(f"{k}={v}" for k, v in res["versions"].items()))
    print(f"attempted={res['attempted']} failed={res['failed']} "
          f"known_defects={res['known_defects']} "
          f"tail=p{res['op_tail_pct']:.1f} "
          f"({res['op_tail_samples_beyond']} samples beyond)")
    for f in res["failures"]:
        print(f"  op {f['op']} ({'known defect' if f['known'] else 'FAILED'}"
              f"): {f['reason']} <- {f['inputs']}")
    if args.trace:
        print("loop self time by layer (ms): " + ", ".join(
            f"{k}={v:.1f}" for k, v in sorted(res["loop_self_ms"].items())))
    source = res.get("layer_source", {})
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']} "
              f"{source.get(name, '')}")
    res["metrics"] = metrics
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}"
                                f"_trace{args.trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
