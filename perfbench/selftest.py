"""Self-tests of the benchmark's checks: each must flag a perturbed value.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from dunkl_spectra import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

RNG = random.Random(0)


def _radial(tag, **extra):
    spec = {"potential": tag, "d": 3, "mu": (0.3, -0.2, 0.1),
            "two_ell": (2, 0), "parity": (1, 1, 1), "n": 5, "hbar": 1.1,
            "mass": 0.9, "consts": {"oscillator": {"omega": 1.3},
                                    "pho": {"De": 4.0, "re": 1.2},
                                    "coulomb": {"e2": 0.8}}[tag]}
    spec.update(extra)
    return spec


def _cli_text(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        code = cli.main(spec["argv"] + ["--output", path])
        with open(path) as fh:
            return code, fh.read()


def _bump_first_float(text, fmt, key):
    """Move the first printed `key` value up by one ulp."""
    lines = text.splitlines(keepends=True)
    marker = f'"{key}": '
    for i, line in enumerate(lines):
        if fmt == "json" and marker in line:
            head, tail = line.split(marker)
            value = tail.rstrip(",\n")
            bumped = repr(math.nextafter(float(value), math.inf))
            lines[i] = head + marker + bumped + tail[len(value):]
            return "".join(lines)
        if fmt == "csv" and not line.startswith("#") and "." in line:
            cells = line.rstrip("\n").split(",")
            cells[-1] = f"{math.nextafter(float(cells[-1]), math.inf):.16e}"
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError("no float found")


class CliCheck(unittest.TestCase):
    def _spec(self, cmd, fmt):
        spec = _radial("pho", cmd=cmd, fmt=fmt, levels=4, r_max=9.0, npts=50)
        argv = [cmd] + workloads.cli_argv(spec) + [f"--format={fmt}"]
        if cmd == "spectrum":
            argv.append("--levels=4")
        else:
            argv += ["--n=5", "--rmax=9.0", "--grid=50"]
        spec["argv"] = argv
        return spec

    def test_exact_output_passes_and_one_ulp_fails(self):
        for cmd, key in (("spectrum", "energy"), ("density", "rho")):
            for fmt in ("csv", "json"):
                spec = self._spec(cmd, fmt)
                code, text = _cli_text(spec)
                self.assertEqual(code, 0)
                self.assertIsNone(workloads.check_cli(spec, (0, text, ""), RNG))
                verdict = workloads.check_cli(
                    spec, (0, _bump_first_float(text, fmt, key), ""), RNG)
                self.assertEqual(verdict[0], False, (cmd, fmt, verdict))

    def test_nonzero_exit_fails(self):
        spec = self._spec("spectrum", "json")
        _, text = _cli_text(spec)
        self.assertEqual(workloads.check_cli(spec, (3, text, "error"), RNG)[0],
                         False)

    def test_unquoted_verify_csv_is_the_known_defect(self):
        spec = workloads.first_inputs("oracle_sweep", 1, 1)[0]
        spec.update(cmd="verify", fmt="csv",
                    argv=["verify"] + workloads.cli_argv(spec) + ["--format=csv"])
        code, text = _cli_text(spec)
        known, reason = workloads.check_cli(spec, (code, text, ""), RNG)
        self.assertTrue(known)
        self.assertIn("verify_csv_unquoted", reason)


class DensityCheck(unittest.TestCase):
    def test_radial_density_perturbed_by_1e8_fails(self):
        for tag in workloads.POTENTIALS:
            spec = _radial(tag, kind="radial")
            spec.update(r_max=workloads.radial_extent(spec), npts=300, ntheta=64)
            sol, rho, angular = workloads.tabulate_op(spec)
            self.assertIsNone(workloads.check_tabulate(
                spec, (sol, rho, angular), RNG))
            verdict = workloads.check_tabulate(
                spec, (sol, rho * (1.0 + 1e-8), angular), RNG)
            self.assertEqual(verdict[0], False, tag)
            bad_angle = [angular[0] * (1.0 + 1e-8)] + angular[1:]
            self.assertEqual(workloads.check_tabulate(
                spec, (sol, rho, bad_angle), RNG)[0], False, tag)

    def test_axis_density_perturbed_by_1e8_fails(self):
        spec = next(s for s in workloads.make_inputs("tabulate", 2)
                    if s["kind"] == "cartesian")
        out = workloads.tabulate_op(spec)
        self.assertIsNone(workloads.check_tabulate(spec, out, RNG))
        bad = [psi * (1.0 + 0.5e-8) for psi in out]
        self.assertEqual(workloads.check_tabulate(spec, bad, RNG)[0], False)


class RefusedCoulombState(unittest.TestCase):
    def test_refusal_at_nonpositive_c_is_the_known_defect(self):
        spec = _radial("coulomb", kind="radial", d=2, mu=(-0.4, -0.3),
                       two_ell=(0,), parity=(1, 1), n=3)
        spec.update(r_max=workloads.radial_extent(spec), npts=300, ntheta=64)
        with self.assertRaises(ValueError) as ctx:
            workloads.tabulate_op(spec)
        message = f"{type(ctx.exception).__name__}: {ctx.exception}"
        known, reason = workloads.raised_verdict(spec, message)
        self.assertTrue(known, reason)
        spec["mu"] = (0.4, -0.3)
        self.assertFalse(workloads.raised_verdict(spec, message)[0])


class OracleCheck(unittest.TestCase):
    def setUp(self):
        self.spec = _radial("oscillator", n=0)
        self.report, self.warnings = workloads.oracle_op(self.spec)

    def test_passing_report_passes(self):
        self.assertTrue(self.report.passed)
        self.assertIsNone(workloads.check_oracle(
            self.spec, (self.report, self.warnings), RNG))

    def test_value_outside_tolerance_at_low_q_is_unexpected(self):
        # q = c + 4L = 2.4 + 4, far below the regime of the known defect
        numeric = list(self.report.numeric)
        numeric[1] *= 1.0 + 3.0 * self.report.tolerance
        bad = dataclasses.replace(self.report, numeric=tuple(numeric))
        self.assertFalse(bad.passed)
        known, reason = workloads.check_oracle(self.spec, (bad, 0), RNG)
        self.assertFalse(known, reason)
        self.assertIn("outside the known regime", reason)

    def test_failure_at_large_q_is_the_known_defect(self):
        # `dunkl-spectra verify --potential coulomb --d 4 --mu 0.5 --ell 1`:
        # q = 7 + 4 = 11, levels 1 and 2 off by about 13%
        spec = _radial("coulomb", d=4, mu=(0.5,) * 4, two_ell=(0, 0, 2),
                       parity=(1,) * 4, hbar=1.0, mass=1.0, consts={"e2": 1.0})
        report, warned = workloads.oracle_op(spec)
        self.assertFalse(report.passed)
        known, reason = workloads.check_oracle(spec, (report, warned), RNG)
        self.assertTrue(known, reason)
        self.assertIn("oracle_outside_tolerance", reason)

    def test_regime_edges(self):
        for tag, q_from in workloads.ORACLE_FAILS_FROM_Q.items():
            spec = _radial(tag)
            q = workloads.reference.weight_exponent(spec)
            self.assertLess(q, q_from, tag)
            self.assertFalse(workloads.oracle_known_regime(spec), tag)
        small = _radial("coulomb", d=2, mu=(-0.3, -0.17), two_ell=(0,),
                        parity=(1, 1))
        self.assertTrue(workloads.oracle_known_regime(small))

    def test_false_pass_is_unexpected(self):
        numeric = list(self.report.numeric)
        numeric[1] *= 1.0 + 3.0 * self.report.tolerance
        bad = dataclasses.replace(self.report, numeric=tuple(numeric),
                                  tolerance=1.0)
        known, reason = workloads.check_oracle(self.spec, (bad, 0), RNG)
        self.assertFalse(known, reason)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.INPUTS:
            a = workloads.first_inputs(name, 7, 40)
            self.assertEqual(a, workloads.first_inputs(name, 7, 40))
            self.assertNotEqual(a, workloads.first_inputs(name, 8, 40))

    def test_stream_never_runs_out(self):
        # however fast the package gets, a run draws inputs until its deadline
        for name in workloads.INPUTS:
            self.assertEqual(len(workloads.first_inputs(name, 7, 3000)), 3000)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        t = tracing.Tracer()
        t.spans = [["bench.op", 0, 100, -1, 0, 0],
                   ["spectra.radial_solution", 10, 60, 0, 0, 0],
                   ["specfun.kummer_m", 20, 50, 1, 0, 0]]
        got = t.self_ms({0})
        self.assertAlmostEqual(got["bench"], 50e-6)
        self.assertAlmostEqual(got["spectra"], 20e-6)
        self.assertAlmostEqual(got["specfun"], 30e-6)
        self.assertEqual(t.self_ms({"probe"}), {})

    def test_per_point_within_an_ancestor(self):
        t = tracing.Tracer()
        t.spans = [["spectra.radial_solution", 0, 100, -1, 0, 0],
                   ["specfun.kummer_m", 10, 30, 0, 0, 8],
                   ["spectra.reduced_density", 100, 400, -1, 0, 100],
                   ["spectra.radial_wavefunction", 110, 390, 2, 0, 0],
                   ["specfun.kummer_m", 120, 320, 3, 0, 100]]
        self.assertAlmostEqual(t.us_per_point(
            "specfun.kummer_m", {0}, within="spectra.reduced_density"), 2e-3)
        self.assertAlmostEqual(t.us_per_point("specfun.kummer_m", {0}),
                               220e-3 / 108)
        self.assertIsNone(t.us_per_point("specfun.laguerre", {0}))


if __name__ == "__main__":
    unittest.main()
