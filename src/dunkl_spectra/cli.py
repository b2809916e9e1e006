"""Command-line front end.

Four subcommands: `spectrum` prints closed-form bound-state energies,
`density` samples a reduced radial probability density, `verify` runs the
finite-element oracle against the closed forms, and `figure` emits the data
behind the standard plots.

Every subcommand runs one pipeline. Level rows come from `bound_energy`,
whose record refuses a level that is no bound state, density rows from
`reduced_density` on an even grid, verify rows from `oracle_report`; the
figures are level and density rows tagged with their curve. One writer
sends each document to stdout, to `--output`, or, for figures, to one file
per curve: CSV (comment header of `# key=value` lines, then a column
header, floats at 17 significant digits) or JSON (`{"meta": ...,
"levels": [...], "samples": [...]}`, schema shipped as output_schema.json
next to this module).

The CLI is a thin shell: every number it prints is produced by a library
call and serialized losslessly, so parsing the output recovers the library
values bit for bit. Each constant name of the classes in `POTENTIALS` is
one float flag, default 1.0, named by `_flag`, with the "help" metadata of
the first class that declares it; potentials that share a constant name
share its flag.

Exit codes: 0 success, 1 a verify comparison exceeded its tolerance,
2 usage error, 3 invalid physical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from dataclasses import fields
from itertools import product

import numpy as np

from .core import DeformationParams
from .errors import (ConvergenceError, DomainError, InvalidStateError,
                     check_levels)
from .polar import AngularState
from .spectra import (POTENTIALS, Coulomb, Oscillator, bound_energy,
                      radial_solution, reduced_density)
from .verify import DiscretizationConfig, oracle_report

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """Inconsistent flag combination detected after argparse."""


def _parse_half_token(tok: str) -> int:
    """One angular quantum number as a doubled integer; accepts '3/2' or '1.5'."""
    tok = tok.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) != 2:
                raise ValueError
            return int(num)
        value = float(tok)
    except ValueError:
        raise UsageError(f"cannot parse angular quantum number {tok!r}") from None
    doubled = round(2.0 * value)
    if abs(2.0 * value - doubled) > 1e-9:
        raise UsageError(f"angular quantum number {tok!r} is not a half-integer")
    return int(doubled)


def _per_axis(values: list, count: int, flag: str) -> list:
    """One entry broadcast to all count axes, or exactly count entries."""
    if len(values) == 1:
        values = values * count
    if len(values) != count:
        raise UsageError(f"--{flag} needs 1 or {count} entries, got {len(values)}")
    return values


def _parse_mu(text: str, d: int) -> tuple:
    try:
        values = [float(p.strip()) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse coupling list {text!r}") from None
    return tuple(_per_axis(values, d, "mu"))


def _parse_parity(text: str, count: int) -> tuple:
    table = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
    parts = _per_axis([p.strip() for p in text.split(",")], count, "parity")
    try:
        return tuple(table[p] for p in parts)
    except KeyError as exc:
        raise UsageError(f"parity entries must be +1 or -1, got {exc.args[0]!r}") from None


def _angular_state(args, d: int) -> AngularState:
    parity = _parse_parity(args.parity, d) if args.parity else (1,) * d
    if args.ell is None:
        return AngularState(two_ell=(0,) * (d - 1), parity=parity)
    tokens = args.ell.split(",")
    if len(tokens) == 1:
        two_ell = (_parse_half_token(tokens[0]),) + (0,) * (d - 2)
    elif len(tokens) == d - 1:
        two_ell = tuple(_parse_half_token(t) for t in tokens)
    else:
        raise UsageError(f"--ell needs 1 or {d - 1} entries, got {len(tokens)}")
    return AngularState(two_ell=two_ell, parity=parity)


def _flag(constant) -> str:
    """A potential constant's flag: the field name without '_' (D_e -> De)."""
    return constant.name.replace("_", "")


def _constants(args, tag: str) -> dict:
    """The potential's constants keyed by flag."""
    return {_flag(f): getattr(args, _flag(f)) for f in fields(POTENTIALS[tag])}


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _write(args, path, meta: dict, columns, rows, kind: str) -> None:
    """Write one document to path, or to stdout when path is None; kind
    ("levels" or "samples") names the JSON list that holds the rows."""
    meta = {"command": args.command, "format": args.format, **meta}
    with (open(path, "w", encoding="utf-8") if path
          else nullcontext(sys.stdout)) as stream:
        if args.format == "csv":
            for key, value in meta.items():
                stream.write(f"# {key}={_format_cell(value)}\n")
            stream.write(",".join(columns) + "\n")
            for row in rows:
                stream.write(",".join(_format_cell(row[c]) for c in columns)
                             + "\n")
        else:
            doc = {"meta": meta, "levels": [], "samples": []}
            doc[kind] = rows
            json.dump(doc, stream, indent=1)
            stream.write("\n")


def _inputs(args):
    """Parameters, angular state and potential of a spectrum or density run."""
    params = DeformationParams(d=args.d, mu=_parse_mu(args.mu or "0", args.d))
    tag = args.potential
    return (params, _angular_state(args, args.d),
            POTENTIALS[tag](*_constants(args, tag).values()))


def _meta(args, params: DeformationParams, state: AngularState,
          **extra) -> dict:
    """Metadata of a spectrum or density run: its inputs, extra, then the
    potential's constants."""
    return {"potential": args.potential, "d": params.d,
            "mu": ",".join(repr(m) for m in params.mu),
            "hbar": args.hbar, "mass": args.mass,
            "two_ell": ",".join(str(t) for t in state.two_ell),
            "parity": ",".join(f"{s:+d}" for s in state.parity.s),
            **extra, **_constants(args, args.potential)}


def _level_rows(potential, params: DeformationParams, state: AngularState,
                count: int, hbar: float = 1.0, mass: float = 1.0) -> list:
    """Rows {n, energy} of levels 0 .. count-1."""
    return [{"n": n, "energy": float(bound_energy(potential, n, state, params,
                                                  hbar, mass))}
            for n in range(check_levels(count, "levels"))]


def _density_rows(sol, r_max: float, npts: int) -> list:
    """Rows {r, rho} of the reduced density at npts even steps up to r_max."""
    r = np.linspace(r_max / npts, r_max, npts)
    return [{"r": float(ri), "rho": float(vi)}
            for ri, vi in zip(r, reduced_density(sol, r))]


def cmd_spectrum(args) -> int:
    params, state, potential = _inputs(args)
    rows = _level_rows(potential, params, state, args.levels, args.hbar,
                       args.mass)
    _write(args, args.output, _meta(args, params, state, levels=args.levels),
           ("n", "energy"), rows, "levels")
    return 0


def cmd_density(args) -> int:
    params, state, potential = _inputs(args)
    sol = radial_solution(potential, args.n, state, params, args.hbar, args.mass)
    if not 0.0 < args.rmax < math.inf:
        raise UsageError(f"--rmax must be positive and finite, got {args.rmax}")
    if args.grid < 2:
        raise UsageError(f"--grid needs at least 2 samples, got {args.grid}")
    meta = _meta(args, params, state, n=args.n, energy=sol.energy,
                 rmax=args.rmax, grid=args.grid)
    _write(args, args.output, meta, ("r", "rho"),
           _density_rows(sol, args.rmax, args.grid), "samples")
    return 0


# per potential: levels, tolerance, grid points, dimensions, uniform
# couplings (pho's validated envelope is mu >= 0), doubled L values, and
# the values swept, by flag, of each constant that no flag gives
_SWEEP = {"oscillator": (4, 1e-4, 4000, (3, 4, 5), (-0.3, 0.0, 0.4),
                         (0, 1, 2), {}),
          "coulomb": (3, 1e-3, 8000, (3, 4, 5), (-0.3, 0.0, 0.4), (0, 1),
                      {}),
          "pho": (2, 1e-4, 4000, (3, 4), (0.0, 0.4), (0,),
                  {"De": (2.0, 8.0)})}


def _verify_reports(args):
    """Yield the oracle report of each comparison: every flag given, and
    the potential's `_SWEEP` row for the rest; a constant that neither
    gives is 1.0."""
    for tag in [args.potential] if args.potential else list(_SWEEP):
        k, tol, n_points, ds, mus, ells, swept = _SWEEP[tag]
        k = k if args.levels is None else args.levels
        n_points = n_points if args.grid is None else args.grid
        cfg = DiscretizationConfig(r_max=args.rmax, n_points=n_points)
        values = [[value] if value is not None else swept.get(flag, (1.0,))
                  for flag, value in _constants(args, tag).items()]
        potentials = [POTENTIALS[tag](*v) for v in product(*values)]
        for d, mu, two_l, potential in product(
                ds if args.d is None else [args.d],
                mus if args.mu is None else [args.mu],
                ells if args.ell is None else [args.ell], potentials):
            params = DeformationParams(
                d, (mu,) * d if args.mu is None else _parse_mu(mu, d))
            state = (AngularState.from_total(d, two_l / 2.0)
                     if args.ell is None else _angular_state(args, d))
            yield oracle_report(potential, params, state, cfg, k, tol,
                                args.hbar, args.mass)


def cmd_verify(args) -> int:
    columns = ("potential", "d", "mu", "two_ell", "n", "energy", "numeric",
               "rel_err", "tolerance", "passed")
    rows = []
    all_passed = True
    for report in _verify_reports(args):
        all_passed = all_passed and report.passed
        labels = (report.potential, report.d, ",".join(map(repr, report.mu)),
                  ",".join(map(str, report.two_ell)))
        rows += [dict(zip(columns, (*labels, *level, report.tolerance,
                                    report.passed)))
                 for level in zip(report.levels, report.analytic,
                                  report.numeric, report.rel_err)]
    meta = {"checks": len(rows), "all_passed": all_passed,
            "hbar": args.hbar, "mass": args.mass,
            "rmax": "auto" if args.rmax is None else args.rmax,
            "grid": "auto" if args.grid is None else args.grid}
    _write(args, args.output, meta, columns, rows, "levels")
    return 0 if all_passed else 1


def _ladders(potential, mu_value: float, L: float, count: int,
             ratio: bool = False):
    """Figure of level ladders over d = 3 .. 6 at uniform coupling; with
    ratio, each level also over its curve's ground level."""
    rows = []
    for d in (3, 4, 5, 6):
        ladder = _level_rows(potential, DeformationParams.uniform(d, mu_value),
                             AngularState.from_total(d, L), count)
        for row in ladder:
            rows.append({"d": d, **row})
            if ratio:
                rows[-1]["ratio"] = abs(row["energy"] / ladder[0]["energy"])
    columns = ("d", "n", "energy") + (("ratio",) if ratio else ())
    return columns, rows, "levels", {"mu_value": mu_value}


def _densities(d: int):
    """Figure of the trap's n = 1, L = 1 density at d, per coupling."""
    rows = [{"mu_value": mu_value, **row} for mu_value in (-0.4, 0.0, 0.4)
            for row in _density_rows(radial_solution(
                Oscillator(omega=1.0), 1, AngularState.from_total(d, 1.0),
                DeformationParams.uniform(d, mu_value)), 8.0, 400)]
    return ("mu_value", "r", "rho"), rows, "samples", {"d": d, "n": 1}


# each returns (columns, rows, kind, extra metadata); the leading column is
# the curve key
_FIGURES = {
    "1a": lambda: _ladders(Oscillator(1.0), 0.4, 0.0, 8),
    "1b": lambda: _ladders(Oscillator(1.0), -0.4, 0.0, 8),
    "2a": lambda: _densities(3),
    "2b": lambda: _densities(4),
    "2c": lambda: _densities(5),
    "3a": lambda: _ladders(Coulomb(1.0), 0.4, 1.0, 21, ratio=True),
    "3b": lambda: _ladders(Coulomb(1.0), -0.4, 1.0, 21, ratio=True),
}


def cmd_figure(args) -> int:
    columns, rows, kind, extra = _FIGURES[args.id]()
    meta = {"figure": args.id, **extra}
    if args.output is None:
        _write(args, None, meta, columns, rows, kind)
        return 0
    # one file per curve, named and tagged by its value of the curve key
    stem, ext = os.path.splitext(args.output)
    key = columns[0]
    for value in dict.fromkeys(row[key] for row in rows):
        _write(args, f"{stem}_{key.split('_')[0]}{value}{ext}",
               {**meta, key: value}, columns,
               [row for row in rows if row[key] == value], kind)
    return 0


def _add_inputs(parser: argparse.ArgumentParser, d_default) -> None:
    parser.add_argument("--d", type=int, default=d_default,
                        help="spatial dimension (at least 2)")
    parser.add_argument("--mu", type=str, default=None,
                        help="coupling list: one value broadcast to every axis, "
                             "or d comma-separated values")
    parser.add_argument("--ell", type=str, default=None,
                        help="angular quantum numbers: half-integers like 1/2 "
                             "or 0.5; one value or d-1 comma-separated")
    parser.add_argument("--parity", type=str, default=None,
                        help="reflection signs, comma-separated +1/-1")
    parser.add_argument("--hbar", type=float, default=1.0)
    parser.add_argument("--mass", type=float, default=1.0)
    helps = {}
    for cls in POTENTIALS.values():
        for constant in fields(cls):
            helps.setdefault(_flag(constant), constant.metadata["help"])
    for flag, help_text in helps.items():
        parser.add_argument(f"--{flag}", type=float, default=1.0,
                            help=help_text)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", type=str, default=None,
                        help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl-spectra",
        description="Bound-state spectra of reflection-deformed radial problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="closed-form energy levels")
    p_spec.add_argument("--potential", required=True,
                        choices=tuple(POTENTIALS))
    p_spec.add_argument("--levels", type=int, default=5,
                        help="number of levels, n = 0 .. levels-1")
    _add_inputs(p_spec, d_default=3)
    _add_output(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_dens = sub.add_parser("density", help="reduced radial probability density")
    p_dens.add_argument("--potential", required=True,
                        choices=tuple(POTENTIALS))
    p_dens.add_argument("--n", type=int, default=0, help="radial level")
    _add_inputs(p_dens, d_default=3)
    p_dens.add_argument("--rmax", type=float, default=10.0,
                        help="largest sampled radius (default: %(default)s)")
    p_dens.add_argument("--grid", type=int, default=256,
                        help="samples over (0, rmax] (default: %(default)s)")
    _add_output(p_dens)
    p_dens.set_defaults(func=cmd_density)

    p_ver = sub.add_parser("verify",
                           help="closed forms vs finite-element eigensolver")
    p_ver.add_argument("--potential", default=None, choices=tuple(_SWEEP),
                       help="restrict to one family (default: every family)")
    p_ver.add_argument("--levels", type=int, default=None,
                       help="levels per comparison (default per potential)")
    _add_inputs(p_ver, d_default=None)
    p_ver.add_argument("--rmax", type=float, default=None,
                       help="oracle box radius (default: sized per record)")
    p_ver.add_argument("--grid", type=int, default=None,
                       help="coarse grid's cell count (default per potential)")
    _add_output(p_ver)
    # None tells an explicit value, such as --De 1.0, from the sweep
    p_ver.set_defaults(func=cmd_verify, **{
        flag: None for row in _SWEEP.values() for flag in row[-1]})

    p_fig = sub.add_parser("figure", help="data series behind the standard plots")
    p_fig.add_argument("--id", required=True, choices=tuple(_FIGURES))
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--output", type=str, default=None)
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes a list like "-0.3,-0.1" for an option: join it to its
    # flag, as "--mu=-0.3,-0.1"
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1], argv[i]
        if flag in ("--mu", "--parity") and re.match(r"-[\d.,]", value):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvalidStateError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # reader went away (e.g. piped into head); not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
