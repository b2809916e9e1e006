"""Command-line front end.

Four subcommands: `spectrum` prints closed-form bound-state energies,
`density` samples a reduced radial probability density, `verify` runs the
finite-volume oracle against the closed forms, and `figure` emits the data
behind the standard plots. Every command writes CSV (comment header of
`# key=value` lines, then a column header, floats at 17 significant
digits) or JSON (`{"meta": ..., "levels": [...], "samples": [...]}`,
schema shipped as output_schema.json next to this module).

The CLI is a thin shell: every number it prints is produced by a library
call and serialized losslessly, so parsing the output recovers the library
values bit for bit.

Exit codes: 0 success, 1 a verify comparison exceeded its tolerance,
2 usage error, 3 invalid physical inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .core import DeformationParams
from .errors import (ConvergenceError, DomainError, InvalidStateError,
                     SingularityError)
from .polar import AngularState
from .spectra import (POTENTIALS, EnergyLevel, Oscillator, Pseudoharmonic,
                      bound_energy, coulomb_energy, oscillator_energy,
                      radial_solution, reduced_density)
from .verify import DiscretizationConfig, oracle_report

__all__ = ["main", "build_parser"]

_FIGURE_IDS = ("1a", "1b", "2a", "2b", "2c", "3a", "3b")


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


def _parse_mu(text: str, d: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse coupling list {text!r}") from None
    if len(values) == 1:
        values = values * d
    if len(values) != d:
        raise UsageError(f"--mu needs 1 or {d} entries, got {len(values)}")
    return tuple(values)


def _parse_parity(text: str, count: int) -> tuple:
    table = {"+1": 1, "1": 1, "+": 1, "-1": -1, "-": -1}
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise UsageError(f"--parity needs 1 or {count} entries, got {len(parts)}")
    try:
        return tuple(table[p] for p in parts)
    except KeyError as exc:
        raise UsageError(f"parity entries must be +1 or -1, got {exc.args[0]!r}") from None


def _angular_state(args, d: int) -> AngularState:
    parity = _parse_parity(args.parity, d) if args.parity else (1,) * d
    if args.ell is None:
        return AngularState(two_ell=(0,) * (d - 1), parity=parity)
    tokens = [t for t in args.ell.split(",")]
    if len(tokens) == 1:
        two_ell = (_parse_half_token(tokens[0]),) + (0,) * (d - 2)
    elif len(tokens) == d - 1:
        two_ell = tuple(_parse_half_token(t) for t in tokens)
    else:
        raise UsageError(f"--ell needs 1 or {d - 1} entries, got {len(tokens)}")
    return AngularState(two_ell=two_ell, parity=parity)


def _constants(args, tag: str) -> dict:
    """The potential's constants keyed by flag: the field name without '_'."""
    flags = [f.name.replace("_", "") for f in fields(POTENTIALS[tag])]
    return {flag: getattr(args, flag) for flag in flags}


def _potential(args, tag: str):
    return POTENTIALS[tag](*_constants(args, tag).values())


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _write_csv(stream, meta: dict, columns, rows) -> None:
    for key, value in meta.items():
        stream.write(f"# {key}={_format_cell(value)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def _write_json(stream, meta: dict, levels, samples) -> None:
    doc = {"meta": meta, "levels": list(levels), "samples": list(samples)}
    json.dump(doc, stream, indent=1)
    stream.write("\n")


def _emit(args, meta: dict, columns, rows, kind: str) -> None:
    meta = {"command": args.command, "format": args.format, **meta}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _dispatch_write(fh, args.format, meta, columns, rows, kind)
    else:
        _dispatch_write(sys.stdout, args.format, meta, columns, rows, kind)


def _dispatch_write(stream, fmt, meta, columns, rows, kind) -> None:
    if fmt == "csv":
        _write_csv(stream, meta, columns, rows)
    elif kind == "levels":
        _write_json(stream, meta, rows, [])
    else:
        _write_json(stream, meta, [], rows)


def _base_meta(args, params: DeformationParams, state: AngularState | None) -> dict:
    meta = {
        "d": params.d,
        "mu": ",".join(repr(m) for m in params.mu),
        "hbar": args.hbar,
        "mass": args.mass,
    }
    if state is not None:
        meta["two_ell"] = ",".join(str(t) for t in state.two_ell)
        meta["parity"] = ",".join(f"{s:+d}" for s in state.parity.s)
    return meta


def cmd_spectrum(args) -> int:
    params = DeformationParams(d=args.d, mu=_parse_mu(args.mu or "0", args.d))
    state = _angular_state(args, args.d)
    potential = _potential(args, args.potential)
    rows = []
    for n in range(args.levels):
        level = EnergyLevel(
            n=n, state=state, d=params.d,
            energy=float(bound_energy(potential, n, state, params,
                                      args.hbar, args.mass)),
            potential=potential)
        rows.append({"n": level.n, "energy": level.energy})
    meta = {"potential": args.potential, **_base_meta(args, params, state),
            "levels": args.levels, **_constants(args, args.potential)}
    _emit(args, meta, ("n", "energy"), rows, "levels")
    return 0


def cmd_density(args) -> int:
    params = DeformationParams(d=args.d, mu=_parse_mu(args.mu or "0", args.d))
    state = _angular_state(args, args.d)
    potential = _potential(args, args.potential)
    sol = radial_solution(potential, args.n, state, params, args.hbar, args.mass)
    r_max = args.rmax if args.rmax is not None else 10.0
    if not 0.0 < r_max < math.inf:
        raise UsageError(f"--rmax must be positive and finite, got {r_max}")
    npts = args.grid if args.grid is not None else 256
    if npts < 2:
        raise UsageError(f"--grid needs at least 2 samples, got {npts}")
    r = np.linspace(r_max / npts, r_max, npts)
    values = reduced_density(sol, r)
    rows = [{"r": float(ri), "rho": float(vi)} for ri, vi in zip(r, values)]
    meta = {"potential": args.potential, **_base_meta(args, params, state),
            "n": args.n, "energy": sol.energy, "rmax": r_max, "grid": npts,
            **_constants(args, args.potential)}
    _emit(args, meta, ("r", "rho"), rows, "samples")
    return 0


_SWEEP_MU = (-0.3, 0.0, 0.4)
# per potential: levels, tolerance, grid points, dimensions, doubled L values
_SWEEP = {"oscillator": (4, 1e-4, 4000, (3, 4, 5), (0, 1, 2)),
          "coulomb": (3, 1e-3, 8000, (3, 4, 5), (0, 1)),
          "pho": (2, 1e-4, 4000, (3, 4), (0,))}


def _verify_jobs(args):
    """Yield (tag, potential, params, state, cfg, k, tol) comparisons."""
    tags = [args.potential] if args.potential else list(_SWEEP)
    for tag in tags:
        k, tol, base_n, default_ds, ell_sweep = _SWEEP[tag]
        if args.levels is not None:
            k = args.levels
        n_points = args.grid if args.grid is not None else base_n
        cfg = DiscretizationConfig(r_max=args.rmax, n_points=n_points)
        if tag == "pho":
            depths = [2.0, 8.0] if args.De is None else [args.De]
            potentials = [Pseudoharmonic(D_e=de, r_e=args.re) for de in depths]
        else:
            potentials = [_potential(args, tag)]
        ds = [args.d] if args.d is not None else list(default_ds)
        for d in ds:
            mus = [_parse_mu(args.mu, d)] if args.mu is not None else \
                  [(m,) * d for m in _SWEEP_MU]
            for mu in mus:
                if tag == "pho" and args.mu is None and any(m < 0 for m in mu):
                    continue  # default sweep sticks to the validated envelope
                params = DeformationParams(d=d, mu=mu)
                if args.ell is not None:
                    states = [_angular_state(args, d)]
                else:
                    states = [AngularState.from_total(d, two / 2.0)
                              for two in ell_sweep]
                for state in states:
                    for potential in potentials:
                        yield tag, potential, params, state, cfg, k, tol


def cmd_verify(args) -> int:
    rows = []
    all_passed = True
    for tag, potential, params, state, cfg, k, tol in _verify_jobs(args):
        report = oracle_report(potential, params, state, cfg, k, tol,
                               args.hbar, args.mass)
        all_passed = all_passed and report.passed
        for n, analytic, numeric in zip(report.levels, report.analytic,
                                        report.numeric):
            rows.append({
                "potential": tag,
                "d": params.d,
                "mu": ",".join(repr(m) for m in params.mu),
                "two_ell": ",".join(str(t) for t in state.two_ell),
                "n": n,
                "energy": analytic,
                "numeric": numeric,
                "rel_err": abs(numeric - analytic) / abs(analytic),
                "tolerance": tol,
                "passed": report.passed,
            })
    meta = {"checks": len(rows), "all_passed": all_passed,
            "hbar": args.hbar, "mass": args.mass,
            "rmax": "auto" if args.rmax is None else args.rmax,
            "grid": "auto" if args.grid is None else args.grid}
    columns = ("potential", "d", "mu", "two_ell", "n", "energy", "numeric",
               "rel_err", "tolerance", "passed")
    _emit(args, meta, columns, rows, "levels")
    return 0 if all_passed else 1


def _figure_oscillator_levels(mu_value: float):
    rows = []
    for d in (3, 4, 5, 6):
        params = DeformationParams.uniform(d, mu_value)
        state = AngularState.from_total(d, 0.0)
        for n in range(8):
            energy = oscillator_energy(n, state, params, omega=1.0)
            rows.append({"d": d, "n": n, "energy": float(energy)})
    return ("d", "n", "energy"), rows, "levels", {"mu_value": mu_value}


def _figure_density(d: int):
    rows = []
    for mu_value in (-0.4, 0.0, 0.4):
        params = DeformationParams.uniform(d, mu_value)
        state = AngularState.from_total(d, 1.0)
        sol = radial_solution(Oscillator(omega=1.0), 1, state, params)
        r = np.linspace(8.0 / 400, 8.0, 400)
        values = reduced_density(sol, r)
        rows.extend({"mu_value": mu_value, "r": float(ri), "rho": float(vi)}
                    for ri, vi in zip(r, values))
    return ("mu_value", "r", "rho"), rows, "samples", {"d": d, "n": 1}


def _figure_coulomb_ratio(mu_value: float):
    rows = []
    for d in (3, 4, 5, 6):
        params = DeformationParams.uniform(d, mu_value)
        state = AngularState.from_total(d, 1.0)
        ground = coulomb_energy(0, state, params, e2=1.0)
        for n in range(21):
            energy = coulomb_energy(n, state, params, e2=1.0)
            rows.append({"d": d, "n": n, "energy": float(energy),
                         "ratio": float(abs(energy / ground))})
    return ("d", "n", "energy", "ratio"), rows, "levels", {"mu_value": mu_value}


_FIGURES = {
    "1a": lambda: _figure_oscillator_levels(0.4),
    "1b": lambda: _figure_oscillator_levels(-0.4),
    "2a": lambda: _figure_density(3),
    "2b": lambda: _figure_density(4),
    "2c": lambda: _figure_density(5),
    "3a": lambda: _figure_coulomb_ratio(0.4),
    "3b": lambda: _figure_coulomb_ratio(-0.4),
}


def cmd_figure(args) -> int:
    columns, rows, kind, extra = _FIGURES[args.id]()
    meta = {"figure": args.id, **extra}
    if args.output is None:
        _emit(args, meta, columns, rows, kind)
        return 0
    # one file per curve: the leading column is the curve key
    stem, ext = os.path.splitext(args.output)
    curve_key = columns[0]
    for value in dict.fromkeys(row[curve_key] for row in rows):
        sub = [row for row in rows if row[curve_key] == value]
        path = f"{stem}_{curve_key.split('_')[0]}{value}{ext}"
        curve_meta = {"command": args.command, "format": args.format,
                      **meta, curve_key: value}
        with open(path, "w", encoding="utf-8") as fh:
            _dispatch_write(fh, args.format, curve_meta, columns, sub, kind)
    return 0


def _add_common(parser: argparse.ArgumentParser, d_default) -> None:
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
    parser.add_argument("--omega", type=float, default=1.0,
                        help="harmonic trap frequency")
    parser.add_argument("--De", type=float, default=1.0,
                        help="well depth of the shifted-minimum potential")
    parser.add_argument("--re", type=float, default=1.0,
                        help="equilibrium radius of the shifted-minimum potential")
    parser.add_argument("--e2", type=float, default=1.0,
                        help="attractive 1/r coupling strength")
    parser.add_argument("--rmax", type=float, default=None,
                        help="radial box size (default: sized automatically)")
    parser.add_argument("--grid", type=int, default=None,
                        help="number of radial points")
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
    _add_common(p_spec, d_default=3)
    p_spec.set_defaults(func=cmd_spectrum)

    p_dens = sub.add_parser("density", help="reduced radial probability density")
    p_dens.add_argument("--potential", required=True,
                        choices=tuple(POTENTIALS))
    p_dens.add_argument("--n", type=int, default=0, help="radial level")
    _add_common(p_dens, d_default=3)
    p_dens.set_defaults(func=cmd_density)

    p_ver = sub.add_parser("verify",
                           help="closed forms vs finite-volume eigensolver")
    p_ver.add_argument("--potential", default=None,
                       choices=tuple(POTENTIALS),
                       help="restrict to one family (default: all three)")
    p_ver.add_argument("--levels", type=int, default=None,
                       help="levels per comparison (default per potential)")
    _add_common(p_ver, d_default=None)
    # None tells an explicit --De 1.0 from the default depth sweep
    p_ver.set_defaults(func=cmd_verify, De=None)

    p_fig = sub.add_parser("figure", help="data series behind the standard plots")
    p_fig.add_argument("--id", required=True, choices=_FIGURE_IDS)
    p_fig.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fig.add_argument("--output", type=str, default=None)
    p_fig.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, InvalidStateError, SingularityError,
            ConvergenceError) as exc:
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
