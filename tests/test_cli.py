"""End-to-end tests of the command-line surface, run in process."""

import argparse
import collections
import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from dunkl_spectra import (
    AngularState,
    Coulomb,
    DeformationParams,
    DiscretizationConfig,
    Pseudoharmonic,
    TailLeakWarning,
    bound_energy,
    coulomb_energy,
    oracle_report,
    oscillator_energy,
    radial_eigenvalues,
    radial_solution,
    reduced_density,
)
from dunkl_spectra import cli
from dunkl_spectra.spectra import POTENTIALS, Oscillator, _Potential
from dunkl_spectra.cli import build_parser, main

SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "src", "dunkl_spectra",
    "output_schema.json")
README_PATH = os.path.join(os.path.dirname(__file__), "..", "README.md")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            assert line.startswith("# "), f"malformed comment line: {line!r}"
            key, _, value = line[2:].partition("=")
            assert key and _ == "=", f"metadata line without key=value: {line!r}"
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# minimal JSON-schema checker (object/array/scalar types, required,
# properties, additionalProperties, items, enum, minimum)
# ---------------------------------------------------------------------------

def check_schema(doc, schema, path="$"):
    t = schema.get("type")
    if t == "object":
        assert isinstance(doc, dict), f"{path}: expected object"
        for key in schema.get("required", []):
            assert key in doc, f"{path}: missing required key {key}"
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(doc) - set(props)
            assert not extra, f"{path}: unexpected keys {extra}"
        for key, sub in props.items():
            if key in doc:
                check_schema(doc[key], sub, f"{path}.{key}")
    elif t == "array":
        assert isinstance(doc, list), f"{path}: expected array"
        items = schema.get("items")
        if items:
            for i, entry in enumerate(doc):
                check_schema(entry, items, f"{path}[{i}]")
    elif t == "integer":
        assert isinstance(doc, int) and not isinstance(doc, bool), \
            f"{path}: expected integer, got {doc!r}"
    elif t == "number":
        assert isinstance(doc, (int, float)) and not isinstance(doc, bool), \
            f"{path}: expected number, got {doc!r}"
    elif t == "string":
        assert isinstance(doc, str), f"{path}: expected string, got {doc!r}"
    elif t == "boolean":
        assert isinstance(doc, bool), f"{path}: expected boolean, got {doc!r}"
    if "enum" in schema:
        assert doc in schema["enum"], f"{path}: {doc!r} not in {schema['enum']}"
    if "minimum" in schema:
        assert doc >= schema["minimum"], f"{path}: {doc!r} below minimum"


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_hydrogen_csv(capsys):
    code, out, err = run(
        ["spectrum", "--potential", "coulomb", "--d", "3", "--mu", "0",
         "--levels", "3"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["potential"] == "coulomb"
    assert header == ["n", "energy"]
    energies = [float(r[1]) for r in rows]
    npt.assert_allclose(energies, [-0.5, -0.125, -1.0 / 18.0], rtol=1e-12)
    assert energies == sorted(energies)


def test_spectrum_matches_library_bitwise(capsys):
    code, out, err = run(
        ["spectrum", "--potential", "oscillator", "--d", "4", "--mu", "0.4",
         "--levels", "2"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    params = DeformationParams.uniform(4, 0.4)
    state = AngularState.from_total(4, 0.0)
    for n, row in enumerate(rows):
        ref = oscillator_energy(n, state, params, 1.0)
        assert float(row[1]) == ref


def test_spectrum_json_schema(capsys, schema):
    code, out, err = run(
        ["spectrum", "--potential", "pho", "--De", "8", "--re", "1",
         "--d", "3", "--mu", "0.4", "--levels", "4", "--format", "json"],
        capsys)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, schema)
    assert doc["meta"]["command"] == "spectrum"
    assert doc["samples"] == []
    assert len(doc["levels"]) == 4


def test_spectrum_sixteen_digit_roundtrip(capsys):
    # %.16e prints 17 significant digits, enough to reproduce the double
    code, out, err = run(
        ["spectrum", "--potential", "coulomb", "--d", "5", "--mu",
         "0.4,0.1,0,0,0.2", "--levels", "3"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    params = DeformationParams(d=5, mu=(0.4, 0.1, 0.0, 0.0, 0.2))
    state = AngularState.from_total(5, 0.0)
    for n, row in enumerate(rows):
        assert float(row[1]) == coulomb_energy(n, state, params, 1.0)


def test_spectrum_mu_bound_violation(capsys):
    code, out, err = run(
        ["spectrum", "--potential", "coulomb", "--d", "3", "--mu", "-0.6",
         "--levels", "2"], capsys)
    assert code == 3
    assert "-1/2" in err


def test_spectrum_angular_flags(capsys):
    code, out, err = run(
        ["spectrum", "--potential", "oscillator", "--d", "3", "--mu", "0",
         "--ell", "1/2", "--parity", "+1,-1,+1", "--levels", "1"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState(two_ell=(1, 0), parity=(1, -1, 1))
    assert float(rows[0][1]) == oscillator_energy(0, state, params, 1.0)


@pytest.mark.parametrize("spaced, joined", [
    (["--mu", "-0.3,-0.1"], ["--mu=-0.3,-0.1"]),
    (["--parity", "-1,1", "--ell", "1/2"], ["--parity=-1,1", "--ell", "1/2"]),
    (["--mu", "-.3", "--parity", "-,+", "--ell", "1/2"],
     ["--mu=-.3", "--parity=-,+", "--ell", "1/2"]),
])
def test_list_flag_value_may_start_with_minus(spaced, joined, capsys):
    # argparse reads "-0.3,-0.1" as an option; the spaced form must print
    # the bytes of the joined one
    base = ["spectrum", "--potential", "oscillator", "--d", "2"]
    code, out, err = run(base + spaced, capsys)
    assert (code, err) == (0, "")
    assert run(base + joined, capsys) == (0, out, "")
    for command in ("verify", "density"):
        assert run([command] + base[1:] + spaced, capsys)[0] == 0
    # a flag, not a list, still follows --mu: a missing value stays an error
    assert run(base + ["--mu", "--levels", "2"], capsys)[0] == 2


def test_usage_errors_exit_2(capsys):
    code, out, err = run(["spectrum", "--potential", "morse"], capsys)
    assert code == 2
    code, out, err = run(["spectrum"], capsys)
    assert code == 2
    code, out, err = run(["frobnicate"], capsys)
    assert code == 2
    code, out, err = run(
        ["spectrum", "--potential", "coulomb", "--d", "3", "--mu",
         "0.1,0.2", "--levels", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "oscillator", "--ell", "1/3"],
    ["spectrum", "--potential", "oscillator", "--ell", "0.3"],
    ["spectrum", "--potential", "oscillator", "--ell", "x"],
    ["spectrum", "--potential", "oscillator", "--d", "3", "--mu", "0.1,x"],
    ["spectrum", "--potential", "oscillator", "--d", "3", "--parity",
     "+1,2,+1"],
    ["spectrum", "--potential", "oscillator", "--d", "3", "--ell", "1,1,1"],
    ["density", "--potential", "oscillator", "--grid", "1"],
], ids=["ell_third", "ell_decimal", "ell_word", "mu_word", "parity_entry",
        "ell_count", "density_grid"])
def test_flag_values_refused_after_parsing_exit_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")


def test_ell_takes_one_entry_per_level(capsys):
    # d - 1 entries set each level's quantum number
    code, out, err = run(["spectrum", "--potential", "oscillator", "--d", "3",
                          "--ell", "1,1", "--levels", "3"], capsys)
    assert code == 0
    state = AngularState(two_ell=(2, 2), parity=(1, 1, 1))
    params = DeformationParams.uniform(3, 0.0)
    assert [float(row[1]) for row in parse_csv(out)[2]] == [
        bound_energy(Oscillator(1.0), n, state, params) for n in range(3)]


def test_inconsistent_state_exits_3(capsys):
    code, out, err = run(
        ["spectrum", "--potential", "oscillator", "--d", "3", "--mu", "0",
         "--ell", "1/2", "--levels", "1"], capsys)
    assert code == 3
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_normalization(capsys):
    code, out, err = run(
        ["density", "--potential", "oscillator", "--d", "3", "--mu", "0.4",
         "--n", "1", "--grid", "2000", "--rmax", "12"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["r", "rho"]
    r = np.array([float(v[0]) for v in rows])
    rho = np.array([float(v[1]) for v in rows])
    assert len(r) == 2000
    assert np.all(rho >= 0.0)
    assert abs(np.trapezoid(rho, r) - 1.0) < 1e-4


def test_density_matches_library_bitwise(capsys):
    code, out, err = run(
        ["density", "--potential", "oscillator", "--d", "3", "--mu", "0.4",
         "--n", "1", "--grid", "64", "--rmax", "8"], capsys)
    assert code == 0
    _, _, rows = parse_csv(out)
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    sol = radial_solution(Oscillator(1.0), 1, state, params)
    for row in rows:
        r, rho = float(row[0]), float(row[1])
        assert rho == reduced_density(sol, r)


def test_density_json_schema(capsys, schema):
    code, out, err = run(
        ["density", "--potential", "coulomb", "--d", "3", "--mu", "0",
         "--n", "0", "--grid", "32", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, schema)
    assert doc["levels"] == []
    assert len(doc["samples"]) == 32
    params = DeformationParams.uniform(3, 0.0)
    # repr-serialized floats parse back to the identical doubles
    sol = radial_solution(Coulomb(1.0), 0, AngularState.from_total(3, 0.0),
                          params)
    for entry in doc["samples"]:
        assert entry["rho"] == reduced_density(sol, entry["r"])


def test_density_metadata_lines(capsys):
    code, out, err = run(
        ["density", "--potential", "pho", "--De", "8", "--re", "1",
         "--d", "4", "--mu", "0.2", "--n", "0", "--grid", "16"], capsys)
    assert code == 0
    for line in out.splitlines():
        if line.startswith("#"):
            assert line.startswith("# ")
            assert "=" in line


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_config_passes(capsys):
    code, out, err = run(
        ["verify", "--potential", "oscillator", "--d", "3", "--mu", "0.4",
         "--levels", "3"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["all_passed"] == "true"
    # mu and two_ell cells embed commas, so index the tail columns from the end
    assert all(r[-1] == "true" for r in rows)
    assert all(float(r[-3]) < 1e-4 for r in rows)


def test_verify_reports_numeric_agreement(capsys):
    code, out, err = run(
        ["verify", "--potential", "coulomb", "--d", "3", "--mu", "0",
         "--levels", "2", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    for entry in doc["levels"]:
        assert abs(entry["numeric"] - entry["energy"]) <= (
            entry["tolerance"] * abs(entry["energy"]))
        assert entry["passed"] is True


def test_verify_loose_grid_degrades(capsys):
    argv = ["verify", "--potential", "oscillator", "--d", "3", "--mu", "0.4",
            "--levels", "2", "--rmax", "10", "--format", "json"]
    code_fine, out_fine, _ = run(argv + ["--grid", "2000"], capsys)
    code_loose, out_loose, _ = run(argv + ["--grid", "200"], capsys)
    assert code_fine == 0 and code_loose == 0
    fine = max(e["rel_err"] for e in json.loads(out_fine)["levels"])
    loose = max(e["rel_err"] for e in json.loads(out_loose)["levels"])
    assert loose > 10.0 * fine


def test_verify_matches_library_numeric(capsys):
    code, out, err = run(
        ["verify", "--potential", "oscillator", "--d", "4", "--mu", "0.4",
         "--levels", "2", "--grid", "1500", "--rmax", "11", "--format",
         "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    params = DeformationParams.uniform(4, 0.4)
    state = AngularState.from_total(4, 0.0)
    cfg = DiscretizationConfig(r_max=11.0, n_points=1500)
    ref = radial_eigenvalues(Oscillator(1.0), params, state, cfg, 2)
    for entry, val in zip(doc["levels"], ref):
        assert entry["numeric"] == float(val)


def test_verify_json_schema(capsys, schema):
    code, out, err = run(
        ["verify", "--potential", "pho", "--d", "3", "--mu", "0", "--De",
         "8", "--levels", "2", "--format", "json"], capsys)
    assert code == 0
    check_schema(json.loads(out), schema)


def test_verify_default_sweep(capsys):
    code, out, err = run(["verify"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["all_passed"] == "true"
    assert int(meta["checks"]) == len(rows)
    tags = {r[0] for r in rows}
    assert tags == {"oscillator", "coulomb", "pho"}
    assert collections.Counter(r[0] for r in rows) == {
        "oscillator": 108, "coulomb": 54, "pho": 16}
    # mu and two_ell hold d and d - 1 comma-separated entries; pho stays in
    # its validated envelope, and each of its labels appears once per depth
    pho = collections.defaultdict(list)
    for r in rows:
        d = int(r[1])
        if r[0] == "pho":
            label = (d, tuple(r[2:2 + d]), tuple(r[2 + d:1 + 2 * d]),
                     r[1 + 2 * d])
            pho[label].append(float(r[2 + 2 * d]))
    assert {label[0] for label in pho} == {3, 4}
    assert {float(m) for label in pho for m in label[1]} == {0.0, 0.4}
    assert all(len(e) == 2 and e[0] != e[1] for e in pho.values())


# ---------------------------------------------------------------------------
# figure data
# ---------------------------------------------------------------------------

def test_figure_unknown_id(capsys):
    code, out, err = run(["figure", "--id", "9z"], capsys)
    assert code == 2


def test_figure_1a_monotone(capsys):
    code, out, err = run(["figure", "--id", "1a"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    i_d, i_n, i_e = header.index("d"), header.index("n"), header.index("energy")
    series = {}
    for r in rows:
        series.setdefault(int(r[i_d]), []).append((int(r[i_n]), float(r[i_e])))
    assert sorted(series) == [3, 4, 5, 6]
    for d, pts in series.items():
        energies = [e for _, e in sorted(pts)]
        assert all(b > a for a, b in zip(energies, energies[1:]))
    for n in range(8):
        at_n = [dict(series[d])[n] for d in sorted(series)]
        assert all(b > a for a, b in zip(at_n, at_n[1:]))


def test_figure_3a_ratio_starts_at_one(capsys):
    code, out, err = run(["figure", "--id", "3a"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    i_d, i_n = header.index("d"), header.index("n")
    i_ratio = header.index("ratio")
    for r in rows:
        if int(r[i_n]) == 0:
            assert float(r[i_ratio]) == 1.0


def test_figure_2a_density_series(capsys):
    code, out, err = run(["figure", "--id", "2a"], capsys)
    assert code == 0
    _, header, rows = parse_csv(out)
    i_mu = header.index("mu_value")
    i_r, i_rho = header.index("r"), header.index("rho")
    by_mu = {}
    for r in rows:
        by_mu.setdefault(float(r[i_mu]), []).append(
            (float(r[i_r]), float(r[i_rho])))
    assert set(by_mu) == {-0.4, 0.0, 0.4}
    for mu, pts in by_mu.items():
        rr = np.array([p[0] for p in pts])
        rho = np.array([p[1] for p in pts])
        assert np.all(rho >= 0.0)
        assert abs(np.trapezoid(rho, rr) - 1.0) < 1e-3


def test_figure_writes_one_file_per_curve(tmp_path, capsys):
    out_path = tmp_path / "fig1a.csv"
    code, out, err = run(["figure", "--id", "1a", "--output", str(out_path)],
                         capsys)
    assert code == 0
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == ["fig1a_d3.csv", "fig1a_d4.csv", "fig1a_d5.csv",
                    "fig1a_d6.csv"]
    meta, header, rows = parse_csv((tmp_path / "fig1a_d3.csv").read_text())
    assert len(rows) == 8

    out_path = tmp_path / "fig2a.csv"
    code, out, err = run(["figure", "--id", "2a", "--output", str(out_path)],
                         capsys)
    assert code == 0
    assert (tmp_path / "fig2a_mu-0.4.csv").exists()
    assert (tmp_path / "fig2a_mu0.4.csv").exists()
    assert (tmp_path / "fig2a_mu0.csv").exists() or (
        tmp_path / "fig2a_mu0.0.csv").exists()


def figure_reference(fid):
    """(curve key, extra metadata, rows) of a figure, rebuilt from
    bound_energy, and from radial_solution with reduced_density."""
    if fid.startswith("2"):
        d = {"2a": 3, "2b": 4, "2c": 5}[fid]
        r = np.linspace(8.0 / 400, 8.0, 400)
        rows = []
        for mu in (-0.4, 0.0, 0.4):
            sol = radial_solution(Oscillator(1.0), 1,
                                  AngularState.from_total(d, 1.0),
                                  DeformationParams.uniform(d, mu))
            rows += [{"mu_value": mu, "r": float(ri), "rho": float(vi)}
                     for ri, vi in zip(r, reduced_density(sol, r))]
        return "mu_value", {"d": d, "n": 1}, rows
    mu = 0.4 if fid.endswith("a") else -0.4
    potential, L, count = ((Oscillator(1.0), 0.0, 8) if fid.startswith("1")
                           else (Coulomb(1.0), 1.0, 21))
    rows = []
    for d in (3, 4, 5, 6):
        params = DeformationParams.uniform(d, mu)
        state = AngularState.from_total(d, L)
        energies = [float(bound_energy(potential, n, state, params))
                    for n in range(count)]
        for n, energy in enumerate(energies):
            rows.append({"d": d, "n": n, "energy": energy})
            if fid.startswith("3"):
                rows[-1]["ratio"] = abs(energy / energies[0])
    return "d", {"mu_value": mu}, rows


def parse_doc(fmt, text):
    """(meta, rows, JSON list name) of a document; CSV cells stay strings."""
    if fmt == "json":
        doc = json.loads(text)
        kind = "samples" if doc["samples"] else "levels"
        return doc["meta"], doc["levels"] + doc["samples"], kind
    meta, header, rows = parse_csv(text)
    return meta, [dict(zip(header, row)) for row in rows], None


def assert_same(got: dict, want: dict):
    """Same keys in the same order, every value read back exactly."""
    assert list(got) == list(want)
    for key, value in want.items():
        printed = got[key]
        if isinstance(printed, str):
            printed = type(value)(printed)
        assert type(printed) is type(value) and printed == value, \
            f"{key}: printed {got[key]!r}, library {value!r}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("fid", ["1a", "1b", "2a", "2b", "2c", "3a", "3b"])
def test_figure_values_match_library(fid, fmt, tmp_path, capsys):
    key, extra, want = figure_reference(fid)
    kind = None if fmt == "csv" else (
        "samples" if key == "mu_value" else "levels")
    base = {"command": "figure", "format": fmt, "figure": fid, **extra}
    code, out, err = run(["figure", "--id", fid, "--format", fmt], capsys)
    assert (code, err) == (0, "")
    meta, rows, got_kind = parse_doc(fmt, out)
    assert got_kind == kind
    assert_same(meta, base)
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert_same(got, ref)

    # --output: one file per curve, each with exactly that curve's rows and
    # the curve's key value appended to the metadata
    target = tmp_path / f"fig.{fmt}"
    code, out, err = run(["figure", "--id", fid, "--format", fmt,
                          "--output", str(target)], capsys)
    assert (code, out, err) == (0, "", "")
    curves = {f"fig_{key.split('_')[0]}{row[key]}.{fmt}": row[key]
              for row in want}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(curves)
    for name, value in curves.items():
        meta, rows, got_kind = parse_doc(fmt, (tmp_path / name).read_text())
        assert got_kind == kind
        assert_same(meta, {**base, key: value})
        curve = [row for row in want if row[key] == value]
        assert len(rows) == len(curve)
        for got, ref in zip(rows, curve):
            assert_same(got, ref)


def test_output_file_equals_stdout(tmp_path, capsys):
    argv = ["spectrum", "--potential", "coulomb", "--d", "3", "--mu", "0.4",
            "--levels", "4"]
    code, out, err = run(argv, capsys)
    assert code == 0
    target = tmp_path / "ladder.csv"
    code2, out2, err2 = run(argv + ["--output", str(target)], capsys)
    assert code2 == 0
    assert target.read_text() == out


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "oscillator", "--hbar=-1"],
    ["spectrum", "--potential", "oscillator", "--omega=inf"],
    ["spectrum", "--potential", "pho", "--mass=-1"],
    ["spectrum", "--potential", "coulomb", "--e2=nan"],
    ["density", "--potential", "coulomb", "--mass=0"],
    ["verify", "--potential", "oscillator", "--d", "3", "--rmax=inf"],
])
def test_bad_physical_constants_exit_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("command", ["spectrum", "density", "verify"])
def test_constant_flags_come_from_the_potential_fields(command):
    # one float flag per field of each potential class, named by the field
    # without '_', with the field's help and default 1.0; verify's --De
    # defaults to None, for its depth sweep
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    parsed = vars(sub.parse_args(["--potential", "pho"]))
    for cls in POTENTIALS.values():
        for field in dataclasses.fields(cls):
            flag = "--" + field.name.replace("_", "")
            [action] = [a for a in sub._actions if flag in a.option_strings]
            assert action.option_strings == [flag] and action.type is float
            assert action.help == field.metadata["help"]
            default = None if (command, flag) == ("verify", "--De") else 1.0
            assert action.default == parsed[action.dest] == default


def readme_kratzer():
    """The Kratzer class that README's "Adding a potential" declares."""
    with open(README_PATH, encoding="utf-8") as fh:
        [block] = re.findall(r"```\n(@dataclass.*?class Kratzer.*?)```",
                             fh.read(), re.S)
    namespace = {"dataclass": dataclasses.dataclass,
                 "field": dataclasses.field, "_Potential": _Potential}
    exec(block, namespace)
    return namespace["Kratzer"]


def test_readme_potential_needs_no_cli_edit(monkeypatch, capsys):
    # registered with a _SWEEP row alone, the README's Kratzer shares --e2
    # with Coulomb, adds --g, and every subcommand prints the library's
    # values bit for bit
    kratzer = readme_kratzer()
    monkeypatch.setitem(POTENTIALS, "kratzer", kratzer)
    # verify takes no potential without a sweep row: a usage error
    code, out, err = run(["verify", "--potential", "kratzer"], capsys)
    assert (code, out) == (2, "") and "invalid choice: 'kratzer'" in err
    monkeypatch.setitem(cli._SWEEP, "kratzer", (2, 1e-3, 8000, (3,), (0.0,),
                                                (0,), {"g": (0.5, 2.0)}))
    params = DeformationParams.uniform(3, 0.0)
    state = AngularState.from_total(3, 0.0)
    base = ["--potential", "kratzer", "--d", "3", "--format", "json"]

    code, out, err = run(["spectrum", *base, "--e2", "2", "--g", "0.5",
                          "--levels", "3"], capsys)
    assert (code, err) == (0, "")
    assert [row["energy"] for row in json.loads(out)["levels"]] == [
        float(bound_energy(kratzer(2.0, 0.5), n, state, params))
        for n in range(3)]

    code, out, err = run(["density", *base, "--n", "1", "--grid", "32"],
                         capsys)
    assert (code, err) == (0, "")
    samples = json.loads(out)["samples"]
    sol = radial_solution(kratzer(1.0, 1.0), 1, state, params)
    assert [s["rho"] for s in samples] == list(
        reduced_density(sol, np.array([s["r"] for s in samples])))

    code, out, err = run(["verify", *base], capsys)
    assert (code, err) == (0, "")
    cfg = DiscretizationConfig(n_points=8000)
    want = [oracle_report(kratzer(1.0, g), params, state, cfg, 2, 1e-3)
            for g in (0.5, 2.0)]
    assert [(r["energy"], r["numeric"], r["passed"])
            for r in json.loads(out)["levels"]] == [
        (a, b, True) for report in want
        for a, b in zip(report.analytic, report.numeric)]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "oscillator", "--omega", "1e300"],
    ["spectrum", "--potential", "coulomb", "--e2", "1e-170"],
])
def test_constants_outside_double_range_exit_3(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "double" in err


def test_density_at_tiny_frequency(capsys):
    # the well coefficient m w^2/2 underflows to 0: the record would describe
    # a free particle, so the density fails fast instead of printing zeros
    code, out, err = run(["density", "--potential", "oscillator",
                          "--omega", "1e-300"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "double range" in err


@pytest.mark.parametrize("rmax", ["-2", "0", "inf", "nan"])
def test_density_bad_rmax_is_usage_error(rmax, capsys):
    code, out, err = run(["density", "--potential", "oscillator",
                          f"--rmax={rmax}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("flag", ["--rmax=3", "--grid=7"])
def test_spectrum_refuses_the_box_flags(flag, capsys):
    # only density and verify read --rmax and --grid
    code, out, err = run(["spectrum", "--potential", "coulomb", "--levels",
                          "1", flag], capsys)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


def test_verify_explicit_default_depth(capsys):
    argv = ["verify", "--potential", "pho", "--d", "3", "--mu", "0.4"]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert parse_csv(out)[0]["checks"] == "4"  # depths 2 and 8, two levels
    code, out, err = run(argv + ["--De", "1.0"], capsys)
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["checks"] == "2"
    params = DeformationParams.uniform(3, 0.4)
    state = AngularState.from_total(3, 0.0)
    assert [float(r[-5]) for r in rows] == [
        bound_energy(Pseudoharmonic(1.0, 1.0), n, state, params)
        for n in range(2)]


def test_verify_overflowing_cells_exit_3(capsys):
    # q = 95: r^q overflows double on both automatic boxes, yet no entry
    # does, so both levels are checked and pass
    argv = ["verify", "--potential", "coulomb", "--d", "12", "--mu", "3",
            "--ell", "3", "--levels", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    rows = parse_csv(out)[2]
    assert len(rows) == 2 and all(row[-1] == "true" for row in rows)
    assert not [w for w in caught if w.category is RuntimeWarning]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("levels", ["-2", "0"])
def test_level_count_below_one_exits_3(command, levels, capsys):
    code, out, err = run([command, "--potential", "oscillator", "--d", "3",
                          f"--levels={levels}"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


def test_level_count_above_grid_vertices_exits_3(capsys):
    code, out, err = run(["verify", "--potential", "oscillator", "--d", "3",
                          "--mu", "0", "--ell", "0", "--levels", "150",
                          "--grid", "100"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "the grid has 100" in err


def test_level_count_beyond_float_range_exits_3(capsys):
    code, out, err = run(["spectrum", "--potential", "oscillator", "--d", "3",
                          "--levels=" + "9" * 400], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "2**53" in err


@pytest.mark.parametrize("argv", [
    ["--potential", "coulomb", "--d", "2", "--mu=-0.2,-0.28"],
    ["--potential", "oscillator", "--d", "12", "--mu", "3", "--ell", "3",
     "--levels", "2"],
    ["--potential", "pho", "--d", "8", "--De", "500", "--ell", "2"],
], ids=["coulomb_small_q", "oscillator_q95", "pho_q71"])
def test_verify_passes_where_the_cell_centred_oracle_failed(argv, capsys):
    code, out, err = run(["verify"] + argv, capsys)
    assert (code, err) == (0, "")


def test_verify_underflowing_masses_pass(capsys):
    # q = 101 at d = 11: the lumped masses underflow to 0 near the origin,
    # which is no overflow; every row passes with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["verify", "--potential", "pho", "--d", "11",
                              "--mu", "0.5", "--De", "50", "--re", "2",
                              "--mass", "1.5", "--hbar", "0.5"], capsys)
    assert (code, err) == (0, "")
    assert "all_passed=true" in out


def test_verify_slow_oscillator_passes(capsys):
    # at omega = 0.1 the state at mu = -0.3 reaches past r = 8, where a
    # fixed box would truncate it; the box in t follows the frequency
    with warnings.catch_warnings():
        warnings.simplefilter("error", TailLeakWarning)
        code, out, _ = run(["verify", "--potential", "oscillator", "--omega",
                            "0.1", "--d", "3", "--levels", "1"], capsys)
    assert code == 0
    assert "all_passed=true" in out
