"""Tests for the command-line front end: what a run reports and when it exits 1 (``_REPORTS``) and
what it refuses with exit 2 (``_REFUSALS``), each one table; every run goes through ``cli_grid.run``."""

import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
from typing import NamedTuple

import numpy as np
import pytest

import cli_grid
import oracles
from teleportlab import DimensionError, bell_basis, cli, linalg, product_basis, rotated_basis, teleport
from teleportlab.cli import (build_parser, config_from_namespace, load_basis_file, load_state_file, render_csv,
                             render_json, save_basis_file, save_state_file)


def _write(path, payload):
    """Write an input file: bytes as they are, any other payload JSON-encoded."""
    path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8"))


def _state(d, amplitudes):  # a state file's payload, as save_state_file writes it
    return {"d": d, "amplitudes": [[z.real, z.imag] for z in np.asarray(amplitudes, complex)]}


def _bell_payload(d=2):
    return [[[[z.real, z.imag] for z in row] for row in el] for el in bell_basis(d).elements]


class Report(NamedTuple):
    """A run's ``--out`` file or else stdout (CSV with its ``#`` lines as meta, or JSON), and its stderr."""

    meta: dict
    rows: list
    stderr: str


def _parse(record):
    text = record["stdout"] if record["out"] is None else record["out"]
    if text.startswith("{"):
        report = json.loads(text)
        return Report(report["meta"], report["rows"], record["stderr"])
    lines = text.splitlines()
    meta = [line[1:].partition(":") for line in lines if line.startswith("#")]
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    return Report({key.strip(): value.strip() for key, _, value in meta}, list(rows), record["stderr"])


def _near(value, target, tol):
    return abs(float(value) - target) <= tol


def _near_product(d, tail):
    # Schmidt coefficients (sqrt(1 - (d-1) tail^2), tail, ..., tail): rank
    # one under the rule while tail <= RANK_TOL, so labelled product-shared.
    s = np.array([math.sqrt(1.0 - (d - 1) * tail**2)] + [tail] * (d - 1))
    return {"shared.json": _state(d, np.diag(s).reshape(-1))}


_FIDELITY_FILE = "fidelity --d {d} --shared custom --shared-file shared.json --no-timestamp"
_EXACT = "average --d {d} --basis bell --shared maximally-entangled --samples 30001"
_TELEPORT_GATE = "teleport --d 2 --samples 5 --no-timestamp"
_AVERAGE_GATE = "average --d 2 --samples 1000 --no-timestamp"
_P_ABOVE_1 = ("sample_outcome", lambda out: [dataclasses.replace(out[0], probability=1 + 1e-9), *out[1:]])
_MEAN_MOVED = ("monte_carlo_fidelity", lambda mc: dataclasses.replace(mc, monte_carlo_mean=mc.monte_carlo_mean - 1e-9))
_CLOSED_FORM_MOVED = ("special_case_fidelity", lambda found: (found[0], found[1] + 1e-6))
# (name, flags, exit) of a gate whose value moved by 1e-9: past the default and the floor, within 1e-8.
_MOVED = (("default", "", 1), ("tolerance-1e-8", " --tolerance 1e-8", 0), ("tolerance-1e-30", " --tolerance 1e-30", 1))
_TIMESTAMP = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"

# What the CLI reports and when it exits 1, one row per run: (id, argv split
# on spaces, input files {name: payload} written into the run's working
# directory, patch, exit code, check).  A patch (name, change) makes
# cli.<name> return change(what it returned) for the run; the check takes the
# run's Report and says whether it holds what the row asserts.
_REPORTS = [
    ("verify-reports-its-residual",
     "verify --d 3 --shared haar-random --samples 25 --seed 7 --no-timestamp --out verify.csv", {}, None, 0,
     lambda r: (r.meta["command"], len(r.rows), r.rows[0]["quantity"], r.rows[0]["seed"])
     == ("verify", 1, "max_identity_residual", "7") and float(r.rows[0]["residual"]) < 1e-10),
    ("verify-tolerance-1e-30-exits-1", "verify --d 2 --samples 5 --tolerance 1e-30 --no-timestamp --out verify.csv",
     {}, None, 1, lambda r: float(r.rows[0]["residual"]) > 1e-30),
    ("verify-product-basis-d8", "verify --d 8 --basis product --samples 10 --no-timestamp --out verify8.csv",
     {}, None, 0, lambda r: float(r.rows[0]["residual"]) < 1e-10),
    # An unnormalized resource is rescaled with notice.
    ("verify-custom-basis-and-unnormalized-shared-file", "verify --d 2 --basis custom --basis-file basis.json "
     "--shared custom --shared-file shared.json --samples 10 --no-timestamp --out custom.csv",
     {"basis.json": {"d": 2, "elements": _bell_payload()}, "shared.json": _state(2, [1.0, 0.0, 0.0, 1.0])},
     None, 0, lambda r: "normalizing" in r.stderr and float(r.rows[0]["residual"]) < 1e-10),
    # Neither the plain norm's overflow to inf nor its underflow to 0 may reach
    # the warning, the rescaling or the zero-amplitude refusal.  E(F) = 2/(d + 1).
    *((f"shared-file-norm-{norm}", _FIDELITY_FILE.format(d=2), {"shared.json": {"d": 2, "amplitudes": entries}},
       None, 0, lambda r, norm=norm: r.stderr == f"warning: normalizing shared.json (norm was {norm})\n"
       and [(row["label"], row["analytic"]) for row in r.rows] == [("product-shared", "0.66666666666666663")] * 2)
      for entries, norm in (([[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "1e+308"),
                            ([[10**20, 0], [0, 0], [0, 0], [0, 0]], "1e+20"),  # an integer numpy holds as an object
                            ([[0.0, 0.0], [1e-320, 0.0], [0.0, 0.0], [0.0, 0.0]], "9.99988867183e-321"))),
    # Every shot exact; the outcome histogram within 3 binomial standard errors, sqrt(1000 / 4 * 3 / 4), of 250.
    ("teleport-ideal-transcript", "teleport --d 2 --samples 1000 --seed 3 --no-timestamp --out teleport.csv",
     {}, None, 0, lambda r: len(r.rows) == 1000 and all(
         _near(row["conditional_fidelity"], 1.0, 1e-10) and _near(row["probability"], 0.25, 1e-10) for row in r.rows)
     and all(abs(np.bincount([int(row["xi"]) for row in r.rows], minlength=4) - 250) <= 3 * 187.5**0.5)),
    ("teleport-product-resource-rows-in-range",
     "teleport --d 2 --shared product --samples 100 --seed 9 --no-timestamp --out product.csv", {}, None, 0,
     lambda r: len(r.rows) == 100 and all(0.0 <= float(row[key]) <= 1.0 + 1e-12 for row in r.rows
                                           for key in ("probability", "conditional_fidelity"))),
    # Classical re-preparation of |0> always fires outcome (0, 0).
    ("teleport-psi-file-fixes-the-input", "teleport --d 2 --shared product --basis product --psi-file psi.json "
     "--samples 20 --no-timestamp --out shots.csv", {"psi.json": _state(2, [1.0, 0.0])}, None, 0,
     lambda r: {row["xi"] for row in r.rows} == {"0"}
     and all(_near(row["conditional_fidelity"], 1.0, 1e-12) for row in r.rows)),
    # The gate is 1 + max(PROBABILITY_TOL, --tolerance): a sound run passes
    # even a --tolerance below the floor, and a probability of 1 + 1e-9 fails
    # the default 1e-10 and the floor but passes --tolerance 1e-8.
    ("teleport-gate-sound-tolerance-1e-30", f"{_TELEPORT_GATE} --tolerance 1e-30", {}, None, 0,
     lambda r: max(float(row["probability"]) for row in r.rows) <= 1.0),
    *((f"teleport-gate-p-1+1e-9-{name}", _TELEPORT_GATE + extra, {}, _P_ABOVE_1, code,
       lambda r: float(r.rows[0]["probability"]) == 1 + 1e-9) for name, extra, code in _MOVED),
    ("fidelity-product-resource", "fidelity --d 2 --shared product --no-timestamp", {}, None, 0,
     lambda r: (r.rows[0]["label"], r.rows[1]["quantity"]) == ("product-shared", "special_case_fidelity")
     and all(_near(row["analytic"], 2 / 3, 1e-12) for row in r.rows[:2])),
    *((f"fidelity-classical-sweep-d{d}", f"fidelity --d {d} --shared product --no-timestamp --out sweep{d}.csv",
       {}, None, 0, lambda r, d=d: _near(r.rows[0]["analytic"], 2 / (d + 1), 1e-12)) for d in range(2, 7)),
    ("fidelity-csv-module-reads-the-report", "fidelity --d 3 --no-timestamp --out roundtrip.csv", {}, None, 0,
     lambda r: r.rows[0]["experiment"] == "fidelity" and _near(r.rows[0]["analytic"], 1.0, 1e-10)),
    # A near-product resource passes: the gap is 6.7e-12 at d = 2 and 1.4e-10, above the default --tolerance, at d = 8.
    *((f"fidelity-near-product-d{d}-tail-{tail:g}-tolerance-{tolerance}", _FIDELITY_FILE.format(d=d)
       + ("" if tolerance == "default" else f" --tolerance {tolerance}"), _near_product(d, tail), None, 0,
       lambda r: any(row["label"] == "product-shared" for row in r.rows))
      for d, tail, tolerance in ((2, 1e-11, "1e-6"), (2, 1e-11, "1e-10"), (8, 9e-11, "default"))),
    # A closed form moved by 1e-6 fails: the special-case row less the analytic one, within 2 d RANK_TOL.
    *((f"fidelity-gate-closed-form-moved-{name}", argv, files, _CLOSED_FORM_MOVED, 1,
       lambda r: _near(float(r.rows[1]["analytic"]) - float(r.rows[0]["analytic"]), 1e-6, 1e-9))
      for name, argv, files in (("near-product-d2", _FIDELITY_FILE.format(d=2), _near_product(2, 1e-11)),
                                ("ideal-d3", "fidelity --d 3 --no-timestamp", {}))),
    # 17 significant digits round-trip the double.
    ("average-json-product-resource", "average --d 2 --shared product --samples 5000 --seed 5 --format json "
     "--no-timestamp --out avg.json", {}, None, 0,
     lambda r: (r.meta["command"], r.rows[0]["label"]) == ("average", "product-shared")
     and _near(r.rows[0]["analytic"], 2 / 3, 1e-12)
     and abs(r.rows[0]["mc_mean"] - r.rows[0]["analytic"]) <= 4 * r.rows[0]["mc_stderr"] + 1e-9
     and float(format(r.rows[0]["mc_mean"], ".17g")) == r.rows[0]["mc_mean"]),
    ("average-ideal-d4-every-sample-exact",
     "average --d 4 --samples 2000 --seed 1 --format json --no-timestamp --out ideal.json", {}, None, 0,
     lambda r: _near(r.rows[0]["analytic"], 1.0, 1e-10) and _near(r.rows[0]["mc_mean"], 1.0, 1e-10)
     and r.rows[0]["mc_stderr"] <= 1e-12),
    # Every input teleports perfectly, so the spread of the samples is rounding
    # noise.  A variance taken as sum(f^2) - n mean^2 turned that noise into
    # 6e-11 (d=3) with the per-outcome kernel and 1e-10 (d=5) with the GEMM kernel.
    # The mean is rounding noise off the analytic value, which the floor 64 d^2 eps covers.
    *((f"average-exact-d{d}-rounding-level-stderr",
       _EXACT.format(d=d) + " --format json --no-timestamp --out exact.json", {}, None, 0,
       lambda r: r.rows[0]["mc_stderr"] <= 1e-15) for d in (3, 5)),
    ("average-exact-d3-floor-under-tolerance-1e-30", _EXACT.format(d=3) + " --tolerance 1e-30 --no-timestamp",
     {}, None, 0, lambda r: r.rows[0]["mc_mean"] != r.rows[0]["analytic"]),
    # The gate is 4 standard errors + max(monte_carlo_rounding_bound(d),
    # --tolerance).  Every sample of the ideal setup is exact, so a sound run
    # passes even a --tolerance below the floor, and an estimate moved by 1e-9
    # fails the default 1e-10 and the floor but passes --tolerance 1e-8.
    ("average-gate-sound-tolerance-1e-30", f"{_AVERAGE_GATE} --tolerance 1e-30", {}, None, 0,
     lambda r: r.rows[0]["mc_mean"] == r.rows[0]["analytic"]),
    *((f"average-gate-mean-moved-1e-9-{name}", _AVERAGE_GATE + extra, {}, _MEAN_MOVED, code,
       lambda r: _near(float(r.rows[0]["analytic"]) - float(r.rows[0]["mc_mean"]), 1e-9, 1e-15))
      for name, extra, code in _MOVED),
    # A UTC timestamp unless --no-timestamp, the ninth line of a CSV report.
    ("timestamp-csv", "fidelity --format csv", {}, None, 0,
     lambda r: list(r.meta)[8] == "timestamp" and re.fullmatch(_TIMESTAMP, r.meta["timestamp"]) is not None),
    ("timestamp-json", "fidelity --format json", {}, None, 0,
     lambda r: re.fullmatch(_TIMESTAMP, r.meta["timestamp"]) is not None),
]


def _run_row(argv, files, patch, tmp_path, monkeypatch):
    """A row's record from ``cli_grid.run`` in ``tmp_path``, which holds its files, and its report."""
    monkeypatch.chdir(tmp_path)
    for name, payload in files.items():
        _write(tmp_path / name, payload)
    if patch:
        name, change = patch
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: change(real(*args, **kwargs)))
    record = cli_grid.run(argv.split())
    return record, _parse(record)


@pytest.mark.parametrize("argv, files, patch, exit, check", [row[1:] for row in _REPORTS],
                         ids=[row[0] for row in _REPORTS])
def test_run_matches_its_row(argv, files, patch, exit, check, tmp_path, monkeypatch):
    record, report = _run_row(argv, files, patch, tmp_path, monkeypatch)
    assert (record["exit"], check(report)) == (exit, True)


@pytest.mark.parametrize("row_id", ["verify-reports-its-residual", "teleport-gate-p-1+1e-9-default"])
def test_the_assertion_rejects_a_wrong_exit_or_check(row_id, tmp_path, monkeypatch):
    _, argv, files, patch, exit, check = next(row for row in _REPORTS if row[0] == row_id)
    record, report = _run_row(argv, files, patch, tmp_path, monkeypatch)
    assert (record["exit"], check(report)) == (exit, True)
    for wrong_exit, wrong_check in ((1 - exit, check), (exit, lambda r: not check(r))):
        assert (record["exit"], wrong_check(report)) != (wrong_exit, True)


@pytest.mark.parametrize("kind", ["bell", "product", "rotated"])
@pytest.mark.parametrize("d", range(1, 7))
def test_saved_files_match_comprehension_oracle(tmp_path, kind, d):
    rng = np.random.default_rng(60 + d)
    basis = (rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d)) if kind == "rotated"
             else (bell_basis if kind == "bell" else product_basis)(d))
    save_basis_file(tmp_path / "basis.json", basis)
    assert (tmp_path / "basis.json").read_text() == oracles.basis_file_text(d, basis.elements)
    for amplitudes in (basis.vectors()[-1], oracles.random_complex(rng, d * d), -np.zeros(d)):
        save_state_file(tmp_path / "state.json", d, amplitudes)
        assert (tmp_path / "state.json").read_text() == oracles.state_file_text(d, amplitudes)


def test_custom_state_and_basis_files(tmp_path):
    basis_path, shared_path = tmp_path / "basis.json", tmp_path / "shared.json"
    save_basis_file(basis_path, bell_basis(2))
    np.testing.assert_allclose(load_basis_file(str(basis_path)).elements, bell_basis(2).elements, atol=1e-15)
    save_state_file(shared_path, 2, np.array([1.0, 0.0, 0.0, 1.0]))  # unnormalized
    d, amplitudes = load_state_file(str(shared_path))
    assert d == 2 and amplitudes.size == 4


@pytest.mark.parametrize("command, argv", [("verify", ["--samples", "1"]), ("teleport", ["--samples", "3"]),
                                           ("fidelity", []), ("average", ["--samples", "100"])])
@pytest.mark.parametrize("floor", [0.0, 1e-6])
def test_one_exit_rule_at_its_boundary(monkeypatch, command, argv, floor):
    # Each runner returns (excess, floor, rows) and main alone decides: an
    # excess equal to max(floor, --tolerance) passes, the next float up fails,
    # and a floor above --tolerance is the bound.
    tolerance = 1e-10
    bound = max(floor, tolerance)
    real = cli._COMMANDS[command]
    for excess, code in ((bound, 0), (math.nextafter(bound, math.inf), 1)):
        fake = lambda cfg, rng, setup, excess=excess: (excess, floor, real.runner(cfg, rng, setup)[2])
        monkeypatch.setitem(cli._COMMANDS, command, real._replace(runner=fake))
        assert cli_grid.run([command, *argv, "--tolerance", str(tolerance), "--no-timestamp"])["exit"] == code


_WORKLOADS = ["average-mc", "fidelity-setup", "teleport-shots", "verify-custom"]


@pytest.mark.parametrize("name", _WORKLOADS)
def test_each_bench_workload_matches_its_reference(name, tmp_path):
    # Each benchmark workload replays its output pinned in bench/reference.json:
    # the teleport transcript by SHA-256 and length, fidelity and verify byte
    # for byte, and average with its floats within bench's FLOAT_TOL.  bench
    # is imported here, so an import error there fails this test alone.
    from bench import checks
    from bench.workloads import WORKLOADS, invocation_argv, write_inputs

    reference = checks.load_references()
    assert sorted(reference["outputs"]) == _WORKLOADS
    seed, workload, pinned = reference["seed"], WORKLOADS[name], reference["outputs"][name]
    record = cli_grid.run(invocation_argv(workload, seed, write_inputs(workload, seed, str(tmp_path))))
    assert record["exit"] == 0
    out = record["stdout"]
    if name == "teleport-shots":
        data = out.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (pinned["sha256"], pinned["bytes"])
    elif name == "average-mc":
        assert checks.reference_problems("average", out, pinned) == []
    else:
        assert out == pinned["text"]


def test_csv_and_json_scalar_formatting_is_pinned():
    values = [None, True, np.bool_(False), 3, np.int64(3), 0.1, np.float64(1 / 3), -0.0, "bell"]
    columns = [f"c{i}" for i in range(len(values))]
    row = dict(zip(columns, values))
    meta = {"m": None, "s": "bell"}
    assert render_csv(meta, columns, [row]) == (
        "# m: \n"
        "# s: bell\n"
        "c0,c1,c2,c3,c4,c5,c6,c7,c8\n"
        ",true,false,3,3,0.10000000000000001,0.33333333333333331,-0,bell\n"
    )
    assert render_json(meta, columns, [row]) == (
        "{\n"
        '  "meta": {"m": null, "s": "bell"},\n'
        '  "rows": [\n'
        '    {"c0": null, "c1": true, "c2": false, "c3": 3, "c4": 3, '
        '"c5": 0.10000000000000001, "c6": 0.33333333333333331, "c7": -0, "c8": "bell"}\n'
        "  ]\n"
        "}\n"
    )


_RENDERERS = pytest.mark.parametrize("render, oracle", [
    (render_csv, oracles.render_csv_per_row), (render_json, oracles.render_json_per_row),
])
_META = {"command": "teleport", "d": 2, "tolerance": 1e-10, "missing": None}


def _fresh_rows(columns, rows):
    # One new dict per row, its shot cell set to its position.
    return [{**row, "shot": shot} if "shot" in columns else dict(row) for shot, row in enumerate(rows)]


@_RENDERERS
def test_renderers_match_the_per_row_oracle_on_a_transcript(render, oracle):
    argv = ["teleport", "--d", "2", "--shared", "haar-random", "--samples", "50", "--seed", "4"]
    cfg = config_from_namespace(build_parser().parse_args(argv))
    _, _, rows = cli.run_teleport(cfg, *cli._resolve_setup(cfg))
    # Shots share one row object per distinct xi, the first and last shot too.
    assert len({id(row) for row in rows}) < len(rows)
    assert any(row is rows[0] for row in rows[1:]) and any(row is rows[-1] for row in rows[:-1])
    columns = cli.TRANSCRIPT_COLUMNS
    assert render(_META, columns, rows) == oracle(_META, columns, _fresh_rows(columns, rows))


@pytest.mark.parametrize("shots", [0, 1, 2000])
@pytest.mark.parametrize("d", [2, 8, 17])
def test_transcript_rows_are_the_sampled_records_in_shot_order(d, shots):
    # run_teleport draws what sample_outcome draws, in shot order, with one
    # row object per distinct record, which that record's shots share; both
    # leave their generators in the same state.
    argv = ["teleport", "--d", str(d), "--shared", "haar-random", "--samples", str(shots), "--seed", "5"]
    cfg = config_from_namespace(build_parser().parse_args(argv))
    rng, setup = cli._resolve_setup(cfg)
    rows = cli.run_teleport(cfg, rng, setup)[2]
    twin, twin_setup = cli._resolve_setup(cfg)
    records = teleport.sample_outcome(cli._resolve_psi(cfg, twin), twin_setup, twin, size=shots)
    assert [(row["xi"], row["probability"], row["conditional_fidelity"]) for row in rows] == [
        (record.xi, record.probability, record.conditional_fidelity) for record in records]
    first = {}
    assert all(first.setdefault(record.xi, row) is row for row, record in zip(rows, records))
    assert len({id(row) for row in rows}) == len(first)
    assert rng.bit_generator.state == twin.bit_generator.state


_A = {"shot": None, "xi": 3, "probability": 0.1, "label": "bell"}
_B = {"shot": None, "xi": 0, "probability": 1 / 3, "label": None}


@_RENDERERS
@pytest.mark.parametrize("columns, rows", [
    (cli.TRANSCRIPT_COLUMNS, []),
    (("xi", "probability", "label"), [_A, _B]),
    (("xi", "probability", "label"), [_A, _A, _A]),
    (("shot", "xi", "probability"), [_A, _B, _A, _A]),
    (("xi", "label", "shot"), [_B, _A, _B]),
    (("shot",), [_A, _A]),
], ids=["zero rows", "no shot column", "one row repeated", "shot first", "shot last", "shot only"])
def test_renderers_match_the_per_row_oracle(render, oracle, columns, rows):
    assert render(_META, columns, rows) == oracle(_META, columns, _fresh_rows(columns, rows))


def test_same_seed_gives_identical_bytes(tmp_path):
    argv = ["teleport", "--d", "3", "--shared", "haar-random", "--samples", "50", "--seed", "11", "--no-timestamp"]
    first, second = (cli_grid.run(argv + ["--out", str(tmp_path / name)]) for name in ("a.csv", "b.csv"))
    assert first["exit"] == second["exit"] == 0 and first["out"] and first["out"] == second["out"]


def _no_such_file(verb, path):
    return f"cannot {verb} {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {path!r}"


_PHI_PLUS = [[0.5**0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5**0.5, 0.0]]
_CUSTOM_BASIS = ["verify", "--d", "2", "--basis", "custom"]
_CUSTOM_SHARED = ["verify", "--d", "2", "--shared", "custom"]
_TELEPORT = ["teleport", "--d", "2", "--samples", "1"]
_TELEPORT_BASIS = _TELEPORT + ["--basis", "custom"]
_TELEPORT_SHARED = _TELEPORT + ["--shared", "custom"]
_STRETCHED = [[[[1.5 * x for x in z] for z in row] if xi == 2 else row for row in el]
              for xi, el in enumerate(_bell_payload())]  # one Gram diagonal entry 2.25

# The CLI's refusal contract, one row per unusable input: (argv, file flag,
# payload, error text).  The payload, JSON-encoded unless it is bytes, is
# written to input.json and passed with the flag; {path} in the text is that
# file's path.
_REFUSALS = [
    # configurations
    (["verify", "--d", "0"], None, None, "--d must be at least 1"),
    (["verify", "--seed", "-1"], None, None, "--seed must fit in an unsigned 64-bit integer"),
    (["verify", "--tolerance=nan"], None, None, "--tolerance must be finite"),
    (["verify", "--tolerance=inf"], None, None, "--tolerance must be finite"),
    (["verify", "--tolerance=-inf"], None, None, "--tolerance must be positive"),
    (["verify", "--tolerance=0"], None, None, "--tolerance must be positive"),
    (["fidelity", "--samples", "7"], None, None, "--samples is not read by the fidelity command"),
    (["teleport", "--samples", "-1"], None, None, "--samples must be nonnegative"),
    (["verify", "--samples", "0"], None, None, "the verify command needs --samples of at least 1"),
    (["average", "--samples", "50"], None, None, "the average command needs --samples of at least 100"),
    (["verify", "--basis", "custom"], None, None, "--basis custom requires --basis-file"),
    (["verify", "--shared", "custom"], None, None, "--shared custom requires --shared-file"),
    # files that cannot be opened
    (_CUSTOM_BASIS + ["--basis-file", "/nonexistent.json"], None, None,
     _no_such_file("read", "/nonexistent.json")),
    (["fidelity", "--d", "2", "--out", "/nonexistent-dir/report.csv"], None, None,
     _no_such_file("write", "/nonexistent-dir/report.csv")),
    # file structure
    (_CUSTOM_BASIS, "--basis-file", b"not json at all",
     "{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    (_TELEPORT, "--psi-file", b'{"d": 2, "amplitudes": "\xff\xfe"}',
     "{path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"),
    (_TELEPORT, "--psi-file", b'{"d": 2, "amplitudes": [[' + b"9" * 5000 + b", 0], [0, 0]]}",
     "{path} is not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
     "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    (_CUSTOM_SHARED, "--shared-file", [], "{path}: expected a JSON object"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 2}, "{path}: missing key 'amplitudes'"),
    (_TELEPORT_SHARED, "--shared-file", {"d": "x", "amplitudes": _PHI_PLUS},
     '{path}: d must be an integer of at least 1, got "x"'),
    (_TELEPORT_BASIS, "--basis-file", {"d": None, "elements": _bell_payload()},
     "{path}: d must be an integer of at least 1, got null"),
    (_TELEPORT_SHARED, "--shared-file", {"d": 2.5, "amplitudes": _PHI_PLUS},
     "{path}: d must be an integer of at least 1, got 2.5"),
    (["teleport", "--d", "1", "--samples", "1", "--basis", "custom"], "--basis-file",
     {"d": True, "elements": _bell_payload(1)},
     "{path}: d must be an integer of at least 1, got true"),
    # entries
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [1.0, 0.0, 0.0, 0.0]},
     "{path}: entries must be [re, im] pairs"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [[1.0, 0.0], [0.0]]},
     "{path}: entries must be [re, im] pairs"),
    (_TELEPORT_SHARED, "--shared-file", {"d": 2, "amplitudes": [["a", 0], [0, 0]]},
     "{path}: entries must be numbers"),
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [["1", "0"], ["0", "0"]]},
     "{path}: entries must be numbers"),
    # integers beyond 64 bits, which numpy holds as objects: beside text, and beyond a float
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [[10**20, "0"]] + _PHI_PLUS[1:]},
     "{path}: entries must be numbers"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [[10**400, 0]] + _PHI_PLUS[1:]},
     "{path}: entries must fit in a float"),
    # JSON booleans: alone, and beside a float, which numpy would cast silently
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [[True, False], [False, False]]},
     "{path}: entries must be numbers"),
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [[True, 0.5], [0, 0]]},
     "{path}: entries must be numbers"),
    # NaN and Infinity literals, which json.load accepts
    (_TELEPORT_BASIS, "--basis-file", {"d": 2, "elements": [[[[math.nan, 0.0]] * 2] * 2] * 4},
     "{path} element 0: entries must be finite"),
    (_TELEPORT_SHARED, "--shared-file", {"d": 2, "amplitudes": [[math.inf, 0.0]] + _PHI_PLUS[1:]},
     "{path}: entries must be finite"),
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [[math.nan, 0.0], [1.0, 0.0]]},
     "{path}: entries must be finite"),
    # state files
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [[[1, 0]]]}, "{path}: amplitudes must be a flat list"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [[1, 0], [0, 0], [0, 0]]},
     "{path}: expected 2 or 4 amplitudes, found 3"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 3, "amplitudes": [[1 / 3, 0.0]] * 9},
     "{path}: shared state must have d = 2 and 4 amplitudes"),
    (_TELEPORT, "--psi-file", {"d": 2, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 3},
     "{path}: input state must have d = 2 and 2 amplitudes"),
    (_CUSTOM_SHARED, "--shared-file", {"d": 2, "amplitudes": [[0.0, 0.0]] * 4},
     "{path}: amplitudes are identically zero"),
    # basis files
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": 3}, "{path}: elements must be a list of matrices"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": []},
     "{path}: elements must be a sequence of square matrices"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": [[[1.0, 0.0]]]},
     "{path}: expected a matrix, got array of shape (1,)"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": [[[[1.0, 0.0], [0.0, 0.0]]]]},
     "{path}: expected a square matrix, got shape (1, 2)"),
    (_TELEPORT_BASIS, "--basis-file",
     {"d": 2, "elements": _bell_payload()[:3] + [[[[1.0, 0.0]] * 3] * 3]},
     "{path}: elements must all have the same shape"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": [[[[1.0, 0.0], [0.0, 0.0]]] * 2]},
     "{path}: a basis for local dimension 2 needs 4 elements of shape 2 x 2, got array of shape (1, 2, 2)"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 1, "elements": _bell_payload(1)},
     "{path}: basis has d = 1, expected 2"),
    (_CUSTOM_BASIS, "--basis-file", {"d": 2, "elements": _STRETCHED},
     "{path}: basis is not orthonormal and complete (residual 1.250e+00)"),
    # entries whose Gram matrix overflows to inf and nan
    (["verify", "--d", "1", "--basis", "custom"], "--basis-file", {"d": 1, "elements": [[[[1e308, 1e308]]]]},
     "{path}: basis is not orthonormal and complete (residual inf)"),
]


def _refusal_id(argv, flag, payload, text):
    """A row's id from the row alone, so a new row renames no other: its text,
    then its argv, or its file flag and the start of its payload."""
    payload = payload.decode("utf-8", "backslashreplace") if isinstance(payload, bytes) else json.dumps(payload)
    return f"{text} <- {' '.join(argv) if flag is None else f'{flag} {payload[:40]}'}"


@pytest.mark.parametrize("argv, flag, payload, text", _REFUSALS, ids=[_refusal_id(*row) for row in _REFUSALS])
def test_an_unusable_input_exits_2_with_one_error_line(tmp_path, argv, flag, payload, text):
    path = tmp_path / "input.json"
    if flag:
        _write(path, payload)
        argv = [*argv, flag, str(path)]
    record = cli_grid.run([*argv, "--no-timestamp"])
    expected = f"error: {text.replace('{path}', str(path))}\n"
    assert (record["exit"], record["stdout"], record["stderr"]) == (2, "", expected)


@pytest.mark.parametrize("args, message", [
    (["fidelity", "--basis-file"], "--basis-file is read only with --basis custom"),
    (["verify", "--basis", "product", "--shared-file"], "--shared-file is read only with --shared custom"),
    (["average", "--psi-file"], "--psi-file is read only by the teleport command"),
], ids=["basis-file", "shared-file", "psi-file"])
def test_file_flag_the_chosen_kind_does_not_read_exits_2(tmp_path, monkeypatch, args, message):
    # Refused before any file is read: reading one fails the test.
    def no_read(path, key):
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(cli, "_load_file", no_read)
    record = cli_grid.run(args + [str(tmp_path / "missing.json"), "--no-timestamp"])
    assert (record["exit"], record["stdout"], record["stderr"]) == (2, "", f"error: {message}\n")


def test_oversized_dimension_is_refused_with_its_estimate():
    # main exits 2 on a DimensionError from config_from_namespace, which runs
    # before any basis or resource is built.  The refusal is checked on the
    # config step alone, so that a missing guard cannot allocate gigabytes.
    ns = build_parser().parse_args(["fidelity", "--d", "101", "--no-timestamp"])
    with pytest.raises(DimensionError, match=r"d = 101 at peak needs 416,241,604 complex entries \(6\.2 GiB\)"):
        config_from_namespace(ns)
    ns = build_parser().parse_args(["fidelity", "--d", "32"])
    assert config_from_namespace(ns) is ns
    assert ns.samples == 0
    # _PEAK_STACKS sets the largest d: 4 * 64^4 entries fit, 4 * 65^4 do not.
    ns = build_parser().parse_args(["fidelity", "--d", "64"])
    assert config_from_namespace(ns) is ns
    ns = build_parser().parse_args(["fidelity", "--d", "65"])
    with pytest.raises(DimensionError, match=r"d = 65 at peak needs 71,402,500 complex entries \(1\.1 GiB\)"):
        config_from_namespace(ns)


def test_oversized_transcript_is_refused_before_sampling(monkeypatch):
    # A shot costs _SHOT_BYTES of the dense budget, 16 bytes per entry.  With
    # the limit shrunk to 100 shots' worth, 100 shots run and 101 exit 2 with
    # the estimate, before anything is sampled; at the real limit a shot
    # count that would need terabytes is refused the same way.
    per_shot = cli._SHOT_BYTES // 16
    argv = ["teleport", "--d", "2", "--no-timestamp", "--samples"]
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 100 * per_shot)
    assert cli_grid.run(argv + ["100"])["exit"] == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("the shot guard must run first")

    monkeypatch.setattr(cli, "sample_outcome", unreachable)
    record = cli_grid.run(argv + ["101"])
    assert record["exit"] == 2
    estimate = f"a transcript of 101 shots at {cli._SHOT_BYTES:,} bytes each needs {101 * per_shot:,}"
    assert estimate in record["stderr"]
    monkeypatch.undo()
    monkeypatch.setattr(cli, "sample_outcome", unreachable)
    record = cli_grid.run(argv + ["10000000000000"])
    assert record["exit"] == 2
    assert "a transcript of 10,000,000,000,000 shots" in record["stderr"] and "GiB" in record["stderr"]
