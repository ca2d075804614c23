"""Tests for the command-line front end."""

import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

import oracles
from bench import checks as bench_checks
from bench.workloads import WORKLOADS, invocation_argv, write_inputs
from teleportlab import DimensionError, bell_basis, product_basis, rotated_basis
from teleportlab import cli, linalg, teleport
from teleportlab.cli import (
    build_parser,
    config_from_namespace,
    load_basis_file,
    load_state_file,
    main,
    render_csv,
    render_json,
    save_basis_file,
    save_state_file,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv_report(path):
    meta = {}
    rows = []
    header = None
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.strip().split(",")
            else:
                rows.append(dict(zip(header, line.strip().split(","))))
    return meta, rows


def test_verify_passes_and_reports_residual(tmp_path):
    out = tmp_path / "verify.csv"
    code = main([
        "verify", "--d", "3", "--shared", "haar-random", "--samples", "25",
        "--seed", "7", "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    meta, rows = read_csv_report(out)
    assert meta["command"] == "verify"
    assert len(rows) == 1
    row = rows[0]
    assert row["quantity"] == "max_identity_residual"
    assert float(row["residual"]) < 1e-10
    assert row["seed"] == "7"


def test_verify_fails_loudly_with_absurd_tolerance(tmp_path):
    out = tmp_path / "verify.csv"
    code = main([
        "verify", "--d", "2", "--samples", "5", "--tolerance", "1e-30",
        "--no-timestamp", "--out", str(out),
    ])
    assert code == 1


@pytest.mark.parametrize("entries, norm_text", [
    ([[1e308, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "1e+308"),
    ([[10**20, 0], [0, 0], [0, 0], [0, 0]], "1e+20"),  # an integer numpy holds as an object
    ([[0.0, 0.0], [1e-320, 0.0], [0.0, 0.0], [0.0, 0.0]], "9.99988867183e-321"),
])
def test_shared_file_with_extreme_norm_is_normalized(tmp_path, capsys, entries, norm_text):
    # Neither the plain norm's overflow to inf nor its underflow to 0 may
    # reach the warning, the rescaling or the zero-amplitude refusal.
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"d": 2, "amplitudes": entries}), encoding="utf-8")
    code, out, err = run_cli(["fidelity", "--d", "2", "--shared", "custom",
                              "--shared-file", str(path), "--no-timestamp"], capsys)
    assert code == 0
    assert err == f"warning: normalizing {path} (norm was {norm_text})\n"
    assert out.count(",product-shared,0.66666666666666663,") == 2  # E(F) = 2/(d + 1)


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


def test_teleport_transcript_ideal(tmp_path):
    out = tmp_path / "teleport.csv"
    shots = 1000
    code = main([
        "teleport", "--d", "2", "--samples", str(shots), "--seed", "3",
        "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv_report(out)
    assert len(rows) == shots
    for row in rows:
        assert float(row["conditional_fidelity"]) == pytest.approx(1.0, abs=1e-10)
        assert float(row["probability"]) == pytest.approx(0.25, abs=1e-10)
    # outcome histogram stays within 3 binomial standard errors of uniform
    counts = np.zeros(4)
    for row in rows:
        counts[int(row["xi"])] += 1
    sigma = math.sqrt(shots * 0.25 * 0.75)
    assert np.all(np.abs(counts - shots * 0.25) <= 3 * sigma)


def test_teleport_product_resource_rows_are_sane(tmp_path):
    out = tmp_path / "product.csv"
    code = main([
        "teleport", "--d", "2", "--shared", "product", "--samples", "100",
        "--seed", "9", "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv_report(out)
    assert len(rows) == 100
    for row in rows:
        assert 0.0 <= float(row["probability"]) <= 1.0 + 1e-12
        assert 0.0 <= float(row["conditional_fidelity"]) <= 1.0 + 1e-12


def test_teleport_exit_gate_reads_its_stated_tolerance(monkeypatch, capsys):
    # The gate is 1 + max(PROBABILITY_TOL, --tolerance): a sound run passes
    # even a --tolerance below the floor, and a probability of 1 + 1e-9 fails
    # the default 1e-10 and the floor but passes --tolerance 1e-8.
    argv = ["teleport", "--d", "2", "--samples", "5", "--no-timestamp"]
    assert run_cli(argv + ["--tolerance", "1e-30"], capsys)[0] == 0
    sample = cli.sample_outcome

    def corrupted(*args, **kwargs):
        outcomes = sample(*args, **kwargs)
        bad = dataclasses.replace(outcomes[0], probability=1.0 + 1e-9)
        return [bad] + outcomes[1:]

    monkeypatch.setattr(cli, "sample_outcome", corrupted)
    assert run_cli(argv, capsys)[0] == 1
    assert run_cli(argv + ["--tolerance", "1e-8"], capsys)[0] == 0
    assert run_cli(argv + ["--tolerance", "1e-30"], capsys)[0] == 1


def test_average_exit_gate_reads_its_stated_tolerance(monkeypatch, capsys):
    # The gate is 4 standard errors + max(monte_carlo_rounding_bound(d),
    # --tolerance).  Every sample of the ideal setup is exact, so a sound run
    # passes even a --tolerance below the floor, and an estimate moved by 1e-9
    # fails the default 1e-10 and the floor but passes --tolerance 1e-8.
    argv = ["average", "--d", "2", "--samples", "1000", "--no-timestamp"]
    assert run_cli(argv + ["--tolerance", "1e-30"], capsys)[0] == 0
    estimate = cli.monte_carlo_fidelity

    def corrupted(*args, **kwargs):
        result = estimate(*args, **kwargs)
        return dataclasses.replace(result, monte_carlo_mean=result.monte_carlo_mean - 1e-9)

    monkeypatch.setattr(cli, "monte_carlo_fidelity", corrupted)
    assert run_cli(argv, capsys)[0] == 1
    assert run_cli(argv + ["--tolerance", "1e-8"], capsys)[0] == 0
    assert run_cli(argv + ["--tolerance", "1e-30"], capsys)[0] == 1


@pytest.mark.parametrize("command, argv", [
    ("verify", ["--samples", "1"]),
    ("teleport", ["--samples", "3"]),
    ("fidelity", []),
    ("average", ["--samples", "100"]),
])
@pytest.mark.parametrize("floor", [0.0, 1e-6])
def test_one_exit_rule_at_its_boundary(monkeypatch, capsys, command, argv, floor):
    # Each runner returns (excess, floor, rows) and main alone decides: an
    # excess equal to max(floor, --tolerance) passes, the next float up fails,
    # and a floor above --tolerance is the bound.
    tolerance = 1e-10
    bound = max(floor, tolerance)
    real = cli._COMMANDS[command]
    for excess, code in ((bound, 0), (math.nextafter(bound, math.inf), 1)):
        fake = lambda cfg, rng, setup, excess=excess: (excess, floor, real.runner(cfg, rng, setup)[2])
        monkeypatch.setitem(cli._COMMANDS, command, real._replace(runner=fake))
        assert run_cli([command, *argv, "--tolerance", str(tolerance), "--no-timestamp"], capsys)[0] == code


_REFERENCE = bench_checks.load_references()


@pytest.mark.parametrize("name", sorted(_REFERENCE["outputs"]))
def test_each_bench_workload_matches_its_reference(name, tmp_path, capsys):
    # Each benchmark workload replays its output pinned in bench/reference.json:
    # the teleport transcript by SHA-256 and length, fidelity and verify byte
    # for byte, and average with its floats within bench's FLOAT_TOL.
    seed, workload, pinned = _REFERENCE["seed"], WORKLOADS[name], _REFERENCE["outputs"][name]
    argv = invocation_argv(workload, seed, write_inputs(workload, seed, str(tmp_path)))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if name == "teleport-shots":
        data = out.encode()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (pinned["sha256"], pinned["bytes"])
    elif name == "average-mc":
        assert bench_checks.reference_problems("average", out, pinned) == []
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


def test_verify_large_dimension_product_basis(tmp_path):
    out = tmp_path / "verify8.csv"
    code = main([
        "verify", "--d", "8", "--basis", "product", "--samples", "10",
        "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv_report(out)
    assert float(rows[0]["residual"]) < 1e-10


def test_same_seed_gives_identical_bytes(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main([
            "teleport", "--d", "3", "--shared", "haar-random", "--samples", "50",
            "--seed", "11", "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_fidelity_product_resource(capsys):
    code, out, _ = run_cli(
        ["fidelity", "--d", "2", "--shared", "product", "--no-timestamp"], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    values = dict(zip(header, lines[1].split(",")))
    assert values["label"] == "product-shared"
    assert float(values["analytic"]) == pytest.approx(2 / 3, abs=1e-12)
    closed = dict(zip(header, lines[2].split(",")))
    assert closed["quantity"] == "special_case_fidelity"
    assert float(closed["analytic"]) == pytest.approx(2 / 3, abs=1e-12)


def _near_product_resource(tmp_path, d, tail):
    # Schmidt coefficients (sqrt(1 - (d-1) tail^2), tail, ..., tail): rank
    # one under the rule while tail <= RANK_TOL, so labelled product-shared.
    s = np.full(d, tail)
    s[0] = math.sqrt(1.0 - (d - 1) * tail**2)
    path = tmp_path / "shared.json"
    save_state_file(path, d, np.diag(s).reshape(-1))
    return ["fidelity", "--d", str(d), "--shared", "custom", "--shared-file", str(path),
            "--no-timestamp"]


@pytest.mark.parametrize("d, tail, tolerance", [
    (2, 1e-11, "1e-6"),    # gap 6.7e-12
    (2, 1e-11, "1e-10"),
    (8, 9e-11, None),      # gap 1.4e-10, above the default --tolerance
])
def test_fidelity_near_product_resource_passes(tmp_path, capsys, d, tail, tolerance):
    args = _near_product_resource(tmp_path, d, tail)
    if tolerance is not None:
        args += ["--tolerance", tolerance]
    code, out, _ = run_cli(args, capsys)
    assert "product-shared" in out
    assert code == 0


def test_fidelity_fails_on_a_wrong_closed_form(tmp_path, capsys, monkeypatch):
    real = cli.special_case_fidelity

    def off_by_1e_6(setup):
        case, value = real(setup)
        return case, value + 1e-6

    monkeypatch.setattr(cli, "special_case_fidelity", off_by_1e_6)
    code, _, _ = run_cli(_near_product_resource(tmp_path, 2, 1e-11), capsys)
    assert code == 1
    code, _, _ = run_cli(["fidelity", "--d", "3", "--no-timestamp"], capsys)
    assert code == 1


def test_average_json_report(tmp_path):
    out = tmp_path / "avg.json"
    code = main([
        "average", "--d", "2", "--shared", "product", "--samples", "5000",
        "--seed", "5", "--format", "json", "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["meta"]["command"] == "average"
    row = data["rows"][0]
    assert row["label"] == "product-shared"
    assert row["analytic"] == pytest.approx(2 / 3, abs=1e-12)
    gap = abs(row["mc_mean"] - row["analytic"])
    assert gap <= 4 * row["mc_stderr"] + 1e-9
    # 17-significant-digit serialization round-trips the double exactly
    assert float(format(row["mc_mean"], ".17g")) == row["mc_mean"]


def test_average_ideal_setup_every_sample_exact(tmp_path):
    out = tmp_path / "ideal.json"
    code = main([
        "average", "--d", "4", "--samples", "2000", "--seed", "1",
        "--format", "json", "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["analytic"] == pytest.approx(1.0, abs=1e-10)
    assert row["mc_mean"] == pytest.approx(1.0, abs=1e-10)
    assert row["mc_stderr"] <= 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_average_exact_setup_reports_rounding_level_stderr(tmp_path, d):
    # Every input teleports perfectly, so the spread of the samples is
    # rounding noise.  A variance taken as sum(f^2) - n mean^2 turned that
    # noise into 6e-11 (d=3) with the per-outcome kernel and 1e-10 (d=5)
    # with the GEMM kernel.
    out = tmp_path / "exact.json"
    code = main([
        "average", "--d", str(d), "--basis", "bell", "--shared", "maximally-entangled",
        "--samples", "30001", "--format", "json", "--no-timestamp", "--out", str(out),
    ])
    assert code == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["mc_stderr"] <= 1e-15


def test_classical_sweep_matches_closed_form(tmp_path):
    for d in range(2, 7):
        out = tmp_path / f"sweep{d}.csv"
        code = main([
            "fidelity", "--d", str(d), "--shared", "product", "--no-timestamp",
            "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv_report(out)
        assert float(rows[0]["analytic"]) == pytest.approx(2 / (d + 1), abs=1e-12)


def test_custom_state_and_basis_files(tmp_path, capsys):
    basis_path = tmp_path / "basis.json"
    save_basis_file(basis_path, bell_basis(2))
    reloaded = load_basis_file(str(basis_path))
    np.testing.assert_allclose(reloaded.elements, bell_basis(2).elements, atol=1e-15)

    shared_path = tmp_path / "shared.json"
    save_state_file(shared_path, 2, np.array([1.0, 0.0, 0.0, 1.0]))  # unnormalized
    d, amplitudes = load_state_file(str(shared_path))
    assert d == 2 and amplitudes.size == 4

    out = tmp_path / "custom.csv"
    code = main([
        "verify", "--d", "2", "--basis", "custom", "--basis-file", str(basis_path),
        "--shared", "custom", "--shared-file", str(shared_path),
        "--samples", "10", "--no-timestamp", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 0
    assert "normalizing" in err  # the unnormalized resource is rescaled with notice
    _, rows = read_csv_report(out)
    assert float(rows[0]["residual"]) < 1e-10


def test_custom_psi_file_fixes_the_input(tmp_path):
    psi_path = tmp_path / "psi.json"
    save_state_file(psi_path, 2, np.array([1.0, 0.0]))
    out = tmp_path / "shots.csv"
    code = main([
        "teleport", "--d", "2", "--shared", "product", "--basis", "product",
        "--psi-file", str(psi_path), "--samples", "20", "--no-timestamp",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv_report(out)
    # classical re-preparation of |0> always fires outcome (0, 0)
    assert {row["xi"] for row in rows} == {"0"}
    for row in rows:
        assert float(row["conditional_fidelity"]) == pytest.approx(1.0, abs=1e-12)


def _bell_payload(d=2):
    return [[[[z.real, z.imag] for z in row] for row in el] for el in bell_basis(d).elements]


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
def test_an_unusable_input_exits_2_with_one_error_line(tmp_path, capsys, argv, flag, payload, text):
    path = tmp_path / "input.json"
    if flag:
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8"))
        argv = [*argv, flag, str(path)]
    expected = f"error: {text.replace('{path}', str(path))}\n"
    assert run_cli([*argv, "--no-timestamp"], capsys) == (2, "", expected)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reports_carry_a_utc_timestamp_by_default(capsys, fmt):
    code, out, _ = run_cli(["fidelity", "--format", fmt], capsys)
    assert code == 0
    if fmt == "csv":
        stamp = out.splitlines()[8]
        assert re.fullmatch(r"# timestamp: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)
    else:
        stamp = json.loads(out)["meta"]["timestamp"]
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)


@pytest.mark.parametrize(
    "args, message",
    [
        (["fidelity", "--basis-file"], "--basis-file is read only with --basis custom"),
        (["verify", "--basis", "product", "--shared-file"],
         "--shared-file is read only with --shared custom"),
        (["average", "--psi-file"], "--psi-file is read only by the teleport command"),
    ],
    ids=["basis-file", "shared-file", "psi-file"],
)
def test_file_flag_the_chosen_kind_does_not_read_exits_2(tmp_path, monkeypatch, capsys, args, message):
    # Refused before any file is read: reading one fails the test.
    def no_read(path, key):
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(cli, "_load_file", no_read)
    code = main(args + [str(tmp_path / "missing.json"), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


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


def test_oversized_transcript_is_refused_before_sampling(monkeypatch, capsys):
    # A shot costs _SHOT_BYTES of the dense budget, 16 bytes per entry.  With
    # the limit shrunk to 100 shots' worth, 100 shots run and 101 exit 2 with
    # the estimate, before anything is sampled; at the real limit a shot
    # count that would need terabytes is refused the same way.
    per_shot = cli._SHOT_BYTES // 16
    argv = ["teleport", "--d", "2", "--no-timestamp", "--samples"]
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 100 * per_shot)
    assert run_cli(argv + ["100"], capsys)[0] == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("the shot guard must run first")

    monkeypatch.setattr(cli, "sample_outcome", unreachable)
    code, _, err = run_cli(argv + ["101"], capsys)
    assert code == 2
    estimate = f"a transcript of 101 shots at {cli._SHOT_BYTES:,} bytes each needs {101 * per_shot:,}"
    assert estimate in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "sample_outcome", unreachable)
    code, _, err = run_cli(argv + ["10000000000000"], capsys)
    assert code == 2
    assert "a transcript of 10,000,000,000,000 shots" in err and "GiB" in err


def test_csv_is_parseable_by_csv_module(tmp_path):
    out = tmp_path / "roundtrip.csv"
    main(["fidelity", "--d", "3", "--no-timestamp", "--out", str(out)])
    with open(out, newline="") as handle:
        body = [line for line in handle if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    assert rows and rows[0]["experiment"] == "fidelity"
    assert float(rows[0]["analytic"]) == pytest.approx(1.0, abs=1e-10)
