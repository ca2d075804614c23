"""Tests for the command-line front end."""

import csv
import json
import math

import numpy as np
import pytest

import oracles
from teleportlab import (
    DimensionError,
    basis_state,
    bell_basis,
    build_setup,
    haar_state,
    product_basis,
    product_state,
    random_shared_state,
)
from teleportlab import cli, teleport
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


def run_cli(args, capsys=None):
    code = main(args)
    if capsys is None:
        return code, None, None
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


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("basis, shared", [("bell", "haar-random"), ("product", "product")])
def test_teleport_transcript_equals_per_shot_oracle(tmp_path, seed, basis, shared):
    d, shots = 3, 400
    rng = np.random.default_rng(seed)
    if shared == "haar-random":
        setup = build_setup(random_shared_state(d, rng), bell_basis(d))
    else:
        setup = build_setup(product_state(basis_state(d, 0), basis_state(d, 0)), product_basis(d))
    psi = haar_state(d, rng)
    expected = [oracles.sample_outcome_per_shot(psi, setup.transfer_ops, rng) for _ in range(shots)]

    args = ["teleport", "--d", str(d), "--basis", basis, "--shared", shared,
            "--samples", str(shots), "--seed", str(seed), "--no-timestamp"]
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(args + ["--out", str(csv_out)]) == 0
    assert main(args + ["--format", "json", "--out", str(json_out)]) == 0

    _, csv_rows = read_csv_report(csv_out)
    assert [(int(r["shot"]), int(r["xi"]), r["probability"], r["conditional_fidelity"])
            for r in csv_rows] == [
        (shot, xi, format(p, ".17g"), format(f, ".17g"))
        for shot, (xi, p, f) in enumerate(expected)
    ]
    json_rows = json.loads(json_out.read_text())["rows"]
    assert [(r["shot"], r["xi"], r["probability"], r["conditional_fidelity"])
            for r in json_rows] == [(shot, *outcome) for shot, outcome in enumerate(expected)]


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


@pytest.mark.parametrize("basis, trials", [("custom", [8]), ("bell", [4])])
def test_basis_is_validated_once(tmp_path, monkeypatch, basis, trials):
    # A custom basis is checked by the CLI with 8 trials and not again by
    # build_setup, whose 4 trials would repeat the first four.
    seen = []
    validate = cli.validate_basis

    def recording_validate(b, trials=8, **kwargs):
        seen.append(trials)
        return validate(b, trials, **kwargs)

    monkeypatch.setattr(cli, "validate_basis", recording_validate)
    monkeypatch.setattr(teleport, "validate_basis", recording_validate)
    basis_path = tmp_path / "basis.json"
    save_basis_file(basis_path, bell_basis(3))
    code = main([
        "verify", "--d", "3", "--basis", basis, "--basis-file", str(basis_path),
        "--samples", "5", "--no-timestamp", "--out", str(tmp_path / "out.csv"),
    ])
    assert code == 0
    assert seen == trials


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


def test_invalid_custom_basis_exits_2_naming_the_relation(tmp_path, capsys):
    basis = bell_basis(2)
    broken = basis.elements.copy()
    broken[2] = 1.5 * broken[2]
    basis_path = tmp_path / "broken.json"
    payload = {
        "d": 2,
        "elements": [[[[z.real, z.imag] for z in row] for row in el] for el in broken],
    }
    basis_path.write_text(json.dumps(payload))
    code = main([
        "verify", "--d", "2", "--basis", "custom", "--basis-file", str(basis_path),
        "--no-timestamp",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "orthonormality" in err or "completeness" in err


@pytest.mark.parametrize(
    "args",
    [
        ["average", "--samples", "50"],                      # below the minimum
        ["verify", "--basis", "custom"],                     # missing file
        ["verify", "--shared", "custom"],                    # missing file
        ["verify", "--d", "0"],                              # bad dimension
        ["verify", "--seed", "-1"],                          # seed out of range
    ],
)
def test_unusable_configurations_exit_2(args, capsys):
    code = main(args + ["--no-timestamp"])
    capsys.readouterr()
    assert code == 2


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


def test_missing_file_exits_2(capsys):
    code = main([
        "verify", "--d", "2", "--basis", "custom", "--basis-file", "/nonexistent.json",
        "--no-timestamp",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def test_malformed_input_files_exit_2(tmp_path, capsys):
    wrong_d = tmp_path / "wrong_d.json"
    save_state_file(wrong_d, 3, np.ones(9) / 3.0)
    code = main([
        "verify", "--d", "2", "--shared", "custom", "--shared-file", str(wrong_d),
        "--no-timestamp",
    ])
    assert code == 2

    short_psi = tmp_path / "short_psi.json"
    save_state_file(short_psi, 2, np.array([1.0, 0.0, 0.0, 0.0]))  # d^2 long, psi needs d
    code = main([
        "teleport", "--d", "2", "--psi-file", str(short_psi), "--samples", "1",
        "--no-timestamp",
    ])
    assert code == 2

    zeros = tmp_path / "zeros.json"
    save_state_file(zeros, 2, np.zeros(4))
    code = main([
        "verify", "--d", "2", "--shared", "custom", "--shared-file", str(zeros),
        "--no-timestamp",
    ])
    assert code == 2

    not_json = tmp_path / "garbage.json"
    not_json.write_text("not json at all")
    code = main([
        "verify", "--d", "2", "--basis", "custom", "--basis-file", str(not_json),
        "--no-timestamp",
    ])
    assert code == 2

    bad_pairs = tmp_path / "bad_pairs.json"
    bad_pairs.write_text(json.dumps({"d": 2, "amplitudes": [1.0, 0.0, 0.0, 0.0]}))
    code = main([
        "verify", "--d", "2", "--shared", "custom", "--shared-file", str(bad_pairs),
        "--no-timestamp",
    ])
    assert code == 2

    missing_key = tmp_path / "missing_key.json"
    missing_key.write_text(json.dumps({"d": 2}))
    code = main([
        "verify", "--d", "2", "--shared", "custom", "--shared-file", str(missing_key),
        "--no-timestamp",
    ])
    assert code == 2

    wrong_count = tmp_path / "wrong_count.json"
    els = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]  # one element, need four
    wrong_count.write_text(json.dumps({"d": 2, "elements": els}))
    code = main([
        "verify", "--d", "2", "--basis", "custom", "--basis-file", str(wrong_count),
        "--no-timestamp",
    ])
    assert code == 2
    capsys.readouterr()


def _bell_payload(d=2):
    return [[[[z.real, z.imag] for z in row] for row in el] for el in bell_basis(d).elements]


_PHI_PLUS = [[0.5**0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5**0.5, 0.0]]


@pytest.mark.parametrize(
    "flag, payload",
    [
        # elements of unequal shape
        ("--basis-file", {"d": 2, "elements": _bell_payload()[:3] + [[[[1.0, 0.0]] * 3] * 3]}),
        # NaN and Infinity literals, which json.load accepts
        ("--basis-file", {"d": 2, "elements": [[[[math.nan, 0.0]] * 2] * 2] * 4}),
        ("--shared-file", {"d": 2, "amplitudes": [[math.inf, 0.0]] + _PHI_PLUS[1:]}),
        ("--psi-file", {"d": 2, "amplitudes": [[math.nan, 0.0], [1.0, 0.0]]}),
        # d that is not a JSON integer of at least 1
        ("--shared-file", {"d": "x", "amplitudes": _PHI_PLUS}),
        ("--basis-file", {"d": None, "elements": _bell_payload()}),
        ("--shared-file", {"d": 2.5, "amplitudes": _PHI_PLUS}),
        ("--basis-file", {"d": True, "elements": _bell_payload(1)}),
    ],
    ids=["unequal-shapes", "nan-basis", "inf-shared", "nan-psi",
         "d-string", "d-null", "d-float", "d-bool"],
)
def test_malformed_file_entries_exit_2(tmp_path, capsys, flag, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    d = "1" if payload["d"] is True else "2"
    kind = {"--basis-file": "--basis", "--shared-file": "--shared"}.get(flag)
    args = ["teleport", "--d", d, "--samples", "1", flag, str(path), "--no-timestamp"]
    code = main(args + ([kind, "custom"] if kind else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}")


@pytest.mark.parametrize(
    "value, message",
    [("nan", "finite"), ("inf", "finite"), ("-inf", "positive"), ("0", "positive")],
)
def test_tolerance_must_be_positive_and_finite(capsys, value, message):
    code, out, err = run_cli(["verify", f"--tolerance={value}", "--no-timestamp"], capsys)
    assert (code, out, err) == (2, "", f"error: --tolerance must be {message}\n")


def test_unwritable_output_path_exits_2(capsys):
    code = main([
        "fidelity", "--d", "2", "--no-timestamp", "--out", "/nonexistent-dir/report.csv",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write" in err


def test_csv_is_parseable_by_csv_module(tmp_path):
    out = tmp_path / "roundtrip.csv"
    main(["fidelity", "--d", "3", "--no-timestamp", "--out", str(out)])
    with open(out, newline="") as handle:
        body = [line for line in handle if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    assert rows and rows[0]["experiment"] == "fidelity"
    assert float(rows[0]["analytic"]) == pytest.approx(1.0, abs=1e-10)
