"""Tests for tests/cli_grid.py: the replay of the CLI golden grid, and the
|Δ| report between two source trees.

The replay runs the grid in one subprocess through ``collect``, and one
test runs a one-line worker through it.  The report's functions are called
on hand-made texts and records, and ``collect`` is replaced by a stub for
``main``, so no other test starts a subprocess.
"""

import subprocess

import pytest

import cli_grid
from bench.run import BLAS_THREAD_VARS
from cli_grid import record_delta, report, text_delta


def test_cli_grid_replays_the_golden_file():
    # Every input file, exit code and output byte of the grid is unchanged.
    # The bytes are promised only on the environment the file was recorded
    # on, so a failure on another one names both.  Both run at the
    # benchmark's one BLAS thread, whatever this shell sets.
    golden = cli_grid.load()
    assert [r["argv"] for r in golden["runs"]] == cli_grid.GRID
    assert cli_grid.BLAS_THREAD_VARS == BLAS_THREAD_VARS
    grid = cli_grid.digests(cli_grid.collect(cli_grid.SRC))
    where = "" if golden["environment"] == grid["environment"] else (
        f"recorded on {golden['environment']}, replayed on {grid['environment']}")
    assert cli_grid.moved(golden, grid) == [], where


def test_collect_raises_runtime_warnings_as_the_test_suite_does(monkeypatch, pytestconfig):
    # The worker's interpreter runs under the same filter as tier-1, so a
    # numpy RuntimeWarning is an error there, not a line of stderr.
    assert cli_grid.WARNINGS in pytestconfig.getini("filterwarnings")
    monkeypatch.setattr(cli_grid, "_WORKER", "import numpy; numpy.float64(1) / 0; print('{}')")
    with pytest.raises(subprocess.CalledProcessError) as failed:
        cli_grid.collect(cli_grid.SRC)
    assert "RuntimeWarning: divide by zero" in failed.value.stderr


def _run(argv, exit=0, stdout="", stderr="", out=None):
    return {"argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr, "out": out}


def test_a_float_only_change_gives_its_delta_and_no_flag():
    old = "average_fidelity,0.66666666666666663,1000\n"
    new = "average_fidelity,0.66666666666666674,1000\n"
    delta, other = text_delta(old, new)
    assert delta == abs(0.66666666666666663 - 0.66666666666666674) > 0
    assert not other
    assert text_delta(old, old) == (0.0, False)


@pytest.mark.parametrize(
    "old, new",
    [
        ("samples,10\n", "samples,11\n"),                  # an integer
        ("mc_mean,0.5\n", "mc_mean,nan\n"),                # a float turned into nan
        ("residual,1e-16\n", "residual,inf\n"),            # a float turned into inf
        ("label,ideal,0.5\n", "label,general,0.5\n"),      # text
        ("a,0.5\n", "a,0.5,0.25\n"),                       # a cell more
    ],
    ids=["integer", "nan", "inf", "text", "cell-count"],
)
def test_a_difference_that_is_not_a_float_is_flagged(old, new):
    assert text_delta(old, new)[1]


def test_a_file_name_is_text_not_a_number():
    # The 2 of basis_d2.json is part of a name: renaming the file is a text
    # change, and a float beside the name is still compared as a float.
    assert text_delta("error: basis_d2.json: bad", "error: basis_d3.json: bad") == (0.0, True)
    assert text_delta("basis_d2.json: residual 0.5", "basis_d2.json: residual 0.75") == (0.25, False)


def test_an_exit_code_change_is_flagged():
    delta, flags = record_delta(_run(["verify"], exit=0, stdout="r,0.5\n"),
                                _run(["verify"], exit=1, stdout="r,0.75\n"))
    assert delta == 0.25
    assert flags == ["exit 0 -> 1"]


def test_an_out_file_that_appears_is_flagged():
    assert record_delta(_run(["fidelity"]), _run(["fidelity"], out="x\n")) == (0.0, ["out"])


def test_report_counts_moved_argvs_and_lists_differing_inputs():
    old = {"inputs": {"basis_d2.json": "aa", "psi_d2.json": "bb"},
           "runs": [_run(["verify"], stdout="r,0.5\n"),
                    _run(["fidelity"], stdout="f,1\n"),
                    _run(["average"], stdout="a,0.25\n")]}
    new = {"inputs": {"basis_d2.json": "aa", "psi_d2.json": "cc", "shared_d2.json": "dd"},
           "runs": [_run(["verify"], stdout="r,0.75\n"),
                    _run(["fidelity"], stdout="f,1\n"),
                    _run(["average"], exit=2, stdout="a,0.25\n")]}
    lines = report(old, new)
    assert lines == [
        "input psi_d2.json differs",
        "input shared_d2.json differs",
        "verify: max |Δ| 0.25",
        "average: max |Δ| 0; not a float: exit 0 -> 2",
        "2 of 3 argvs moved; max |Δ| 0.25; 1 with a difference that is not a float",
    ]
    assert report(old, old) == ["0 of 3 argvs moved; max |Δ| 0; 0 with a difference that is not a float"]


@pytest.mark.parametrize("inputs, stdout, code", [
    ({"psi_d2.json": "bb"}, "r,0.5\n", 0),    # nothing moved
    ({"psi_d2.json": "cc"}, "r,0.5\n", 1),    # an input digest only
    ({"psi_d2.json": "bb"}, "r,0.75\n", 1),   # an argv only
], ids=["same", "input", "argv"])
def test_main_exits_1_when_anything_moved(monkeypatch, capsys, tmp_path, inputs, stdout, code):
    old = {"inputs": {"psi_d2.json": "bb"}, "runs": [_run(["verify"], stdout="r,0.5\n")]}
    new = {"inputs": inputs, "runs": [_run(["verify"], stdout=stdout)]}
    monkeypatch.setattr(cli_grid, "collect", lambda src: new if src == cli_grid.SRC else old)
    assert cli_grid.main([str(tmp_path)]) == code
    assert capsys.readouterr().out.splitlines() == report(old, new)


def test_main_without_a_tree_lists_moved_records_and_writes_their_digests(monkeypatch, capsys, tmp_path):
    old = {"environment": {}, "inputs": {"psi_d2.json": "bb"},
           "runs": [_run(["verify"], stdout="r,0.5\n"), _run(["fidelity"], out="f,1\n")]}
    new = {**old, "runs": [_run(["verify"], stdout="r,0.75\n"), old["runs"][1]]}
    golden = tmp_path / "cli_grid.json"
    golden.write_text(cli_grid.dump(cli_grid.digests(old)), encoding="utf-8")
    monkeypatch.setattr(cli_grid, "GOLDEN", golden)
    monkeypatch.setattr(cli_grid, "collect", lambda src: new if src == cli_grid.SRC else None)
    assert cli_grid.main([]) == 0
    assert capsys.readouterr().out.splitlines() == ["moved: verify", "1 of 3 records moved",
                                                    f"wrote 2 runs to {golden}"]
    assert cli_grid.load() == cli_grid.digests(new)


def test_run_records_the_parsers_exit_at_80_columns_and_restores_columns(monkeypatch):
    # Help exits 0 and a usage error 2 through SystemExit.  Both wrap the
    # same on a 200-column terminal as with none set, and COLUMNS is as it
    # was afterwards.
    records = {}
    for columns in (None, "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        records[columns] = [cli_grid.run(argv) for argv in (["verify", "--help"], ["verify", "--basis", "nope"])]
        assert cli_grid.os.environ.get("COLUMNS") == columns
    helped, refused = records[None]
    assert helped["exit"] == 0 and helped["stdout"].startswith("usage: teleportlab verify") and not helped["stderr"]
    assert refused["exit"] == 2 and not refused["stdout"] and "invalid choice: 'nope'" in refused["stderr"]
    assert records["200"] == records[None]


def test_run_records_an_exception_that_escapes_main(monkeypatch):
    # Exit None and the exception's type and message after what was written,
    # so one crashing argv in another tree does not stop the comparison.
    def crash(argv):
        print("partial", file=cli_grid.sys.stderr)
        raise ValueError("boom")

    monkeypatch.setattr("teleportlab.cli.main", crash)
    assert cli_grid.run(["verify"]) == _run(["verify"], exit=None, stderr="partial\nValueError: boom\n")
