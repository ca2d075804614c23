"""The CLI contract as a golden grid, and how far it moves between two trees.

``GRID`` is a fixed list of argvs: seeds 0 and 1 x the four commands x
d in {1, 2, 3, 5} x {Bell, product, custom basis} x all four resources in
CSV, JSON at d = 2, ``--psi-file`` at every d, an unnormalized shared
file, ``--out`` files, the default sample counts, tolerance gates, error
paths, malformed input files, the parser's help and usage errors and a
one-shot JSON transcript, plus ``verify`` and ``teleport`` at the
benchmark's d = 8 (a rotated custom basis with a custom resource, and Bell
and product with a Haar-random resource) and at d = 16 (Bell and product,
Haar-random), and ``fidelity``, ``average`` and ``teleport`` (2,000 shots)
at d = 17 and 24 (Bell and product, Haar-random), the last also in JSON at
d = 17: 601 argvs.
Each argv runs in-process through ``cli.main`` in a directory holding the input files that
:func:`write_inputs` generates from fixed seeds; its record (:func:`run`)
keeps the exit code and the texts of stdout, stderr and any ``--out`` file.
The golden file keeps the SHA-256 and length of each text
(:func:`digests`), and the input files' own digests too, so a change to
how they are generated shows up as such and not as a moved report.  It
also records the Python, numpy and BLAS it was made with.  The bytes rest
on numpy's RNG stream, its einsum loop order and the BLAS, so byte
identity is checked only on that environment; a replay that moves on
another one names both.

    python tests/cli_grid.py              # list the moved records, regenerate tests/golden/cli_grid.json
    python tests/cli_grid.py PARENT_SRC   # max |Δ| of each moved argv against another src/ tree

Both run the grid against this checkout's ``src/`` in a fresh interpreter,
and the second against PARENT_SRC (say, ``src/`` of a checkout of the
parent commit) in another, because both packages are named
``teleportlab``.  For every argv whose exit code or texts differ, the
second prints the max |Δ| over the float cells that differ (CSV cells,
JSON numbers, and numbers in messages), and flags any difference that is
not a float: other text, integers, or a float turned into nan or inf.  It
exits 1 when an input digest or any argv moved and 0 when nothing did,
and writes nothing outside its temporary directories.

``tests/test_cli_grid.py`` replays the grid against the committed file;
``python -m pytest tests/test_cli_grid.py`` is the check that writes nothing.
A change that moves bytes by design regenerates the file and names the
moved argvs in CHANGES.md.

d = 32 and the benchmark's own argvs would take most of the replay's time;
``tests/test_cli.py::test_each_bench_workload_matches_its_reference``
replays the benchmark's outputs pinned in ``bench/reference.json`` instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np

# teleportlab is imported only inside the functions that run the grid, so a
# process that compares two trees imports neither tree's package.

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden" / "cli_grid.json"

DIMS = (1, 2, 3, 5)
SEEDS = (0, 1)
COMMANDS = ("verify", "teleport", "fidelity", "average")
BASES = ("bell", "product", "custom")
RESOURCES = ("maximally-entangled", "product", "haar-random", "custom")
# (basis, resource) pairs of verify and teleport at the benchmark's d = 8 and
# at d = 16; custom files at d = 8 only, which keeps the replay fast.
LARGE_D_RUNS = {8: (("custom", "custom"), ("bell", "haar-random"), ("product", "haar-random")),
                16: (("bell", "haar-random"), ("product", "haar-random"))}
# (basis, resource) pairs of fidelity, average and teleport at d = 17 and 24,
# the first sizes whose d^2 outcomes span more than one block of T; d = 24
# ends in a partial block.  2,000 shots draw hundreds of distinct outcomes,
# more than a block of them holds at either size.
BLOCKED_D_RUNS = {d: (("bell", "haar-random"), ("product", "haar-random")) for d in (17, 24)}

# Small sample counts keep the replay fast; the default counts run once per
# command in _extra_argvs.
_SAMPLES = {"verify": ["--samples", "10"], "teleport": ["--samples", "40"],
            "fidelity": [], "average": ["--samples", "1000"]}
_BLOCKED_SAMPLES = {**_SAMPLES, "teleport": ["--samples", "2000"]}

# Malformed files, written as these bytes; those in _MALFORMED_BASES are read as bases.
_MALFORMED = {
    "not_json.json": b"{",
    "not_object.json": b"[]",
    "no_elements.json": b'{"d": 2}',
    "no_amplitudes.json": b'{"d": 2}',
    "d_string.json": b'{"d": "x", "amplitudes": [[1, 0], [0, 0]]}',
    "d_float.json": b'{"d": 2.5, "amplitudes": [[1, 0], [0, 0]]}',
    "d_bool.json": b'{"d": true, "amplitudes": [[1, 0]]}',
    "d_zero.json": b'{"d": 0, "amplitudes": []}',
    "nan_entry.json": b'{"d": 2, "amplitudes": [[NaN, 0], [0, 0]]}',
    "not_pairs.json": b'{"d": 2, "amplitudes": [1, 0]}',
    "wrong_count.json": b'{"d": 2, "amplitudes": [[1, 0], [0, 0], [0, 0]]}',
    "zero_state.json": b'{"d": 2, "amplitudes": [[0, 0], [0, 0]]}',
    "ragged_basis.json": b'{"d": 1, "elements": [[[[1, 0]]], [[[1, 0], [0, 0]]]]}',
    "elements_not_list.json": b'{"d": 1, "elements": 3}',
    "not_utf8.json": b'{"d": 2, "amplitudes": "\xff\xfe"}',
    "long_integer.json": b'{"d": 2, "amplitudes": [[' + b"9" * 5000 + b', 0], [0, 0]]}',
}
_MALFORMED_BASES = {"no_elements.json", "ragged_basis.json", "elements_not_list.json"}


def write_inputs(directory: pathlib.Path) -> dict:
    """Write every input file the grid reads into ``directory``; returns
    ``{name: digest}`` of the files' bytes."""
    from teleportlab import OperatorBasis, bell_basis, haar_state, haar_unitary, random_shared_state, rotated_basis
    from teleportlab.cli import save_basis_file, save_state_file

    for d in (*DIMS, 8):
        save_basis_file(str(directory / f"basis_d{d}.json"),
                        rotated_basis(bell_basis(d), haar_unitary(d * d, np.random.default_rng(100 + d))))
        shared = random_shared_state(d, np.random.default_rng(200 + d)).vector
        save_state_file(str(directory / f"shared_d{d}.json"), d, shared)
    for d in DIMS:
        save_state_file(str(directory / f"psi_d{d}.json"), d, haar_state(d, np.random.default_rng(300 + d)))
    save_state_file(str(directory / "shared_unnormalized_d2.json"), 2,
                    3.0 * random_shared_state(2, np.random.default_rng(202)).vector)
    broken = bell_basis(2).elements.copy()
    broken[1] *= 1.01
    save_basis_file(str(directory / "broken_basis_d2.json"), OperatorBasis(local_dim=2, elements=broken))
    for name, data in _MALFORMED.items():
        (directory / name).write_bytes(data)
    return {path.name: _digest(path.read_bytes()) for path in sorted(directory.iterdir())}


def environment() -> dict:
    """The Python, numpy and BLAS the grid runs on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"]}


def _grid_argvs() -> list[list[str]]:
    argvs = []
    for seed in SEEDS:
        for command in COMMANDS:
            for d in DIMS:
                for basis in BASES:
                    for shared in RESOURCES:
                        formats = ("csv", "json") if d == 2 else ("csv",)
                        for fmt in formats:
                            argv = [command, "--d", str(d), "--basis", basis, "--shared", shared,
                                    "--seed", str(seed), *_SAMPLES[command], "--no-timestamp"]
                            if basis == "custom":
                                argv += ["--basis-file", f"basis_d{d}.json"]
                            if shared == "custom":
                                argv += ["--shared-file", f"shared_d{d}.json"]
                            if fmt == "json":
                                argv += ["--format", "json"]
                            argvs.append(argv)
    for commands, large_d_runs, samples in ((("verify", "teleport"), LARGE_D_RUNS, _SAMPLES),
                                            (("fidelity", "average", "teleport"), BLOCKED_D_RUNS, _BLOCKED_SAMPLES)):
        for command in commands:
            for seed in SEEDS:
                for d, runs in large_d_runs.items():
                    for basis, shared in runs:
                        argv = [command, "--d", str(d), "--basis", basis, "--shared", shared,
                                "--seed", str(seed), *samples[command], "--no-timestamp"]
                        if basis == "custom":
                            argv += ["--basis-file", f"basis_d{d}.json", "--shared-file", f"shared_d{d}.json"]
                        argvs.append(argv)
    # The transcript as JSON where the shots' distinct outcomes span more than one block.
    for seed in SEEDS:
        for basis, shared in BLOCKED_D_RUNS[17]:
            argvs.append(["teleport", "--d", "17", "--basis", basis, "--shared", shared, "--seed", str(seed),
                          *_BLOCKED_SAMPLES["teleport"], "--no-timestamp", "--format", "json"])
    return argvs


def _extra_argvs() -> list[list[str]]:
    ts = "--no-timestamp"
    argvs = [[command, "--d", "2", "--shared", "haar-random", ts] for command in COMMANDS]
    for seed in SEEDS:
        for d in DIMS:
            for fmt in ("csv", "json"):
                argvs.append(["teleport", "--d", str(d), "--seed", str(seed), "--samples", "40",
                              "--shared", "haar-random", "--psi-file", f"psi_d{d}.json",
                              "--format", fmt, ts])
    argvs += [
        # an unnormalized shared file is rescaled with a warning
        ["verify", "--d", "2", "--shared", "custom", "--shared-file", "shared_unnormalized_d2.json",
         "--samples", "10", ts],
        ["fidelity", "--d", "2", "--shared", "custom", "--shared-file", "shared_unnormalized_d2.json", ts],
        # reports written to --out
        ["teleport", "--d", "3", "--samples", "40", "--out", "report.csv", ts],
        ["fidelity", "--d", "3", "--shared", "product", "--format", "json", "--out", "report.json", ts],
        ["verify", "--d", "2", "--samples", "10", "--out", "report.csv", ts],
        # transcripts of zero shots (an empty rows block) and of one shot
        ["teleport", "--d", "2", "--samples", "0", ts],
        ["teleport", "--d", "2", "--samples", "0", "--format", "json", ts],
        ["teleport", "--d", "2", "--samples", "1", ts],
        # tolerance gates
        ["verify", "--d", "3", "--samples", "10", "--tolerance", "1e-300", ts],
        ["fidelity", "--d", "3", "--shared", "haar-random", "--tolerance", "1", ts],
        # unusable configurations
        ["verify", "--d", "0", ts],
        ["verify", "--d", "65", ts],
        ["verify", "--seed", "-1", ts],
        ["verify", "--samples", "-1", ts],
        ["average", "--samples", "50", ts],
        ["verify", "--tolerance", "0", ts],
        ["verify", "--tolerance", "-1", ts],
        ["verify", "--tolerance", "nan", ts],
        ["verify", "--tolerance", "inf", ts],
        ["verify", "--basis", "custom", ts],
        ["verify", "--shared", "custom", ts],
        ["verify", "--basis", "custom", "--basis-file", "missing.json", ts],
        ["verify", "--d", "3", "--basis", "custom", "--basis-file", "basis_d2.json", ts],
        ["verify", "--d", "2", "--basis", "custom", "--basis-file", "broken_basis_d2.json", ts],
        ["teleport", "--d", "2", "--psi-file", "psi_d3.json", ts],
        ["verify", "--d", "2", "--shared", "custom", "--shared-file", "psi_d2.json", ts],
        ["verify", "--samples", "10", "--out", "no_such_directory/report.csv", ts],
    ]
    for name in _MALFORMED:
        kind, flag = ("--basis", "--basis-file") if name in _MALFORMED_BASES else ("--shared", "--shared-file")
        argvs.append(["verify", "--d", "2", kind, "custom", flag, name, ts])
    argvs.append(["teleport", "--d", "2", "--psi-file", "nan_entry.json", ts])
    # The parser's own text: help, usage errors, and the one-row JSON transcript.
    argvs += [["--help"], *([command, "--help"] for command in COMMANDS), [], ["nope"],
              ["verify", "--basis", "nope"], ["teleport", "--samples", "1", "--format", "json", ts]]
    return argvs


GRID = _grid_argvs() + _extra_argvs()


_STREAMS = ("stdout", "stderr", "out")


def _digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(argv: list[str]) -> dict:
    """Run one argv in the current directory: its exit code and the texts of
    stdout, stderr and its ``--out`` file (``None`` if none was written),
    which is removed.  The parser's ``SystemExit`` (help, usage errors) gives
    the exit code; any other exception that escapes ``cli.main`` gives exit
    ``None`` and ``Type: message`` on stderr, so one crashing argv does not
    stop a grid.  The run sees ``COLUMNS=80``, so help and usage text
    wrap the same on any terminal; the old value is restored afterwards."""
    from teleportlab import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = None
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    out = None
    if "--out" in argv:
        path = pathlib.Path(argv[argv.index("--out") + 1])
        if path.exists():
            out = path.read_bytes().decode("utf-8")
            path.unlink()
    return {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "out": out}


def generate(directory: pathlib.Path) -> dict:
    """Write the inputs into ``directory`` and run the whole grid there."""
    inputs = write_inputs(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        runs = [run(argv) for argv in GRID]
    finally:
        os.chdir(cwd)
    return {"environment": environment(), "inputs": inputs, "runs": runs}


def digests(grid: dict) -> dict:
    """The grid as the golden file keeps it: each text replaced by the
    SHA-256 and length of its UTF-8 bytes."""
    def digest(text):
        return None if text is None else _digest(text.encode("utf-8"))

    return {**grid, "runs": [{**r, **{s: digest(r[s]) for s in _STREAMS}} for r in grid["runs"]]}


def dump(grid: dict) -> str:
    # One record per line, so a regeneration diffs argv by argv.
    inputs = ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in grid["inputs"].items())
    runs = ",\n".join(f"    {json.dumps(r)}" for r in grid["runs"])
    environment = json.dumps(grid["environment"])
    return ('{\n  "environment": ' + environment + ',\n  "inputs": {\n' + inputs
            + '\n  },\n  "runs": [\n' + runs + "\n  ]\n}\n")


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def moved(old: dict, new: dict) -> list[str]:
    """Names of the inputs and argvs whose records differ between two grids
    of digests; the environments are not compared."""
    names = [f"input {name}" for name in sorted(set(old["inputs"]) | set(new["inputs"]))
             if old["inputs"].get(name) != new["inputs"].get(name)]
    before = {tuple(r["argv"]): r for r in old["runs"]}
    after = {tuple(r["argv"]): r for r in new["runs"]}
    names += [" ".join(argv) for argv in dict.fromkeys([*before, *after])
              if before.get(argv) != after.get(argv)]
    return names


# Runs in a fresh interpreter with argv [src, tests]: the package comes from src.
_WORKER = "import sys; sys.path[:0] = sys.argv[1:]; import cli_grid; cli_grid.emit(sys.argv[1])"


def emit(src: str) -> None:
    """Print the grid, texts and all, as JSON, for the package imported from ``src``."""
    import teleportlab

    if not pathlib.Path(teleportlab.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise ImportError(f"teleportlab was imported from {teleportlab.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        grid = generate(pathlib.Path(tmp))
    json.dump(grid, sys.stdout)


def collect(src: pathlib.Path) -> dict:
    """The grid run against the package in ``src``, in its own interpreter."""
    proc = subprocess.run([sys.executable, "-c", _WORKER, str(src), str(TESTS)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


# A number standing alone: not part of a name such as basis_d2.json.
_NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|nan|inf))(?![\w.])")


def _is_integer(token: str) -> bool:
    return token.lstrip("-").isdigit()


def text_delta(old: str, new: str) -> tuple[float, bool]:
    """(max |Δ| over the float tokens that differ, whether anything else
    differs) between two texts."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[0::2] != new_parts[0::2]:
        return 0.0, True
    delta, other = 0.0, False
    for a, b in zip(old_parts[1::2], new_parts[1::2]):
        if a == b:
            continue
        gap = abs(float(a) - float(b))
        if (_is_integer(a) and _is_integer(b)) or not math.isfinite(gap):
            other = True
        else:
            delta = max(delta, gap)
    return delta, other


def record_delta(old: dict, new: dict) -> tuple[float, list[str]]:
    """(max |Δ| of one argv's float cells, the names of its non-float differences)."""
    delta, flags = 0.0, []
    if old["exit"] != new["exit"]:
        flags.append(f"exit {old['exit']} -> {new['exit']}")
    for stream in _STREAMS:
        a, b = old[stream], new[stream]
        if a == b:
            continue
        if a is None or b is None:
            flags.append(stream)
            continue
        gap, other = text_delta(a, b)
        delta = max(delta, gap)
        if other:
            flags.append(stream)
    return delta, flags


def report(old: dict, new: dict) -> list[str]:
    """One line per moved input or argv, then a summary line."""
    lines = [f"input {name} differs" for name in sorted(set(old["inputs"]) | set(new["inputs"]))
             if old["inputs"].get(name) != new["inputs"].get(name)]
    moved, worst, flagged = 0, 0.0, 0
    # Both sides ran this checkout's cli_grid.GRID, so the runs pair up in order.
    for before, now in zip(old["runs"], new["runs"]):
        if all(before[key] == now[key] for key in ("exit", *_STREAMS)):
            continue
        delta, flags = record_delta(before, now)
        moved, worst = moved + 1, max(worst, delta)
        flagged += bool(flags)
        note = f"; not a float: {', '.join(flags)}" if flags else ""
        lines.append(f"{' '.join(before['argv'])}: max |Δ| {delta:.2g}{note}")
    lines.append(f"{moved} of {len(old['runs'])} argvs moved; max |Δ| {worst:.2g}; "
                 f"{flagged} with a difference that is not a float")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=pathlib.Path, nargs="?",
                        help="src/ directory of a tree to compare against; nothing is written")
    args = parser.parse_args(argv)
    if args.parent_src is not None:
        lines = report(collect(args.parent_src.resolve()), collect(SRC))
        print("\n".join(lines))
        # Every line before the summary names a moved input or argv.
        return 1 if len(lines) > 1 else 0
    grid = digests(collect(SRC))
    if GOLDEN.exists():
        changes = moved(load(), grid)
        for name in changes:
            print(f"moved: {name}")
        print(f"{len(changes)} of {len(grid['inputs']) + len(grid['runs'])} records moved")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(grid), encoding="utf-8")
    print(f"wrote {len(grid['runs'])} runs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
