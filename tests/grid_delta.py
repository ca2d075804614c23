"""How far the CLI golden grid's outputs move between two source trees.

    python tests/grid_delta.py PARENT_SRC

Runs every argv of ``cli_grid.GRID`` against the ``teleportlab`` package
in PARENT_SRC (say, ``src/`` of a checkout of the parent commit) and
against this checkout's ``src/``.  Each tree runs in its own interpreter,
because both packages are named ``teleportlab``; each reads input files
that ``cli_grid.write_inputs`` generates in a temporary directory, and runs
the argvs through ``cli.main`` as the golden grid does.

For every argv whose exit code, stdout, stderr or ``--out`` bytes differ,
it prints the max |Δ| over the float cells that differ (CSV cells, JSON
numbers, and numbers in messages), and flags any difference that is not
a float: other text, integers, or a float turned into nan or inf.  It
exits 1 when an input digest or any argv moved and 0 when nothing did.
It writes nothing outside its temporary directories; ``tests/cli_grid.py``
regenerates the grid file.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# A number standing alone: not part of a name such as basis_d2.json.
_NUMBER = re.compile(r"(?<![\w.])(-?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|nan|inf))(?![\w.])")
_STREAMS = ("stdout", "stderr", "out")

# Runs in a fresh interpreter with argv [src, tests]: the package comes from src.
_WORKER = "import sys; sys.path[:0] = sys.argv[1:]; import grid_delta; grid_delta.emit(sys.argv[1])"


# cli_grid and the package are imported only in the worker interpreters, so
# that this process never imports either tree's teleportlab.
def _texts(argv: list[str]) -> dict:
    import cli_grid

    code, stdout, stderr, out = cli_grid.capture(argv)
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr,
            "out": None if out is None else out.decode("utf-8")}


def emit(src: str) -> None:
    """Print the grid's inputs digests and full outputs, as JSON, for the
    package imported from ``src``."""
    import cli_grid
    import teleportlab

    if not pathlib.Path(teleportlab.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise ImportError(f"teleportlab was imported from {teleportlab.__file__}, not {src}")
    with tempfile.TemporaryDirectory() as tmp:
        grid = cli_grid.generate(pathlib.Path(tmp), record=_texts)
    json.dump(grid, sys.stdout)


def collect(src: pathlib.Path) -> dict:
    """The grid run against the package in ``src``, in its own interpreter."""
    proc = subprocess.run([sys.executable, "-c", _WORKER, str(src), str(TESTS)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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
    parser.add_argument("parent_src", type=pathlib.Path,
                        help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)
    old, new = collect(args.parent_src.resolve()), collect(SRC)
    lines = report(old, new)
    print("\n".join(lines))
    # Every line before the summary names a moved input or argv.
    return 1 if len(lines) > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
