"""Output checks for benchmark invocations.

Every invocation's report is parsed and checked for structure.  At the seed
the reference outputs were recorded with (``reference.json``, written by
``record_reference.py``) it is also compared against them:

- ``teleport`` transcripts must match byte for byte (by SHA-256);
- ``verify`` reports must match except for the residual, which must stay
  below the report's tolerance;
- ``fidelity`` and ``average`` reports must have identical labels and every
  float within ``FLOAT_TOL`` (absolute).

Within one run, every invocation is also compared with the run's first
invocation by the same rules, so repeated calls must agree at any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

FLOAT_TOL = 1e-14
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

_FLOAT_COLUMNS = {"analytic", "mc_mean", "mc_stderr", "residual", "probability",
                  "conditional_fidelity"}
_ROW_COUNTS = {"verify": 1, "fidelity": 2, "average": 1}


def parse_report(text: str) -> tuple[dict, list[str], list[list[str]]]:
    """Split a CSV report into its meta lines, header and rows."""
    meta = {}
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("report does not end with a newline")
    lines = lines[:-1]
    body = 0
    while body < len(lines) and lines[body].startswith("# "):
        key, sep, value = lines[body][2:].partition(": ")
        if not sep:
            raise ValueError(f"malformed meta line {lines[body]!r}")
        meta[key] = value
        body += 1
    if body == len(lines):
        raise ValueError("report has no header")
    header = lines[body].split(",")
    rows = [line.split(",") for line in lines[body + 1:]]
    return meta, header, rows


def structure_problems(command: str, text: str) -> list[str]:
    """Exit-code-independent structural checks on one report."""
    try:
        meta, header, rows = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if meta.get("command") != command:
        problems.append(f"meta command is {meta.get('command')!r}, expected {command!r}")
    expected_rows = meta.get("samples", "") if command == "teleport" else str(_ROW_COUNTS[command])
    if str(len(rows)) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows!r}")
    for i, row in enumerate(rows):
        problem = _row_problem(command, meta, header, i, row)
        if problem:
            problems.append(problem)
            break
    return problems


def _row_problem(command: str, meta: dict, header: list[str], i: int, row: list[str]):
    if len(row) != len(header):
        return f"row {i} has {len(row)} fields, header has {len(header)}"
    fields = dict(zip(header, row))
    if fields.get("experiment") != command or fields.get("seed") != meta.get("seed"):
        return f"row {i} has the wrong experiment or seed"
    for column in _FLOAT_COLUMNS & fields.keys():
        if fields[column] == "":
            continue
        try:
            value = float(fields[column])
        except ValueError:
            return f"row {i} {column} is not a number: {fields[column]!r}"
        if not math.isfinite(value):
            return f"row {i} {column} is not finite"
    if command == "teleport":
        if fields["shot"] != str(i):
            return f"row {i} has shot {fields['shot']}"
        if not 0.0 <= float(fields["probability"] or "nan") <= 1.0 + 1e-12:
            return f"row {i} probability out of range"
    return None


def make_reference(command: str, text: str) -> dict:
    """What a later invocation is compared against."""
    if command == "teleport":
        return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text.encode())}
    return {"text": text}


def reference_problems(command: str, text: str, reference: dict) -> list[str]:
    """Differences between a report and a reference made by :func:`make_reference`."""
    if command == "teleport":
        digest = hashlib.sha256(text.encode()).hexdigest()
        return [] if digest == reference["sha256"] else ["transcript differs from the reference"]
    meta, header, rows = parse_report(text)
    ref_meta, ref_header, ref_rows = parse_report(reference["text"])
    if meta != ref_meta or header != ref_header or len(rows) != len(ref_rows):
        return ["meta lines, header or row count differ from the reference"]
    problems = []
    for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, value, ref_value in zip(header, row, ref_row):
            if command == "verify" and column == "residual":
                if not float(value or "nan") < float(meta["tolerance"]):
                    problems.append(f"row {i} residual {value} is not below the tolerance")
            elif column in _FLOAT_COLUMNS and value and ref_value:
                if not abs(float(value) - float(ref_value)) <= FLOAT_TOL:
                    problems.append(f"row {i} {column} {value} differs from {ref_value}")
            elif value != ref_value:
                problems.append(f"row {i} {column} {value!r} differs from {ref_value!r}")
    return problems


def load_references() -> dict:
    """``{"seed": n, "outputs": {workload: reference}}`` as recorded."""
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)
