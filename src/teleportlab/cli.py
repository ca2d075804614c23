"""Command-line laboratory for teleportation experiments.

Four subcommands, each declared once in ``_COMMANDS`` with its runner,
report columns, help text and ``--samples`` rule:

    verify    residual of the teleportation identity over random inputs
              (--samples trials: default 100, at least 1)
    teleport  sample the protocol shot by shot and log the transcript
              (--samples shots: default 1000)
    fidelity  analytic average fidelity plus the detected closed form
              (draws nothing, so --samples is refused)
    average   analytic value cross-checked by Monte Carlo
              (--samples draws: default 100000 for d <= 4, else 20000;
              at least 100)

Reports go to stdout or ``--out`` as CSV (meta lines prefixed ``#``) or
JSON; every row carries the seed that produced it and all floats are
serialized with 17 significant digits, so identical configurations give
byte-identical output (pass ``--no-timestamp`` to drop the one
non-reproducible field).

File formats (JSON, complex scalars as [re, im] pairs):

    state file:  {"d": 2, "amplitudes": [[re, im], ...]}
                 length d for an input state, d^2 for a shared resource
    basis file:  {"d": 2, "elements": [matrix, ...]}
                 each matrix a row-major nested list of [re, im] pairs

--basis-file and --shared-file are read only with ``custom`` and
--psi-file only by ``teleport``; a flag nothing reads is refused.

Exit codes: 0 pass, 2 unusable configuration, 1 when the excess a runner
measures is above the larger of its floor and ``--tolerance`` (in ``main``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .bases import OperatorBasis, bell_basis, custom_basis, product_basis
from .choi import BipartiteState, maximally_entangled_state, product_state
from .errors import BasisStructureError, ConfigurationError, DimensionError, NormalizationError
from .haar import (
    MIN_SAMPLES,
    average_fidelity_analytic,
    closed_form_gap_bound,
    haar_state,
    haar_trial_states,
    monte_carlo_fidelity,
    monte_carlo_rounding_bound,
    random_shared_state,
    special_case_fidelity,
)
from .linalg import basis_state, require_dense_size, require_finite, scaled_norm
from .teleport import (
    TeleportOutcome,
    TeleportSetup,
    _trials_per_chunk,
    build_setup,
    require_setup_fits,
    sample_outcome,
    verify_identity,
)
from .tolerances import NORMALIZATION_TOL, PROBABILITY_TOL

REPORT_COLUMNS = (
    "experiment", "d", "basis", "shared", "quantity", "label",
    "analytic", "mc_mean", "mc_stderr", "samples", "seed", "residual",
)
TRANSCRIPT_COLUMNS = (
    "experiment", "d", "basis", "shared", "shot", "xi",
    "probability", "conditional_fidelity", "seed",
)

# Peak bytes one teleport shot adds to a run, sampled, rendered and written
# to --out or stdout: the run's tracemalloc peak less that of a run of no
# shots, per shot.  A JSON row written to a text stream that keeps the report
# as UTF-8 bytes costs the most; 1,024 covers it and leaves room for longer
# shot numbers.  The teleport-20000-shots rows of tests/test_budgets.py bound
# a transcript at d = 2 and 8 well inside it.
_SHOT_BYTES = 1024

_BASIS_KINDS = ("bell", "product", "custom")
_SHARED_KINDS = ("maximally-entangled", "product", "haar-random", "custom")


def config_from_namespace(ns: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags, fill in the command's default ``--samples`` and
    return ``ns``; a dimension or transcript too large for dense storage is refused."""
    if ns.d < 1:
        raise ConfigurationError("--d must be at least 1")
    if not 0 <= ns.seed < 2**64:
        raise ConfigurationError("--seed must fit in an unsigned 64-bit integer")
    if ns.tolerance <= 0:
        raise ConfigurationError("--tolerance must be positive")
    if not np.isfinite(ns.tolerance):
        raise ConfigurationError("--tolerance must be finite")
    command = _COMMANDS[ns.command]
    if command.least is None and ns.samples is not None:
        raise ConfigurationError(f"--samples is not read by the {ns.command} command")
    if ns.samples is None:
        ns.samples = command.default_samples(ns.d)
    if ns.samples < 0:
        raise ConfigurationError("--samples must be nonnegative")
    if ns.command == "teleport":
        require_dense_size(ns.samples * _SHOT_BYTES // 16,
                           f"a transcript of {ns.samples:,} shots at {_SHOT_BYTES:,} bytes each")
    if command.least and ns.samples < command.least:
        raise ConfigurationError(f"the {ns.command} command needs --samples of at least {command.least}")
    for flag, kind, path in (("--basis", ns.basis, ns.basis_file),
                             ("--shared", ns.shared, ns.shared_file)):
        if kind == "custom" and not path:
            raise ConfigurationError(f"{flag} custom requires {flag}-file")
        if path and kind != "custom":
            raise ConfigurationError(f"{flag}-file is read only with {flag} custom")
    if ns.psi_file and ns.command != "teleport":
        raise ConfigurationError("--psi-file is read only by the teleport command")
    require_setup_fits(ns.d)
    return ns


# ----------------------------------------------------------------------
# state / basis files


def _parse_complex_pairs(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ConfigurationError(f"{what}: entries must be [re, im] pairs") from None
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigurationError(f"{what}: entries must be [re, im] pairs")
    # numpy casts a JSON true beside numbers to 1 silently, so the pairs
    # themselves are checked for bools, as _load_file refuses a bool d.
    pairs = values
    for _ in range(arr.ndim - 2):
        pairs = chain.from_iterable(pairs)
    for real, imag in pairs:
        if type(real) is bool or type(imag) is bool:
            raise ConfigurationError(f"{what}: entries must be numbers")
    # Text gives a string array; numpy holds an integer beyond 64 bits, and
    # anything else that is not a number, as an object.
    if arr.dtype.kind not in "iuf" and not all(isinstance(x, (int, float)) for x in arr.flat):
        raise ConfigurationError(f"{what}: entries must be numbers")
    try:
        arr = arr.astype(float, copy=False)
    except OverflowError:
        raise ConfigurationError(f"{what}: entries must fit in a float") from None
    require_finite(arr, ConfigurationError(f"{what}: entries must be finite"))
    return arr[..., 0] + 1j * arr[..., 1]


def _load_file(path: str, key: str) -> tuple[int, object]:
    """``d`` and the entry ``key`` of a JSON object file, unparsed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    try:
        # A JSON integer only: int() would truncate 2.5 and accept true as 1.
        d = data["d"]
        if type(d) is not int or d < 1:
            raise ConfigurationError(f"{path}: d must be an integer of at least 1, got {json.dumps(d)}")
        return d, data[key]
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None


def load_state_file(path: str) -> tuple[int, np.ndarray]:
    """Read a state file; returns (d, amplitudes) without normalizing."""
    d, raw = _load_file(path, "amplitudes")
    amplitudes = _parse_complex_pairs(raw, path)
    if amplitudes.ndim != 1:
        raise ConfigurationError(f"{path}: amplitudes must be a flat list")
    if amplitudes.size not in (d, d * d):
        raise ConfigurationError(
            f"{path}: expected {d} or {d * d} amplitudes, found {amplitudes.size}"
        )
    return d, amplitudes


def _save_complex_file(path: str, d: int, key: str, values) -> None:
    # Complex entries as [re, im] pairs, nested as ``values`` is.
    values = np.asarray(values, complex)
    payload = {"d": int(d), key: np.stack((values.real, values.imag), -1).tolist()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def save_state_file(path: str, d: int, amplitudes: np.ndarray) -> None:
    _save_complex_file(path, d, "amplitudes", amplitudes)


def load_basis_file(path: str) -> OperatorBasis:
    """Read a basis file into an unvalidated custom basis."""
    d, raw = _load_file(path, "elements")
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: elements must be a list of matrices")
    matrices = [_parse_complex_pairs(m, f"{path} element {i}") for i, m in enumerate(raw)]
    try:
        return custom_basis(matrices, local_dim=d)
    except (BasisStructureError, DimensionError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def save_basis_file(path: str, basis: OperatorBasis) -> None:
    _save_complex_file(path, basis.local_dim, "elements", basis.elements)


def _state_from_file(path: str, d: int, size: int, what: str) -> np.ndarray:
    """Amplitudes of a state file for local dimension ``d`` with ``size``
    entries, rescaled to unit norm with a warning when they are not."""
    d_file, amplitudes = load_state_file(path)
    if d_file != d or amplitudes.size != size:
        raise ConfigurationError(f"{path}: {what} must have d = {d} and {size} amplitudes")
    scaled, scale, norm = scaled_norm(amplitudes)
    if norm == 0.0:
        raise ConfigurationError(f"{path}: amplitudes are identically zero")
    if abs(scale * norm - 1.0) > NORMALIZATION_TOL:
        print(f"warning: normalizing {path} (norm was {scale * norm:.12g})", file=sys.stderr)
        return scaled / norm
    return amplitudes


def _resolve_shared(cfg: argparse.Namespace, rng: np.random.Generator) -> BipartiteState:
    if cfg.shared == "maximally-entangled":
        return maximally_entangled_state(cfg.d)
    if cfg.shared == "product":
        return product_state(basis_state(cfg.d, 0), basis_state(cfg.d, 0))
    if cfg.shared == "haar-random":
        return random_shared_state(cfg.d, rng)
    amplitudes = _state_from_file(cfg.shared_file, cfg.d, cfg.d * cfg.d, "shared state")
    return BipartiteState.from_vector(amplitudes)


def _resolve_basis(cfg: argparse.Namespace) -> OperatorBasis:
    if cfg.basis == "bell":
        return bell_basis(cfg.d)
    if cfg.basis == "product":
        return product_basis(cfg.d)
    basis = load_basis_file(cfg.basis_file)
    if basis.local_dim != cfg.d:
        raise ConfigurationError(f"{cfg.basis_file}: basis has d = {basis.local_dim}, expected {cfg.d}")
    return basis


def _resolve_setup(cfg: argparse.Namespace) -> tuple[np.random.Generator, TeleportSetup]:
    """The run's seeded generator and the setup built from ``cfg``.

    The resource is drawn from the generator before anything else the
    run draws.  A basis file is validated once, by ``build_setup``, and a
    failure names the file; a built-in basis is valid by construction.
    """
    rng = np.random.default_rng(cfg.seed)
    shared = _resolve_shared(cfg, rng)
    basis = _resolve_basis(cfg)
    try:
        return rng, build_setup(shared, basis)
    except BasisStructureError as exc:
        raise ConfigurationError(f"{cfg.basis_file}: {exc}") from None


def _resolve_psi(cfg: argparse.Namespace, rng: np.random.Generator) -> np.ndarray:
    if not cfg.psi_file:
        return haar_state(cfg.d, rng)
    return _state_from_file(cfg.psi_file, cfg.d, cfg.d, "input state")


# ----------------------------------------------------------------------
# runners


def _row(cfg: argparse.Namespace, **cells) -> dict:
    context = dict(experiment=cfg.command, d=cfg.d, basis=cfg.basis, shared=cfg.shared, seed=cfg.seed)
    return {**dict.fromkeys(_COMMANDS[cfg.command].columns), **context, **cells}


def run_verify(cfg: argparse.Namespace, rng: np.random.Generator, setup: TeleportSetup):
    """Max identity residual over ``samples`` random input states; its
    excess is that residual, with floor 0.  States are drawn and checked in
    chunks of ``_trials_per_chunk(d)``, with the draws and residuals one
    trial at a time would give."""
    chunk = _trials_per_chunk(cfg.d)
    chunks = (haar_trial_states(cfg.d, min(chunk, cfg.samples - start), rng)
              for start in range(0, cfg.samples, chunk))
    worst = max(float(verify_identity(states, setup).max()) for states in chunks)
    row = _row(cfg, quantity="max_identity_residual", samples=cfg.samples, residual=worst)
    return worst, 0.0, [row]


class _RecordRows(dict):
    """The transcript row of each outcome record, made on the record's first
    lookup.  Shots with the same xi share one record, so one pass over the
    shots gives each distinct record one row, which its shots share; the
    renderers write the shot cell."""

    def __init__(self, cfg: argparse.Namespace):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, record: TeleportOutcome) -> dict:
        row = self[record] = _row(self.cfg, xi=record.xi, probability=record.probability,
                                  conditional_fidelity=record.conditional_fidelity)
        return row


def run_teleport(cfg: argparse.Namespace, rng: np.random.Generator, setup: TeleportSetup):
    """Shot-by-shot protocol transcript for one input state; its excess is the
    largest probability or conditional fidelity (1 if none) minus 1, with floor
    ``PROBABILITY_TOL``.  One row per shot; shots with the same xi share one dict."""
    psi = _resolve_psi(cfg, rng)
    rows = _RecordRows(cfg)
    transcript = list(map(rows.__getitem__, sample_outcome(psi, setup, rng, size=cfg.samples)))
    largest = max((value for record in rows for value in (record.probability, record.conditional_fidelity)),
                  default=1.0)
    return largest - 1.0, PROBABILITY_TOL, transcript


def run_fidelity(cfg: argparse.Namespace, rng: np.random.Generator, setup: TeleportSetup):
    """Analytic average fidelity and the detected closed form; its excess is
    their gap, with floor ``closed_form_gap_bound(d)``."""
    analytic = average_fidelity_analytic(setup)
    case, closed = special_case_fidelity(setup)
    rows = [
        _row(cfg, quantity=quantity, label=case.value, analytic=value, samples=0)
        for quantity, value in (("average_fidelity", analytic), ("special_case_fidelity", closed))
    ]
    return abs(analytic - closed), closed_form_gap_bound(cfg.d), rows


def run_average(cfg: argparse.Namespace, rng: np.random.Generator, setup: TeleportSetup):
    """Monte-Carlo estimate against the analytic average fidelity; its excess
    is |analytic - mean| beyond 4 standard errors, with floor
    ``monte_carlo_rounding_bound(d)``."""
    result = monte_carlo_fidelity(setup, cfg.samples, rng)
    row = _row(cfg, quantity="average_fidelity", label=result.special_case.value,
               analytic=result.analytic, mc_mean=result.monte_carlo_mean,
               mc_stderr=result.monte_carlo_stderr, samples=result.samples)
    return result.sigma_excess(), monte_carlo_rounding_bound(cfg.d), [row]


class _Command(NamedTuple):
    """One command: its runner, report columns, help text, default --samples
    as a function of d and least --samples accepted; a least of None refuses
    the flag."""

    runner: Callable
    columns: tuple
    help: str
    default_samples: Callable[[int], int]
    least: Optional[int]


_COMMANDS = {
    "verify": _Command(run_verify, REPORT_COLUMNS, "check the teleportation identity on random inputs",
                       lambda d: 100, 1),
    "teleport": _Command(run_teleport, TRANSCRIPT_COLUMNS, "sample protocol shots and print the transcript",
                         lambda d: 1000, 0),
    "fidelity": _Command(run_fidelity, REPORT_COLUMNS, "analytic average fidelity of a setup",
                         lambda d: 0, None),
    "average": _Command(run_average, REPORT_COLUMNS, "Monte-Carlo cross-check of the average fidelity",
                        lambda d: 100000 if d <= 4 else 20000, MIN_SAMPLES),
}


# ----------------------------------------------------------------------
# rendering


def _format_scalar(value, null: str = "", text=str) -> str:
    """One report cell.  Floats get 17 significant digits and booleans
    ``true``/``false``; ``None`` becomes ``null`` and strings go through
    ``text``, so CSV keeps the defaults (empty cell, bare text) and JSON
    passes ``"null"`` and ``json.dumps``.
    """
    if value is None:
        return null
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return text(str(value))


def _row_texts(columns, rows, cell, labels, sep: str, end: str) -> list[str]:
    """The text of the rows in order, as pieces to join: per row,
    ``labels[i] + cell(value)`` per column, joined by ``sep``, then ``end``.
    A ``shot`` cell is the row's position in ``rows``.  Each distinct row
    object is formatted once, into the text before and after its shot cell,
    and a row with a shot cell is three pieces (that text before, the
    position, that text after), so rows that share one object cost no join.
    """
    shot = columns.index("shot") if "shot" in columns else None
    cached = {}
    pieces = []
    for position, row in enumerate(rows):
        parts = cached.get(id(row))
        if parts is None:
            items = [label + cell(row[c]) for label, c in zip(labels, columns)]
            if shot is None:
                parts = (sep.join(items) + end,)
            else:
                parts = (sep.join(items[:shot] + [labels[shot]]), sep.join([""] + items[shot + 1:]) + end)
            cached[id(row)] = parts
        pieces.append(parts[0])
        if shot is not None:
            pieces.append(str(position))
            pieces.append(parts[1])
    return pieces


def render_csv(meta: dict, columns, rows) -> str:
    """The CSV report: ``#`` meta lines, the header, one line per row.  A
    ``shot`` cell is the row's position in ``rows``."""
    pieces = [f"# {key}: {_format_scalar(value)}\n" for key, value in meta.items()]
    pieces.append(",".join(columns) + "\n")
    pieces += _row_texts(columns, rows, _format_scalar, ("",) * len(columns), ",", "\n")
    return "".join(pieces)


def render_json(meta: dict, columns, rows) -> str:
    """The JSON report: a ``meta`` object and one ``rows`` object per line.
    A ``shot`` cell is the row's position in ``rows``."""
    def cell(value) -> str:
        return _format_scalar(value, "null", json.dumps)

    meta_items = ", ".join(f"{json.dumps(k)}: {cell(v)}" for k, v in meta.items())
    # Each row's object opens before its first label and ends "},\n"; the
    # last row's ",\n" is cut, so the report is one join of its pieces.
    labels = [f"{json.dumps(c)}: " for c in columns]
    labels[0] = "    {" + labels[0]
    pieces = ["{\n", f'  "meta": {{{meta_items}}},\n', '  "rows": [\n']
    pieces += _row_texts(columns, rows, cell, labels, ", ", "},\n")
    if rows:
        pieces[-1] = pieces[-1][:-2]
    pieces.append("\n  ]\n}\n")
    return "".join(pieces)


def _build_meta(cfg: argparse.Namespace) -> dict:
    meta = {
        "command": cfg.command,
        "version": __version__,
        "d": cfg.d,
        "basis": cfg.basis,
        "shared": cfg.shared,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "tolerance": cfg.tolerance,
    }
    if not cfg.no_timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


# ----------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    # The options every command takes, declared once and given to each
    # command's parser as a parent.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    common.add_argument("--basis", choices=_BASIS_KINDS, default="bell",
                        help="measurement basis kind (default bell)")
    common.add_argument("--shared", choices=_SHARED_KINDS, default="maximally-entangled",
                        help="shared resource kind (default maximally-entangled)")
    common.add_argument("--samples", type=int, default=None,
                        help="trials / shots / Monte-Carlo samples (command-dependent default)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--tolerance", type=float, default=1e-10,
                        help="residual tolerance for pass/fail gates (default 1e-10)")
    common.add_argument("--basis-file", default=None, help="JSON basis file for --basis custom")
    common.add_argument("--shared-file", default=None, help="JSON state file for --shared custom")
    common.add_argument("--psi-file", default=None,
                        help="JSON state file fixing the teleported input state")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-reproducible output")
    parser = argparse.ArgumentParser(
        prog="teleportlab",
        description="Numerical laboratory for qudit teleportation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, parents=[common])
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = config_from_namespace(ns)
        command = _COMMANDS[cfg.command]
        excess, floor, rows = command.runner(cfg, *_resolve_setup(cfg))
    except (ConfigurationError, BasisStructureError, DimensionError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = _build_meta(cfg)
    text = render_csv(meta, command.columns, rows) if cfg.format == "csv" else render_json(meta, command.columns, rows)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if excess <= max(floor, cfg.tolerance) else 1


if __name__ == "__main__":
    sys.exit(main())
