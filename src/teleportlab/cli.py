"""Command-line laboratory for teleportation experiments.

Four subcommands:

    verify    residual of the teleportation identity over random inputs
    teleport  sample the protocol shot by shot and log the transcript
    fidelity  analytic average fidelity plus the detected closed form
    average   analytic value cross-checked by Monte Carlo

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

Exit codes: 0 pass, 1 quantitative failure, 2 unusable configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bases import OperatorBasis, bell_basis, custom_basis, product_basis, validate_basis
from .choi import BipartiteState, maximally_entangled_state, product_state
from .errors import BasisStructureError, ConfigurationError, DimensionError, NormalizationError
from .haar import (
    MIN_SAMPLES,
    average_fidelity_analytic,
    closed_form_gap_bound,
    haar_state,
    monte_carlo_fidelity,
    random_shared_state,
    special_case_fidelity,
)
from .linalg import basis_state
from .teleport import TeleportSetup, build_setup, require_setup_fits, sample_outcome, verify_identity
from .tolerances import NORMALIZATION_TOL

REPORT_COLUMNS = (
    "experiment", "d", "basis", "shared", "quantity", "label",
    "analytic", "mc_mean", "mc_stderr", "samples", "seed", "residual",
)
TRANSCRIPT_COLUMNS = (
    "experiment", "d", "basis", "shared", "shot", "xi",
    "probability", "conditional_fidelity", "seed",
)

_BASIS_KINDS = ("bell", "product", "custom")
_SHARED_KINDS = ("maximally-entangled", "product", "haar-random", "custom")


def _default_samples(command: str, d: int) -> int:
    if command == "verify":
        return 100
    if command == "teleport":
        return 1000
    if command == "average":
        return 100000 if d <= 4 else 20000
    return 0


def config_from_namespace(ns: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags, fill in the command's default ``--samples`` and
    return ``ns``; a dimension too large for dense storage is refused here."""
    if ns.d < 1:
        raise ConfigurationError("--d must be at least 1")
    if not 0 <= ns.seed < 2**64:
        raise ConfigurationError("--seed must fit in an unsigned 64-bit integer")
    if ns.tolerance <= 0:
        raise ConfigurationError("--tolerance must be positive")
    if not np.isfinite(ns.tolerance):
        raise ConfigurationError("--tolerance must be finite")
    if ns.samples is None:
        ns.samples = _default_samples(ns.command, ns.d)
    if ns.samples < 0:
        raise ConfigurationError("--samples must be nonnegative")
    if ns.command == "average" and ns.samples < MIN_SAMPLES:
        raise ConfigurationError(f"the average command needs --samples of at least {MIN_SAMPLES}")
    if ns.basis == "custom" and not ns.basis_file:
        raise ConfigurationError("--basis custom requires --basis-file")
    if ns.shared == "custom" and not ns.shared_file:
        raise ConfigurationError("--shared custom requires --shared-file")
    require_setup_fits(ns.d)
    return ns


# ----------------------------------------------------------------------
# state / basis files


def _parse_complex_pairs(values, what: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{what}: entries must be [re, im] pairs ({exc})") from None
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ConfigurationError(f"{what}: entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{what}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _file_dim(data: dict, path: str) -> int:
    # A JSON integer only: int() would truncate 2.5 and accept true as 1.
    d = data["d"]
    if type(d) is not int or d < 1:
        raise ConfigurationError(f"{path}: d must be an integer of at least 1, got {json.dumps(d)}")
    return d


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return data


def load_state_file(path: str) -> tuple[int, np.ndarray]:
    """Read a state file; returns (d, amplitudes) without normalizing."""
    data = _load_json(path)
    try:
        d = _file_dim(data, path)
        amplitudes = _parse_complex_pairs(data["amplitudes"], path)
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None
    if amplitudes.ndim != 1:
        raise ConfigurationError(f"{path}: amplitudes must be a flat list")
    if amplitudes.size not in (d, d * d):
        raise ConfigurationError(
            f"{path}: expected {d} or {d * d} amplitudes, found {amplitudes.size}"
        )
    return d, amplitudes


def save_state_file(path: str, d: int, amplitudes: np.ndarray) -> None:
    payload = {"d": int(d), "amplitudes": [[z.real, z.imag] for z in np.asarray(amplitudes, complex)]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_basis_file(path: str) -> OperatorBasis:
    """Read a basis file into an unvalidated custom basis."""
    data = _load_json(path)
    try:
        d = _file_dim(data, path)
        raw = data["elements"]
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from None
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}: elements must be a list of matrices")
    matrices = [_parse_complex_pairs(m, f"{path} element {i}") for i, m in enumerate(raw)]
    try:
        return custom_basis(matrices, local_dim=d)
    except (BasisStructureError, DimensionError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def save_basis_file(path: str, basis: OperatorBasis) -> None:
    payload = {
        "d": basis.local_dim,
        "elements": [
            [[[z.real, z.imag] for z in row] for row in element] for element in basis.elements
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _state_from_file(path: str, d: int, size: int, what: str) -> np.ndarray:
    """Amplitudes of a state file for local dimension ``d`` with ``size``
    entries, rescaled to unit norm with a warning when they are not."""
    d_file, amplitudes = load_state_file(path)
    if d_file != d or amplitudes.size != size:
        raise ConfigurationError(f"{path}: {what} must have d = {d} and {size} amplitudes")
    norm = np.linalg.norm(amplitudes)
    if norm == 0.0:
        raise ConfigurationError(f"{path}: amplitudes are identically zero")
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        print(f"warning: normalizing {path} (norm was {norm:.12g})", file=sys.stderr)
        return amplitudes / norm
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
    report = validate_basis(basis)
    if not report.passed:
        raise ConfigurationError(
            f"{cfg.basis_file}: basis violates {report.failed_relation} "
            f"(residual {max(report.orthonormality_residual, report.completeness_residual):.3e})"
        )
    return basis


def _resolve_setup(cfg: argparse.Namespace) -> tuple[np.random.Generator, TeleportSetup]:
    """The run's seeded generator and the setup built from ``cfg``.

    The resource is drawn from the generator before anything else the
    run draws.  A custom basis is validated once, by
    :func:`_resolve_basis`, so that a failure names its file;
    ``build_setup`` validates the built-in bases.
    """
    rng = np.random.default_rng(cfg.seed)
    shared = _resolve_shared(cfg, rng)
    basis = _resolve_basis(cfg)
    return rng, build_setup(shared, basis, validate=cfg.basis != "custom")


def _resolve_psi(cfg: argparse.Namespace, rng: np.random.Generator) -> np.ndarray:
    if not cfg.psi_file:
        return haar_state(cfg.d, rng)
    return _state_from_file(cfg.psi_file, cfg.d, cfg.d, "input state")


# ----------------------------------------------------------------------
# runners


def _row(cfg: argparse.Namespace, columns, **cells) -> dict:
    # Context by item assignment, not keyword update: transcripts build one row per shot.
    row = dict.fromkeys(columns)
    row["experiment"], row["d"], row["seed"] = cfg.command, cfg.d, cfg.seed
    row["basis"], row["shared"] = cfg.basis, cfg.shared
    row.update(cells)
    return row


def run_verify(cfg: argparse.Namespace):
    """Max identity residual over ``samples`` random input states."""
    rng, setup = _resolve_setup(cfg)
    trials = max(cfg.samples, 1)
    worst = max(verify_identity(haar_state(cfg.d, rng), setup) for _ in range(trials))
    row = _row(cfg, REPORT_COLUMNS, quantity="max_identity_residual", samples=trials, residual=worst)
    return (0 if worst < cfg.tolerance else 1), [row]


def run_teleport(cfg: argparse.Namespace):
    """Shot-by-shot protocol transcript for one input state."""
    rng, setup = _resolve_setup(cfg)
    psi = _resolve_psi(cfg, rng)
    rows = []
    sane = True
    for shot, outcome in enumerate(sample_outcome(psi, setup, rng, size=cfg.samples)):
        sane &= 0.0 <= outcome.probability <= 1.0 + 1e-12
        sane &= 0.0 <= outcome.conditional_fidelity <= 1.0 + 1e-12
        rows.append(_row(cfg, TRANSCRIPT_COLUMNS, shot=shot, xi=outcome.xi,
                         probability=outcome.probability,
                         conditional_fidelity=outcome.conditional_fidelity))
    return (0 if sane else 1), rows


def run_fidelity(cfg: argparse.Namespace):
    """Analytic average fidelity and the detected closed form."""
    _, setup = _resolve_setup(cfg)
    result = average_fidelity_analytic(setup)
    case, closed = special_case_fidelity(setup)
    rows = [
        _row(cfg, REPORT_COLUMNS, quantity=quantity, label=case.value, analytic=value, samples=0)
        for quantity, value in (("average_fidelity", result.analytic),
                                ("special_case_fidelity", closed))
    ]
    # The two routes must agree within the rule's own gap or --tolerance.
    gate = max(closed_form_gap_bound(cfg.d), cfg.tolerance)
    return (0 if abs(result.analytic - closed) <= gate else 1), rows


def run_average(cfg: argparse.Namespace):
    """Monte-Carlo estimate against the analytic average fidelity."""
    rng, setup = _resolve_setup(cfg)
    result = monte_carlo_fidelity(setup, cfg.samples, rng)
    row = _row(
        cfg, REPORT_COLUMNS, quantity="average_fidelity", label=result.special_case.value,
        analytic=result.analytic, mc_mean=result.monte_carlo_mean,
        mc_stderr=result.monte_carlo_stderr, samples=result.samples,
    )
    return (0 if result.within_statistical_bound() else 1), [row]


_RUNNERS = {
    "verify": (run_verify, REPORT_COLUMNS),
    "teleport": (run_teleport, TRANSCRIPT_COLUMNS),
    "fidelity": (run_fidelity, REPORT_COLUMNS),
    "average": (run_average, REPORT_COLUMNS),
}


# ----------------------------------------------------------------------
# rendering


def _format_scalar(value, null: str = "", text=str) -> str:
    """One report cell.  Floats get 17 significant digits and booleans
    ``true``/``false``; ``None`` becomes ``null`` and strings go through
    ``text``, so CSV keeps the defaults (empty cell, bare text) and JSON
    passes ``"null"`` and ``json.dumps``.

    The exact-type checks up front are a fast path for the plain Python
    values that fill transcripts; they give the same text as the
    ``isinstance`` chain below.
    """
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is int:
        return str(value)
    if kind is str:
        return text(value)
    if value is None:
        return null
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return text(str(value))


def render_csv(meta: dict, columns, rows) -> str:
    lines = [f"# {key}: {_format_scalar(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_scalar(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(meta: dict, columns, rows) -> str:
    def cell(value) -> str:
        return _format_scalar(value, "null", json.dumps)

    meta_items = ", ".join(f"{json.dumps(k)}: {cell(v)}" for k, v in meta.items())
    row_texts = []
    for row in rows:
        body = ", ".join(f"{json.dumps(c)}: {cell(row[c])}" for c in columns)
        row_texts.append("    {" + body + "}")
    rows_block = ",\n".join(row_texts)
    return (
        "{\n"
        f'  "meta": {{{meta_items}}},\n'
        '  "rows": [\n' + rows_block + "\n  ]\n"
        "}\n"
    )


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
    parser = argparse.ArgumentParser(
        prog="teleportlab",
        description="Numerical laboratory for qudit teleportation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "verify": "check the teleportation identity on random inputs",
        "teleport": "sample protocol shots and print the transcript",
        "fidelity": "analytic average fidelity of a setup",
        "average": "Monte-Carlo cross-check of the average fidelity",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
        p.add_argument("--basis", choices=_BASIS_KINDS, default="bell",
                       help="measurement basis kind (default bell)")
        p.add_argument("--shared", choices=_SHARED_KINDS, default="maximally-entangled",
                       help="shared resource kind (default maximally-entangled)")
        p.add_argument("--samples", type=int, default=None,
                       help="trials / shots / Monte-Carlo samples (command-dependent default)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--tolerance", type=float, default=1e-10,
                       help="residual tolerance for pass/fail gates (default 1e-10)")
        p.add_argument("--basis-file", default=None, help="JSON basis file for --basis custom")
        p.add_argument("--shared-file", default=None, help="JSON state file for --shared custom")
        p.add_argument("--psi-file", default=None,
                       help="JSON state file fixing the teleported input state")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp for byte-reproducible output")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = config_from_namespace(ns)
        runner, columns = _RUNNERS[cfg.command]
        code, rows = runner(cfg)
    except (ConfigurationError, BasisStructureError, DimensionError, NormalizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = _build_meta(cfg)
    text = render_csv(meta, columns, rows) if cfg.format == "csv" else render_json(meta, columns, rows)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
