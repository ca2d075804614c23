"""The four benchmark workloads: CLI argv, generated inputs, work units and set-up calls.

Each workload is dominated by a different layer of teleportlab, so that every
optimisation on the roadmap has one workload that exercises it and one that
bypasses it.  Sizes were chosen so that one invocation takes about one to two
seconds on a 2-core x86 box; the work unit of each workload turns the median
wall time into a throughput.

The workload seed is an argument of the benchmark.  The program under test
sees only the argv built here (which carries the seed) and, for
``verify-custom``, two JSON files generated from the seed with plain numpy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    items: int          # work units done by one invocation
    unit: str           # what one work unit is
    dominant: str       # span expected to take more than half of cli.main
    kernel: str         # bench.calibrate kernel shaped like the hot loop
    setup_kernel: str   # bench.calibrate kernel shaped like the set-up calls
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="teleport-shots",
            argv=("teleport", "--d", "2", "--basis", "bell", "--shared", "haar-random",
                  "--samples", "20000"),
            items=20000,
            unit="shots",
            dominant="teleport.sample_outcome",
            kernel="shots",
            setup_kernel="shots",
            why="per-shot sampling loop (one SVD per shot) and a 1.5 MB transcript; "
                "set-up is tiny and there is no Monte Carlo",
        ),
        Workload(
            name="average-mc",
            argv=("average", "--d", "16", "--basis", "bell", "--shared", "haar-random",
                  "--samples", "40000"),
            items=40000,
            unit="MC samples",
            dominant="teleport.state_fidelity_batch",
            kernel="gemm",
            setup_kernel="factor",
            why="Monte-Carlo kernel state_fidelity_batch dominates and the report is one row",
        ),
        Workload(
            name="fidelity-setup",
            argv=("fidelity", "--d", "32", "--basis", "bell", "--shared", "haar-random"),
            items=32 * 32,
            unit="basis elements",
            dominant="teleport.build_setup",
            kernel="factor",
            setup_kernel="factor",
            why="no sampling: basis validation, the d^2 transfer SVDs and special-case "
                "detection at d=32 dominate",
        ),
        Workload(
            name="verify-custom",
            argv=("verify", "--d", "8", "--basis", "custom", "--shared", "custom",
                  "--samples", "5000"),
            items=5000,
            unit="identity trials",
            dominant="teleport.verify_identity",
            kernel="identity",
            setup_kernel="shots",
            why="identity residual per trial with single-state Haar draws, on a "
                "custom basis and resource read from JSON files",
        ),
    )
}


def local_dim(workload: Workload) -> int:
    return int(workload.argv[workload.argv.index("--d") + 1])


def is_custom(workload: Workload) -> bool:
    return "custom" in workload.argv


# ----------------------------------------------------------------------
# generated inputs (numpy only, so they do not move when the program does)


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def _bell_elements(d: int) -> np.ndarray:
    """Element j*d + k is Z^k X^j / sqrt(d) as a d x d matrix."""
    a = np.arange(d)
    elements = np.zeros((d * d, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            elements[j * d + k][a, (a - j) % d] = np.exp(2j * np.pi * k * a / d) / np.sqrt(d)
    return elements


def _pairs(values: np.ndarray) -> list:
    return np.stack([values.real, values.imag], axis=-1).tolist()


def write_inputs(workload: Workload, seed: int, directory: str) -> list[str]:
    """Write the workload's input files; returns the argv that names them.

    ``verify-custom`` gets the Bell basis rotated by a Haar unitary on the
    d^2-dimensional space, and a Haar-random resource state.
    """
    if not is_custom(workload):
        return []
    d = local_dim(workload)
    rng = np.random.default_rng(seed)
    n = d * d
    rotation = _haar_unitary(n, rng)
    elements = (_bell_elements(d).reshape(n, n) @ rotation.T).reshape(n, d, d)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    state = z / np.linalg.norm(z)
    basis_path = os.path.join(directory, "basis.json")
    state_path = os.path.join(directory, "shared.json")
    with open(basis_path, "w", encoding="utf-8") as handle:
        json.dump({"d": d, "elements": _pairs(elements)}, handle)
    with open(state_path, "w", encoding="utf-8") as handle:
        json.dump({"d": d, "amplitudes": _pairs(state)}, handle)
    return ["--basis-file", basis_path, "--shared-file", state_path]


def invocation_argv(workload: Workload, seed: int, file_args: list[str]) -> list[str]:
    return [*workload.argv, *file_args, "--seed", str(seed), "--no-timestamp"]


# ----------------------------------------------------------------------
# set-up: the public calls that build the workload's configuration


def setup_calls(workload: Workload, seed: int, file_args: list[str]) -> Callable[[], object]:
    """The three public set-up calls of the workload, as one callable.

    Basis (``bell_basis`` or ``load_basis_file``), resource
    (``random_shared_state`` or ``load_state_file`` plus
    ``BipartiteState.from_vector``), then ``build_setup``, which validates.
    Functions are looked up on their modules at call time.
    """
    from teleportlab import bases, choi, cli, haar, teleport

    d = local_dim(workload)
    if is_custom(workload):
        basis_path = file_args[file_args.index("--basis-file") + 1]
        state_path = file_args[file_args.index("--shared-file") + 1]

        def run():
            basis = cli.load_basis_file(basis_path)
            _, amplitudes = cli.load_state_file(state_path)
            shared = choi.BipartiteState.from_vector(amplitudes)
            return teleport.build_setup(shared, basis)
    else:
        def run():
            basis = bases.bell_basis(d)
            shared = haar.random_shared_state(d, np.random.default_rng(seed))
            return teleport.build_setup(shared, basis)
    return run
