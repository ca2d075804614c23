"""Every memory budget, one row each.

The paper's objects are dense, so a peak is a count of held complex
d^4-entry stacks (the basis elements, T, ``vectors_t``; the packed |T| is
half a stack) plus working sets sized from ``linalg._BLOCK_BYTES``.  Each
row of ``_ROWS`` is an id, a d, a setup run before the measurement (it
builds and reads what the row holds and gives the call's input), the
measured call, what the call must return, so that a refused or empty call
cannot pass, and a bound of ``stacks`` whole stacks plus ``blocks`` x
``_BLOCK_BYTES``, checked by one assertion through ``oracles.peak_bytes``.
The command rows hold the stacks of ``teleport._PEAK_STACKS``' comment
(verify 3, teleport 1, fidelity 1, average 1.5); their ``blocks`` sit at
least half a block above the largest peak read, first in a fresh process or
in the suite, and less than a stack above it, so one more stack fails them.
The transcript rows bound 20,000 shots written to a file by
``_TRANSCRIPT_BLOCKS``, which a row text built per shot breaks.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, NamedTuple

import numpy as np
import pytest

import oracles
from teleportlab import (
    OperatorBasis, TeleportSetup, bell_basis, build_setup, custom_basis, enumerate_outcomes, haar_state,
    maximally_entangled_state, random_shared_state, realize_outcome, rotated_basis, sample_outcome,
    state_fidelity_batch, validate_basis, verify_identity,
)
from teleportlab.cli import build_parser, config_from_namespace, main, run_verify
from teleportlab.linalg import _BLOCK_BYTES


def stack(d):
    return 16 * d**4  # bytes of one complex d^4-entry stack: 16 MiB at d = 32, 1 MiB at d = 16


class Row(NamedTuple):
    id: str
    d: int
    setup: Callable  # d -> the call's input, with what the row holds built and read
    call: Callable  # the input -> the result, measured
    returns: Callable  # the result -> whether the call did its work
    stacks: float
    blocks: float


def _ideal(d, *reads):
    """The ideal setup at d, the cached stacks ``reads`` read."""
    setup = TeleportSetup(maximally_entangled_state(d), bell_basis(d))
    for name in reads:
        getattr(setup, name)
    return setup


def _outcome_input(d):
    # No T stack: the outcome calls form their T_xi in blocks, so building T would break their rows.
    return oracles.haar_states_gaussian(np.random.default_rng(33), d, 1)[0], _ideal(d)


def _argv(command, *flags):
    return lambda d: [command, "--d", str(d), "--shared", "haar-random", *flags, "--no-timestamp"]


def _verify_config(d, samples):
    return config_from_namespace(build_parser().parse_args(_argv("verify", "--samples", str(samples))(d)))


def _verify_input(d, samples):
    """``run_verify``'s arguments for a rotated Bell basis, T and ``vectors_t`` read."""
    rng = np.random.default_rng(d)
    setup = build_setup(random_shared_state(d, rng), rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d)))
    setup.transfer_ops, setup.basis.vectors_t
    return _verify_config(d, samples), rng, setup


def _verify_reading_first(first):
    """A verify run that builds its setup and reads ``first`` (T or ``vectors_t``)
    before 20 one-state checks and a 2-trial ``run_verify``; its largest residual."""
    def run(d):
        rng = np.random.default_rng(d)
        setup = build_setup(random_shared_state(d, rng), bell_basis(d))
        getattr(setup.basis if first == "vectors_t" else setup, first)
        residuals = [verify_identity(haar_state(d, rng), setup) for _ in range(20)]
        return max(residuals + [run_verify(_verify_config(d, 2), rng, setup)[0]])
    return run


# A 20,000-shot transcript's peak above the elements, in blocks.  The rendered
# report, its shot numbers and its UTF-8 copy for the file read 3.18 blocks in
# CSV and 7.74 in JSON at d = 2 and 8; a row text built per shot reads 4.26 and
# 8.84, and JSON's rows block copied twice more 11.55.  Each bound sits half a
# block above the first and below the others, and far inside the 19.5 blocks
# that cli._SHOT_BYTES charges 20,000 shots.
_TRANSCRIPT_BLOCKS = {"csv": 3.7, "json": 8.3}


def _transcript(fmt):
    """The argv of a 20,000-shot transcript in ``fmt`` written to the null
    device, after a run of no shots has made the imports and caches of a
    process's first run, so the peak is the transcript's in any test order.
    A file, not pytest's capture buffer, which holds the text, its UTF-8
    copy and its own growing buffer, and would set the peak whatever the
    renderer held."""
    def setup(d):
        argv = _argv("teleport", "--format", fmt, "--out", os.devnull)(d)
        main(argv + ["--samples", "0"])
        return argv + ["--samples", "20000"]
    return setup


def _exits_0(code):
    return code == 0


_ROWS = [
    # T beside C^dag alone: a conjugated copy of the elements would be one more stack.
    Row("transfer-ops-d32", 32, _ideal, lambda setup: setup.transfer_ops,
        lambda t: t.nbytes == stack(32) and not t.flags.writeable, 1, 1),
    # The packed |T| beside one block's T_xi, SVD, |T_xi| and packing; a whole T or |T| breaks it.
    Row("transfer-abs-packed-d32", 32, _ideal, lambda setup: setup.transfer_abs_packed,
        lambda packed: packed.nbytes == stack(32) // 2, 0.5, 6),
    # 2,000 inputs, one _rows_per_block block of features and overlaps at a time.
    Row("state-fidelity-batch-d32", 32,
        lambda d: (oracles.haar_states_gaussian(np.random.default_rng(32), d, 2000),
                   _ideal(d, "transfer_abs_packed")),
        lambda args: state_fidelity_batch(*args), lambda f: np.allclose(f, 1.0, rtol=0, atol=1e-12), 0, 3.5),
    # The T_xi, T_xi psi and corrections of a quarter _rows_per_block block of
    # outcomes at a time beside the records: 2.92 blocks, and 3.10 with the
    # probabilities and 20,000 shots; whole blocks would hold 4 _BLOCK_BYTES.
    Row("enumerate-outcomes-d32", 32, _outcome_input, lambda args: enumerate_outcomes(*args),
        lambda records: len({r.xi for r in records}) == 32**2, 0, 4),
    Row("sample-outcome-d32", 32, _outcome_input, lambda args: sample_outcome(*args, np.random.default_rng(0), 20000),
        lambda records: len(records) == 20000 and len({r.xi for r in records}) == 32**2, 0, 4),
    # One outcome forms its own T_xi alone, not all d^2 of them: 0.08 blocks at d = 32.
    Row("realize-outcome-d32", 32, _outcome_input, lambda args: realize_outcome(*args, 5),
        lambda record: record.xi == 5 and record.probability > 0, 0, 0.25),
    # One conjugated row block of b = 256 rows and one b x b Gram block at a
    # time; the whole conjugate or the whole Gram matrix is one more stack.
    Row("validate-basis-d24", 24, bell_basis, validate_basis, lambda report: report.passed, 0, 5),
    Row("validate-basis-d32", 32, bell_basis, validate_basis, lambda report: report.passed, 0, 7),
    # The conversion to complex is the stored stack itself, not a second copy,
    # and the finiteness check reads it in slices: a whole-stack mask is one block.
    Row("real-stack-to-complex-d32", 32, lambda d: bell_basis(d).elements.real.copy(),
        lambda real: OperatorBasis(local_dim=32, elements=real).elements,
        lambda stored: stored.dtype == complex and not stored.flags.writeable
        and np.array_equal(stored, bell_basis(32).elements.real), 1, 0.25),
    # A list of matrices stacked once, and bell_basis beside its d^3 index
    # arrays; a whole-stack finiteness mask would be one block more.
    Row("custom-basis-d32", 32, lambda d: [m.copy() for m in bell_basis(d).elements], custom_basis,
        lambda basis: np.array_equal(basis.elements, bell_basis(32).elements), 1, 0.25),
    Row("bell-basis-d32", 32, lambda d: d, bell_basis,
        lambda basis: basis.built_in and basis.elements.shape == (32**2, 32, 32), 1, 0.75),
    # A verify chunk: T psi, its transposed copy, the right and the left side
    # within one block; for all 5,000 states at once each would take 39 MiB at d = 8.
    Row("run-verify-d8", 8, lambda d: _verify_input(d, 5000), lambda args: run_verify(*args),
        lambda result: result[0] < 1e-12, 0, 1),
    Row("run-verify-d16", 16, lambda d: _verify_input(d, 200), lambda args: run_verify(*args),
        lambda result: result[0] < 1e-12, 0, 1),
    # The elements, T and vectors_t, whichever of the last two is read first:
    # T is built without a conjugated copy of the elements.
    *(Row(f"verify-{first.replace('_', '-')}-first-d{d}", d, lambda d: d, _verify_reading_first(first),
          lambda residual: residual < 1e-12, 3, 3) for d in (24, 32) for first in ("vectors_t", "transfer_ops")),
    # Whole commands, set-up, run and report, from main(argv).
    Row("verify-d24", 24, _argv("verify", "--samples", "20"), main, _exits_0, 3, 3),
    Row("verify-d32", 32, _argv("verify", "--samples", "20"), main, _exits_0, 3, 3),
    Row("teleport-d24", 24, _argv("teleport", "--samples", "20"), main, _exits_0, 1, 3),
    Row("teleport-d32", 32, _argv("teleport", "--samples", "20"), main, _exits_0, 1, 3),
    Row("fidelity-d24", 24, _argv("fidelity"), main, _exits_0, 1, 3),
    Row("fidelity-d32", 32, _argv("fidelity"), main, _exits_0, 1, 3),
    Row("average-d24", 24, _argv("average", "--samples", "100"), main, _exits_0, 1.5, 7),
    Row("average-d32", 32, _argv("average", "--samples", "100"), main, _exits_0, 1.5, 7),
    # The transcript, sampled, rendered and written to a file: the elements plus _TRANSCRIPT_BLOCKS.
    *(Row(f"teleport-20000-shots-{fmt}-d{d}", d, _transcript(fmt), main, _exits_0, 1, _TRANSCRIPT_BLOCKS[fmt])
      for d in (2, 8) for fmt in ("csv", "json")),
]
_BY_ID = {row.id: row for row in _ROWS}


@functools.cache
def measured(row_id):
    """(whether the call returned what the row requires, its peak bytes)."""
    row = _BY_ID[row_id]
    given = row.setup(row.d)
    result, peak = oracles.peak_bytes(lambda: row.call(given))
    return bool(row.returns(result)), peak


@pytest.mark.parametrize("row", _ROWS, ids=[row.id for row in _ROWS])
def test_each_row_peaks_within_its_budget(row, capsys):
    done, peak = measured(row.id)
    blocks = (peak - row.stacks * stack(row.d)) / _BLOCK_BYTES
    assert done and blocks < row.blocks, (
        f"returned as required: {done}; peak {row.stacks} stacks + {blocks:.2f} blocks")


@pytest.mark.parametrize("d", [24, 32])
def test_verify_peak_does_not_depend_on_read_order(d):
    # Two peaks, which no one row can compare: the rows bound each order, this
    # asks the two to agree within 0.05 stack.
    vectors_t, transfer_ops = (measured(f"verify-{first}-first-d{d}")[1] for first in ("vectors-t", "transfer-ops"))
    assert abs(vectors_t - transfer_ops) <= 0.05 * stack(d)
