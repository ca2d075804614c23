"""Every batched path against its per-item oracle, one row each.

Each row of ``_ROWS`` is an id, its setups (a :class:`Spec` each, built by
:func:`build`), the batched call, the per-item oracle (from ``oracles.py``
unless the row says otherwise) and one comparison kind.  One assertion,
:func:`matches`, checks every row: the same type (item by item for a
tuple), shape and dtype, then ``"bytes"`` (the same ``tobytes()``, so -0.0
and +0.0 differ), ``"equal"`` (``np.array_equal``, so -0.0 equals 0.0 and
NaN fails) or, for a float kind, every entry within that absolute tolerance.
A tuple of kinds gives each item of a tuple result its own kind.
"""

from __future__ import annotations

import csv
import json
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import cli_grid
import oracles
from teleportlab import (
    BipartiteState, OperatorBasis, TeleportSetup, basis_state, bell_basis, enumerate_outcomes, haar_state,
    haar_trial_states, maximally_entangled_state, monte_carlo_fidelity, operator_abs, product_basis, product_state,
    realize_outcome, rotated_basis, sample_outcome, special_case_fidelity, state_fidelity, state_fidelity_batch,
    teleport, verify_identity,
)
from teleportlab.choi import schmidt_shape
from teleportlab.linalg import polar_unitary


class Spec(NamedTuple):
    """A row's setup from ``default_rng(seed)``: basis, resource (or None), then ``states`` rows."""

    d: int
    basis: str | None
    resource: str | None
    seed: int
    states: int = 0


_BASES = {
    "bell": lambda d, rng: bell_basis(d),
    "product": lambda d, rng: product_basis(d),
    "rotated": lambda d, rng: rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d)),
    # Never validated: its O(1) residual shows the order of a sum in the last bit.
    "random": lambda d, rng: OperatorBasis(d, oracles.random_complex(rng, (d * d, d, d))),
}
_RESOURCES = {  # the CLI's --shared names, and a random product state
    "haar-random": lambda d, rng: BipartiteState.from_vector(oracles.haar_states_gaussian(rng, d * d, 1)[0]),
    "product": lambda d, rng: product_state(basis_state(d, 0), basis_state(d, 0)),
    "maximally-entangled": lambda d, rng: maximally_entangled_state(d),
    "random-product": lambda d, rng: product_state(oracles.random_complex(rng, d), oracles.random_complex(rng, d)),
}


def build(spec):
    """The case a row's calls read; ``rng`` is the generator past its draws."""
    rng = np.random.default_rng(spec.seed)
    basis = _BASES[spec.basis](spec.d, rng) if spec.basis else None
    setup = TeleportSetup(_RESOURCES[spec.resource](spec.d, rng), basis) if spec.resource else None
    states = oracles.haar_states_gaussian(rng, spec.d, spec.states) if spec.states else None
    return SimpleNamespace(d=spec.d, spec=spec, basis=basis, setup=setup, states=states, rng=rng)


def _grid(dims, bases, resources, seed, states=0):
    """A spec per (d, basis, resource), each on the seed ``seed + d``."""
    return [Spec(d, b, r, seed + d, states) for d in dims for b in bases for r in resources]


def matches(got, want, kind) -> bool:
    """The table's one assertion (see the module docstring)."""
    if type(got) is not type(want):
        return False
    if isinstance(want, tuple):
        kinds = kind if isinstance(kind, tuple) else (kind,) * len(want)
        return len(got) == len(want) == len(kinds) and all(map(matches, got, want, kinds))
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if kind == "bytes":
        return got.tobytes() == want.tobytes()
    if kind == "equal":
        return np.array_equal(got, want)
    return bool(np.all(np.abs(got - want) <= kind))


def _packed_abs_per_outcome(c):
    transfer_abs = oracles.transfer_abs(c.setup.transfer_ops)
    return np.array([oracles.pack_hermitian(a) for a in transfer_abs]), transfer_abs


def _chunk_counts(d):
    chunk = teleport._trials_per_chunk(d)
    return chunk - 1, chunk, chunk + 1, 2 * chunk + 1


def _chunked_residuals(c):
    # A count's draws are the first of the oracle's stream; the last state goes alone too.
    draws = [haar_trial_states(c.d, n, np.random.default_rng(c.d)) for n in _chunk_counts(c.d)]
    return (*(verify_identity(states, c.setup).tolist() for states in draws), verify_identity(draws[-1][-1], c.setup))


def _per_trial_residuals(c):
    counts = _chunk_counts(c.d)
    expected = oracles.verify_residuals_per_trial(np.random.default_rng(c.d), counts[-1], c.setup.transfer_ops,
                                                  c.basis.elements, c.setup.shared.vector)
    return (*(expected[:n] for n in counts), expected[-1])


class _Replay(list):
    """Uniform draws given in advance, taken in order; ``bit_generator.state`` is those left."""

    bit_generator = property(lambda self: SimpleNamespace(state=list(self)))

    def random(self, size=None):
        return self.pop(0) if size is None else np.array([self.pop(0) for _ in range(size)])


def _sampling(c, shots):
    """``shots(rng, size)`` and the generator's state after it, for sizes 0, 1,
    500 and None (one outcome) on ``default_rng(d + size)``, then for 0.0 and
    every CDF value below 1 replayed, where the search's side decides xi, and
    the largest double below 1, which lands past the end of a CDF that ends
    below 1."""
    cdf = oracles.outcome_cdf(c.states[0], c.setup.transfer_ops)
    edges = [0.0, *cdf[cdf < 1].tolist(), float(np.nextafter(1.0, 0.0))]
    runs = [(size, np.random.default_rng(c.d + (size or 0))) for size in (0, 1, 500, None)]
    return tuple((shots(rng, size), rng.bit_generator.state) for size, rng in [*runs, (len(edges), _Replay(edges))])


def _shots(outcomes):
    if isinstance(outcomes, list):
        return list(map(_shots, outcomes))
    return outcomes.xi, outcomes.probability, outcomes.conditional_fidelity


def _per_shot(c, rng, size):
    shots = [oracles.sample_outcome_per_shot(c.states[0], c.setup.transfer_ops, rng)
             for _ in range(1 if size is None else size)]
    return shots[0] if size is None else shots


def _block_images(v, setup):
    rows = teleport._rows_per_block(setup.local_dim)
    return np.concatenate([teleport._transfer_images(v, setup._transfer_block(slice(start, start + rows)))
                           for start in range(0, len(setup.basis), rows)])


_RECORD_SHOTS = 200


def _record_fields(records):
    """(xi, probability, raw state, corrected state, conditional fidelity)
    tuples as one array per field, the states stacked."""
    return tuple(np.array(field) for field in zip(*records))


def _records(c):
    # realize_outcome at each xi, enumerate_outcomes, then the records of the shots.
    psi, setup = c.states[0], c.setup
    records = [realize_outcome(psi, setup, xi) for xi in range(c.d**2)] + enumerate_outcomes(psi, setup)
    records += sample_outcome(psi, setup, np.random.default_rng(c.d), size=_RECORD_SHOTS)
    return _record_fields([(r.xi, r.probability, r.raw_conditional_state, r.corrected_state,
                            r.conditional_fidelity) for r in records])


def _records_per_outcome(c):
    psi, transfer_ops, rng = c.states[0], c.setup.transfer_ops, np.random.default_rng(c.d)
    shots = [oracles.sample_outcome_per_shot(psi, transfer_ops, rng)[0] for _ in range(_RECORD_SHOTS)]
    return _record_fields([(xi, *oracles.outcome_record(psi, transfer_ops, xi))
                           for xi in [*range(c.d**2), *range(c.d**2), *shots]])


def _block_counts(d):
    # None, one and several GEMM blocks of rows, the last partial or full.
    rows = teleport._rows_per_block(d)
    return 0, 1, rows - 1, rows, rows + 1, 3 * rows + 7


def _fidelities(c, counts, per_outcome=False):
    psis = oracles.haar_states_gaussian(np.random.default_rng(c.d), c.d, max(counts))
    if per_outcome:
        transfer_abs = oracles.transfer_abs(c.setup.transfer_ops)
        return tuple(oracles.state_fidelity_batch_per_outcome(psis[:n], transfer_abs) for n in counts)
    return tuple(state_fidelity_batch(psis[:n], c.setup) for n in counts)


def _element_shape_per_element(c):
    spectra, all_flat, all_rank_one = oracles.element_shape_per_element(c.basis.elements)
    return tuple(map(schmidt_shape, spectra)), (all_flat, all_rank_one)


def _trial_draws(c):
    rng, single_rng = np.random.default_rng(c.d), np.random.default_rng(c.d)
    singles = np.array([haar_state(c.d, single_rng) for _ in range(9)])
    return haar_trial_states(c.d, 9, rng), rng.bit_generator.state, singles, single_rng.bit_generator.state


def _cli(c, command, samples, *extra):
    record = cli_grid.run([command, "--d", str(c.d), "--basis", c.spec.basis, "--shared", c.spec.resource,
                           "--samples", str(samples), "--seed", str(c.spec.seed), "--no-timestamp", *extra])
    return record["exit"], record["stdout"]


def _transcripts(c):
    keys = ("shot", "xi", "probability", "conditional_fidelity")
    code, text = _cli(c, "teleport", 400)
    rows = csv.DictReader(line for line in text.splitlines() if not line.startswith("#"))
    json_code, json_text = _cli(c, "teleport", 400, "--format", "json")
    return (code, [tuple(r[k] for k in keys) for r in rows],
            json_code, [tuple(r[k] for k in keys) for r in json.loads(json_text)["rows"]])


def _transcripts_per_shot(c):
    # The CLI draws the resource, psi and then the shots from one generator.
    shots = [(n, *oracles.sample_outcome_per_shot(c.states[0], c.setup.transfer_ops, c.rng)) for n in range(400)]
    return 0, [(str(n), str(xi), format(p, ".17g"), format(f, ".17g")) for n, xi, p, f in shots], 0, shots


def _worst_residual(c):
    code, text = _cli(c, "verify", 2 * teleport._trials_per_chunk(c.d) + 1)  # two full chunks and one state
    return code, text.splitlines()[-1].split(",")[-1]


def _worst_residual_per_trial(c):
    # The CLI draws the resource and then every trial from one generator.
    residuals = oracles.verify_residuals_per_trial(c.rng, 2 * teleport._trials_per_chunk(c.d) + 1,
                                                   c.setup.transfer_ops, c.basis.elements, c.setup.shared.vector)
    return 0, format(max(residuals), ".17g")


_BELL_PRODUCT_ROTATED = ("bell", "product", "rotated")
_CLI_RESOURCES = ("haar-random", "product", "maximally-entangled")
_ELEMENT_SPECS = _grid(range(1, 7), _BELL_PRODUCT_ROTATED, (None,), 31) + [Spec(32, "bell", None, 63)]

# (id, specs, batched call, per-item oracle, kind)
_ROWS = [
    # T conjugated in place from C^dag B^t.  "equal", not "bytes": on the product
    # basis at every d from 2 the conjugation turns some +0.0 imaginary parts into -0.0.
    ("transfer-ops", _grid((1, 2, 3, 5, 8, 16, 24, 32), _BELL_PRODUCT_ROTATED, ("haar-random",), 80),
     lambda c: c.setup.transfer_ops,
     lambda c: oracles.transfer_ops(c.setup.shared.operator_form, c.basis.elements), "equal"),
    # Stacked SVDs over blocks of outcomes, at d = 24 ending in a partial block,
    # and operator_abs of each T_xi.
    ("transfer-abs-packed", _grid((1, 2, 3, 5, 8, 24), ("bell", "rotated"), ("haar-random",), 50),
     lambda c: (c.setup.transfer_abs_packed, np.array([operator_abs(t) for t in c.setup.transfer_ops])),
     _packed_abs_per_outcome, "equal"),
    # One singular-value call per block of fresh T_xi, two blocks at d = 17 and
    # six at d = 24 (the last partial), against one call over the whole stack.
    ("transfer-trace-norms", _grid((1, 2, 3, 17, 24), (*_BELL_PRODUCT_ROTATED, "random"), ("haar-random",), 85),
     lambda c: c.setup.transfer_trace_norms,
     lambda c: np.linalg.svd(oracles.transfer_ops(c.setup.shared.operator_form, c.basis.elements),
                             compute_uv=False).sum(axis=1), "bytes"),
    # Each state's features dotted with the packed weights: <psi| |T_xi| |psi>.
    ("packed-overlaps", _grid((1, 2, 3, 5, 16), ("rotated",), ("haar-random",), 60, states=20),
     lambda c: np.array([oracles.pack_state(psi) for psi in c.states]) @ c.setup.transfer_abs_packed.T,
     lambda c: np.einsum("xij,nj,ni->nx", oracles.transfer_abs(c.setup.transfer_ops), c.states,
                         c.states.conj()).real, 1e-14),
    # One state at a time against the strided contraction over xi.
    ("identity-residual", _grid((1, 2, 3, 5, 8, 16), _BELL_PRODUCT_ROTATED, ("haar-random",), 600, states=200),
     lambda c: [verify_identity(psi, c.setup) for psi in c.states],
     lambda c: [oracles.identity_residual_strided(psi, c.basis.vectors(), c.setup.transfer_ops,
                                                  c.setup.shared.vector) for psi in c.states], "equal"),
    # verify_identity's chunks, and one state alone (a float).
    ("identity-chunks", _grid((1, 2, 3, 5, 8, 16), (*_BELL_PRODUCT_ROTATED, "random"), ("haar-random",), 700),
     _chunked_residuals, _per_trial_residuals, "equal"),
    # T_xi psi of rows from T, and of one state from the _rows_per_block blocks of
    # fresh T_xi that teleport._probabilities reads, against each T_xi @ v; from
    # d = 17 one state's outcomes span several blocks.
    ("transfer-images", _grid((1, 2, 3, 5, 8, 16, 24, 32), _BELL_PRODUCT_ROTATED, ("haar-random",), 900, states=3),
     lambda c: (teleport._transfer_images(c.states, c.setup.transfer_ops),
                np.array([_block_images(v, c.setup) for v in c.states])),
     lambda c: (np.array([[t @ v for t in c.setup.transfer_ops] for v in c.states]),) * 2, "equal"),
    # size=n is a list of n per-shot draws and leaves the generator where they do.
    # On seed 16 the product resource and basis at d = 2 give probabilities
    # (p, 0, 1 - p, 0) whose CDF ends below 1: a draw past it takes xi = 2.
    ("sample-outcome", _grid((1, 2, 3, 4), _BELL_PRODUCT_ROTATED, _CLI_RESOURCES, 1000, states=1)
     + [Spec(2, "product", "product", 16, states=1)],
     lambda c: _sampling(c, lambda rng, size: _shots(sample_outcome(c.states[0], c.setup, rng, size=size))),
     lambda c: _sampling(c, lambda rng, size: _per_shot(c, rng, size)), "equal"),
    # One stacked SVD against one per T_xi, and the polar factor U V^dag of each.
    ("polar-unitary", _grid((1, 2, 3, 8), (*_BELL_PRODUCT_ROTATED, "random"), ("haar-random",), 1200),
     lambda c: polar_unitary(c.setup.transfer_ops),
     lambda c: np.array([u @ vh for u, _, vh in map(np.linalg.svd, c.setup.transfer_ops)]), "bytes"),
    # Every record against the outcome alone: states "bytes", the rest "equal".
    # From d = 17 the corrections span several blocks of outcomes, and the
    # product resource gives zero-outcome sentinels.
    ("outcome-records", _grid((1, 2, 3, 8, 17, 24), (*_BELL_PRODUCT_ROTATED, "random"), ("haar-random", "product"),
                              1100, states=1),
     _records, _records_per_outcome, ("equal", "equal", "bytes", "bytes", "equal")),
    ("fidelity-batch", _grid(range(1, 7), _BELL_PRODUCT_ROTATED, _CLI_RESOURCES, 1000),
     lambda c: _fidelities(c, _block_counts(c.d)), lambda c: _fidelities(c, _block_counts(c.d), True), 1e-14),
    # The benchmark's d = 16 (average-mc) and d = 32 (fidelity-setup).
    ("fidelity-batch-bench", _grid((16, 32), ("bell", "rotated"), ("haar-random",), 1000),
     lambda c: _fidelities(c, (300,)), lambda c: _fidelities(c, (300,), True), 1e-14),
    # The oracle is the package's one-state path: GEMM blocking depends on the
    # row count, so a 40-row batch need not have its bits.
    ("fidelity-one-state", [Spec(3, "bell", "haar-random", 20, states=40)],
     lambda c: state_fidelity_batch(c.states, c.setup),
     lambda c: np.array([state_fidelity(psi, c.setup) for psi in c.states]), 1e-14),
    # The Bell stack built at once against one filled element by element.
    ("bell-elements", [Spec(d, "bell", None, 0) for d in (1, 2, 3, 4, 5, 6, 8, 16, 32)],
     lambda c: c.basis.elements, lambda c: oracles.bell_elements_double_loop(c.d), "bytes"),
    # The element vectors verify_identity contracts over xi: transposed, and
    # cached as a C-contiguous read-only copy.
    ("vectors-t", _grid((1, 2, 3, 5, 8, 16), _BELL_PRODUCT_ROTATED, (None,), 31),
     lambda c: (c.basis.vectors_t, c.basis.vectors_t.flags.c_contiguous, c.basis.vectors_t.flags.writeable,
                c.basis.vectors_t is c.basis.vectors_t),
     lambda c: (c.basis.elements.reshape(c.d**2, -1).T, True, False, True), "equal"),
    # One stacked SVD against one per element, in xi order.
    ("element-spectra", _ELEMENT_SPECS, lambda c: np.linalg.svd(c.basis.elements, compute_uv=False),
     lambda c: oracles.element_shape_per_element(c.basis.elements)[0], "bytes"),
    # The rule along the stack against the rule per spectrum (a bool and an int),
    # and the basis's (all flat, all rank one) as Python bools.
    ("element-shape", _ELEMENT_SPECS,
     lambda c: (tuple(zip(*(a.tolist() for a in schmidt_shape(np.linalg.svd(c.basis.elements, compute_uv=False))))),
                c.basis.element_shape), _element_shape_per_element, "equal"),
    # The closed form read off the stacks' cached facts, for the analytic value and
    # for Monte Carlo, against one SVD per matrix.
    ("special-case",
     _grid(range(1, 6), _BELL_PRODUCT_ROTATED, ("haar-random", "random-product", "maximally-entangled"), 40),
     lambda c: (special_case_fidelity(c.setup)[0].value,
                monte_carlo_fidelity(c.setup, 100, np.random.default_rng(c.d)).special_case.value),
     lambda c: (oracles.special_case_label(c.basis.elements, c.setup.shared.operator_form),) * 2, "equal"),
    # Nine states in one draw, and nine haar_state calls, against nine single draws.
    ("trial-states", _grid((1, 2, 8, 64), (None,), (None,), 0), _trial_draws,
     lambda c: (np.array([oracles.haar_states_gaussian(c.rng, c.d, 1)[0] for _ in range(9)]),
                c.rng.bit_generator.state) * 2, "equal"),
    # The CLI's reports against the oracle's shots and residuals as printed.
    ("cli-teleport", [Spec(3, basis, resource, seed, states=1) for seed in (5, 11)
                      for basis, resource in (("bell", "haar-random"), ("product", "product"))],
     _transcripts, _transcripts_per_shot, "equal"),
    ("cli-verify", [Spec(d, "bell", "haar-random", 5) for d in (2, 3, 8, 16)],
     _worst_residual, _worst_residual_per_trial, "equal"),
]


@pytest.mark.parametrize("batched, oracle, kind, spec", [
    pytest.param(batched, oracle, kind, spec,
                 id="-".join([row_id, f"d{spec.d}", *filter(None, spec[1:3]), f"s{spec.seed}"]))
    for row_id, specs, batched, oracle, kind in _ROWS for spec in specs])
def test_batched_path_matches_its_oracle(batched, oracle, kind, spec):
    case = build(spec)
    assert matches(batched(case), oracle(case), kind)  # only the oracle reads on from case.rng


def test_d24_outcomes_end_in_a_partial_block():
    assert (24 * 24) % teleport._rows_per_block(24) != 0


_PROBES = {"transfer-ops": Spec(2, "product", "haar-random", 82), "element-spectra": Spec(2, "product", None, 33),
           "fidelity-one-state": Spec(3, "bell", "haar-random", 20, states=40)}


@pytest.mark.parametrize("row_id", _PROBES)
def test_the_assertion_rejects_a_moved_value_shape_or_type(row_id):
    # Moved: the sign of a zero flipped ("bytes"), or an entry an ulp ("equal") or twice the tolerance away.
    _, _, batched, oracle, kind = next(row for row in _ROWS if row[0] == row_id)
    case = build(_PROBES[row_id])
    got, want = batched(case), oracle(case)
    moved = np.array(got)
    entries = moved.view(float).reshape(-1)
    k = np.flatnonzero(entries == 0)[0] if kind == "bytes" else 0
    moves = {"bytes": -entries[k], "equal": np.nextafter(entries[k], np.inf)}
    entries[k] = moves[kind] if kind in moves else entries[k] + 2 * kind
    assert matches(got, want, kind)
    for wrong in (moved, got[None], got.tolist()):
        assert not matches(wrong, want, kind)
