"""The work each call does, one row each.

Every number the lab prints comes from the transfer operators T_xi and their
SVDs, so a call's cost is how many T_xi, SVDs and basis checks it makes and
which cached stacks it builds.  Each row of ``_ROWS`` is an id, a setup run in
a fresh directory before the measurement (it gives the call's input), the
measured call, what the call must return, so that a refused or empty call
cannot pass, and the exact counts of the counters it names, checked by one
assertion through :func:`work`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import oracles
from teleportlab import (
    BasisStructureError, BipartiteState, OperatorBasis, SpecialCase, TeleportSetup, analyze_entanglement,
    average_fidelity_analytic, basis_state, bell_basis, build_setup, custom_basis, enumerate_outcomes,
    maximally_entangled_state, monte_carlo_fidelity, outcome_probabilities, product_basis, product_state,
    random_shared_state, realize_outcome, rotated_basis, sample_outcome, special_case_fidelity,
)
from teleportlab import bases, cli, teleport
from teleportlab.cli import main, save_basis_file

# Counter -> (owner, attribute, the amount a call adds from its arguments and result,
# or None to count calls alone); a counter with an amount reads (calls, total amount).
_COUNTERS = {
    "svd": (np.linalg, "svd", lambda args, result: math.prod(np.shape(args[0])[:-2])),  # matrices
    "transfer_block": (TeleportSetup, "_transfer_block", lambda args, result: len(result)),  # T_xi formed
    "validate_basis": (teleport, "validate_basis", None),
    "build_setup": (cli, "build_setup", None),
    "verify_identity": (cli, "verify_identity", None),
    "format_scalar": (cli, "_format_scalar", None),
    "read_only": (bases, "read_only", lambda args, result: result is args[0]),  # stacks kept uncopied
}


def work(call):
    """Run ``call()`` with the ``_COUNTERS`` functions and the builders of a
    setup's cached stacks wrapped; (its result, {counter: what the call did}),
    where counter "built" reads the stacks the call built, sorted."""
    tallies = {name: [0, 0] for name in _COUNTERS}
    built = []

    def counted(name, function, amount):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            tallies[name][0] += 1
            tallies[name][1] += amount(args, result) if amount else 0
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name, (owner, attribute, amount) in _COUNTERS.items():
            patch.setattr(owner, attribute, counted(name, getattr(owner, attribute), amount))
        for name in ("transfer_ops", "transfer_trace_norms", "transfer_abs_packed"):
            build = vars(TeleportSetup)[name].func
            stack = functools.cached_property(lambda setup, name=name, build=build: built.append(name) or build(setup))
            stack.__set_name__(TeleportSetup, name)
            patch.setattr(TeleportSetup, name, stack)
        result = call()
    done = {name: tuple(tally) if _COUNTERS[name][2] else tally[0] for name, tally in tallies.items()}
    return result, {**done, "built": tuple(sorted(built))}


class Row(NamedTuple):
    id: str
    setup: Callable  # () -> the call's input
    call: Callable  # the input -> the result, measured
    returns: Callable  # the result -> whether the call did its work
    counts: dict  # counter -> the exact count


def _main(row_id, argv, counts, basis=None, returns=lambda code: code == 0):
    """A row of ``main(argv)``, with ``basis`` written to basis.json if given."""
    def setup():
        if basis is not None:
            save_basis_file("basis.json", basis)
        return [*argv.split(), "--no-timestamp"]
    return Row(f"main-{row_id}", setup, main, returns, counts)


def _build(d):
    """build_setup of the maximally entangled resource and the given basis: (whether the
    basis is marked built-in, whether the setup holds it or the BasisStructureError's text)."""
    def call(basis):
        try:
            return basis.built_in, build_setup(maximally_entangled_state(d), basis).basis is basis
        except BasisStructureError as exc:
            return basis.built_in, str(exc)
    return call


# Only bell_basis and product_basis mark what they return.  Their elements wrapped any other
# way are checked by build_setup once, and refused with element 1 scaled by 1.01.
_WRAPPINGS = {"constructor": functools.partial(OperatorBasis, 3), "custom": custom_basis,
              "rotated": lambda elements: rotated_basis(OperatorBasis(3, elements), np.eye(9)),
              "replace": lambda elements: dataclasses.replace(bell_basis(3), elements=elements)}
_STRETCHED = bell_basis(3).elements * np.array([1, 1.01] + [1] * 7)[:, None, None]


def _haar_setup(seed):
    return build_setup(random_shared_state(3, np.random.default_rng(seed)), bell_basis(3))


def _detected(seed):
    """A setup's resource after its closed form has run."""
    setup = _haar_setup(seed)
    special_case_fidelity(setup)
    return setup.shared


def _sharing_a_basis():
    # The Bell elements reversed: a rotated basis measures its shape, a built-in one holds it preset.
    basis, rng = rotated_basis(bell_basis(3), np.eye(9)[::-1]), np.random.default_rng(70)
    return [build_setup(random_shared_state(3, rng), basis) for _ in range(2)]


def _formation_case(case, d):
    """An input and a setup: a Bell basis with a Haar resource, or the product
    basis with the resource |00>, where T_xi psi = psi_j |0> for xi = j d and
    0 for every other xi, so zero outcomes sit between live ones; for the
    input |d - 1> only xi = d (d - 1) is live, and most blocks have none."""
    rng = np.random.default_rng(d)
    if case == "bell-haar":
        shared = BipartiteState.from_vector(oracles.haar_states_gaussian(rng, d * d, 1)[0])
        return oracles.haar_states_gaussian(rng, d, 1)[0], build_setup(shared, bell_basis(d))
    psi = oracles.haar_states_gaussian(rng, d, 1)[0] if case == "product" else basis_state(d, d - 1)
    return psi, build_setup(product_state(basis_state(d, 0), basis_state(d, 0)), product_basis(d))


# The live outcomes of each _formation_case, and how many distinct ones 2,000 shots at seed d draw.
_LIVE = {"bell-haar": lambda d: range(d * d), "product": lambda d: range(0, d * d, d),
         "product-one-live": lambda d: [d * (d - 1)]}
_DISTINCT = {(2, "bell-haar"): 4, (2, "product"): 2, (17, "bell-haar"): 287, (17, "product"): 17,
             (24, "bell-haar"): 557, (24, "product"): 23}


def _outcome_rows(d, case):
    """Each outcome path forms each record's T_xi once, the probabilities in
    ``_rows_per_block`` blocks and the records in quarter blocks, and only a
    block of records with a live outcome takes an SVD."""
    n, live, distinct = d * d, list(_LIVE[case](d)), _DISTINCT.get((d, case), 1)
    rows, quarter = teleport._rows_per_block(d), max(1, teleport._rows_per_block(d) // 4)
    given = functools.partial(_formation_case, case, d)
    yield Row(f"enumerate-outcomes-d{d}-{case}", given, lambda args: enumerate_outcomes(*args),
              lambda records: [r.xi for r in records] == list(range(n))
              and [r.xi for r in records if r.probability > 0] == live,
              dict(transfer_block=(math.ceil(n / quarter), n), svd=(len({xi // quarter for xi in live}), len(live)),
                   built=()))
    yield Row(f"outcome-probabilities-d{d}-{case}", given, lambda args: outcome_probabilities(*args),
              lambda probs: math.isclose(probs.sum(), 1) and np.flatnonzero(probs).tolist() == live,
              dict(transfer_block=(math.ceil(n / rows), n), svd=(0, 0), built=()))
    for xi in [live[0], *[xi for xi in range(n) if xi not in live][:1]]:
        yield Row(f"realize-{'live' if xi in live else 'zero'}-outcome-d{d}-{case}", given,
                  lambda args, xi=xi: realize_outcome(*args, xi),
                  lambda record, xi=xi: record.xi == xi and (record.probability > 0) == (xi in live),
                  dict(transfer_block=(1, 1), svd=(int(xi in live),) * 2, built=()))
    yield Row(f"sample-outcome-d{d}-{case}", given,
              lambda args: sample_outcome(*args, np.random.default_rng(d), size=2000),
              lambda shots: len(shots) == 2000 and len(xis := {s.xi for s in shots}) == distinct and xis <= set(live),
              dict(transfer_block=(math.ceil(n / rows) + math.ceil(distinct / quarter), n + distinct),
                   svd=(math.ceil(distinct / quarter), distinct), built=()))


_ROWS = [
    # d = 2, Bell basis, Haar resource: 1 SVD for the resource's Schmidt
    # spectrum and 4 for the transfers' singular values, whose row sums are
    # the trace norms, all 4 outcomes in one block: 5 matrices take 2 calls.
    # The Bell element shape is preset by its builder; neither T nor |T| is built.
    _main("fidelity-d2", "fidelity --d 2 --shared haar-random",
          dict(svd=(2, 5), validate_basis=0, built=("transfer_trace_norms",))),
    # d = 32: one call per _rows_per_block block of 64 outcomes, so 1,025 matrices take 17 calls.
    _main("fidelity-d32", "fidelity --d 32 --shared haar-random",
          dict(svd=(17, 1025), built=("transfer_trace_norms",))),
    # Plus one stacked SVD of the 4 T_xi for the Monte-Carlo kernel's packed |T|.
    _main("average-d2", "average --d 2 --shared haar-random --samples 100",
          dict(svd=(3, 9), built=("transfer_abs_packed", "transfer_trace_norms"))),
    # Only the correction of each distinct drawn xi takes an SVD, and no stack
    # is built.  Seven shots at seed 0 draw two distinct outcomes, and a block
    # holds _rows_per_block(2) // 4 = 4096 of them: one call over two.  500
    # shots at d = 12 draw 138 of the 144, and a block holds 455 // 4 = 113:
    # 113 + 25 in two calls.
    _main("teleport-0-shots-d2", "teleport --d 2 --samples 0", dict(svd=(0, 0), built=())),
    _main("teleport-7-shots-d2", "teleport --d 2 --samples 7", dict(svd=(1, 2), built=())),
    _main("teleport-500-shots-d12", "teleport --d 12 --samples 500", dict(svd=(2, 138), built=())),
    # Each distinct transcript row is formatted once per column, never a cell
    # per shot, plus 8 meta lines: 20,000 shots draw all 4 outcomes, so 4 x 9 + 8.
    *(_main(f"teleport-20000-shots-{fmt}-d2", f"teleport --d 2 --shared haar-random --samples 20000 --format {fmt}",
            dict(format_scalar=4 * len(cli.TRANSCRIPT_COLUMNS) + 8)) for fmt in ("csv", "json")),
    # The setup is built once, and a basis file is checked once, inside
    # build_setup, without an SVD; a built-in basis is never checked, and the
    # CLI holds no check of its own.  One chunk holds all 20 trials.
    _main("verify-bell-d3", "verify --d 3 --shared haar-random --samples 20",
          dict(build_setup=1, validate_basis=0, verify_identity=1, built=("transfer_ops",)),
          returns=lambda code: code == 0 and not hasattr(cli, "validate_basis")),
    _main("verify-product-d3", "verify --d 3 --basis product --samples 5", dict(build_setup=1, validate_basis=0)),
    _main("verify-custom-basis-d3", "verify --d 3 --basis custom --basis-file basis.json",
          dict(svd=(0, 0)), basis=bell_basis(3)),
    _main("verify-custom-basis-5-samples-d3", "verify --d 3 --basis custom --basis-file basis.json --samples 5",
          dict(build_setup=1, validate_basis=1), basis=bell_basis(3)),
    *(Row(f"build-setup-{way}-bell-d3", functools.partial(wrap, bell_basis(3).elements), _build(3),
          lambda result: result == (False, True), dict(validate_basis=1)) for way, wrap in _WRAPPINGS.items()),
    *(Row(f"build-setup-{way}-stretched-d3", functools.partial(wrap, _STRETCHED), _build(3),
          lambda result: result[0] is False and result[1].startswith("basis is not orthonormal and complete"),
          dict(validate_basis=1)) for way, wrap in _WRAPPINGS.items()),
    *(Row(f"build-setup-{make.__name__.replace('_', '-')}-d2", functools.partial(make, 2), _build(2),
          lambda result: result == (True, True), dict(validate_basis=0, built=()))
      for make in (bell_basis, product_basis)),
    # A builder's own stack, and a rotation's or a custom basis's fresh one, is kept, not copied.
    Row("bell-basis-d3", lambda: 3, bell_basis, lambda basis: basis.built_in, dict(read_only=(1, 1))),
    Row("product-basis-d3", lambda: 3, product_basis, lambda basis: basis.built_in, dict(read_only=(1, 1))),
    Row("rotated-basis-d3", lambda: bell_basis(3), lambda basis: rotated_basis(basis, np.eye(9)),
        lambda basis: basis.elements.shape == (9, 3, 3), dict(read_only=(1, 1))),
    Row("custom-basis-d2", lambda: np.eye(4).reshape(4, 2, 2), custom_basis,
        lambda basis: basis.local_dim == 2, dict(read_only=(1, 1))),
    # The trace norms, and the packed |T|, read fresh blocks of T_xi: T is never built.
    Row("average-fidelity-analytic-d3", lambda: _haar_setup(72), average_fidelity_analytic,
        lambda value: 0.5 <= value <= 1, dict(built=("transfer_trace_norms",))),
    Row("monte-carlo-fidelity-d3", lambda: _haar_setup(73),
        lambda setup: monte_carlo_fidelity(setup, 100, np.random.default_rng(0)),
        lambda result: result.samples == 100, dict(built=("transfer_abs_packed", "transfer_trace_norms"))),
    # The element shape is cached on the basis, not on each setup: two resources in one
    # basis cost 2 resource SVDs and d^2 element SVDs in one stacked call, not 2 (1 + d^2).
    Row("special-case-fidelity-sharing-a-basis-d3", _sharing_a_basis,
        lambda setups: [special_case_fidelity(setup)[0] for setup in setups],
        lambda cases: cases == [SpecialCase.MAXENT_BASIS] * 2, dict(svd=(3, 2 + 9))),
    # The Schmidt spectrum is cached on the state: reporting on a setup's
    # resource after the closed form runs no SVD.
    Row("analyze-entanglement-after-closed-form-d3", lambda: _detected(71),
        lambda shared: (analyze_entanglement(shared), shared),
        lambda result: result[0].schmidt_coefficients is result[1].schmidt_coefficients, dict(svd=(0, 0))),
    *(row for d in (2, 17, 24) for case in _LIVE for row in _outcome_rows(d, case)),
]


@pytest.mark.parametrize("row", _ROWS, ids=[row.id for row in _ROWS])
def test_each_row_does_its_pinned_work(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    given = row.setup()
    result, done = work(lambda: row.call(given))
    assert (bool(row.returns(result)), {name: done[name] for name in row.counts}) == (True, row.counts)
