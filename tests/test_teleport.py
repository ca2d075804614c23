"""Tests for transfer operators, the identity, and the protocol."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from teleportlab import (
    DimensionError,
    OperatorBasis,
    BipartiteState,
    EntanglementClass,
    SpecialCase,
    TeleportSetup,
    analyze_entanglement,
    basis_state,
    bell_basis,
    build_setup,
    custom_basis,
    dagger,
    enumerate_outcomes,
    maximally_entangled_state,
    normalize_state,
    optimal_correction,
    outcome_probabilities,
    product_basis,
    product_state,
    realize_outcome,
    rotated_basis,
    sample_outcome,
    special_case_fidelity,
    state_fidelity,
    validate_basis,
    verify_identity,
)
from teleportlab import linalg, teleport


def _random_shared(rng, d):
    return BipartiteState.from_vector(oracles.haar_states_gaussian(rng, d * d, 1)[0])


def _random_psi(rng, d):
    return oracles.haar_states_gaussian(rng, d, 1)[0]


def _ideal_setup(d):
    return build_setup(maximally_entangled_state(d), bell_basis(d))


# ----------------------------------------------------------------------
# setup structure


def _straddling_spectra(d):
    # Relative spreads and tail values k * RANK_TOL on both sides of 1, so
    # every spectrum sits just inside or just outside the flat and the
    # rank-one threshold.
    for k in (0.5, 0.9, 1.1, 1.3, 2.0):
        yield np.linspace(1.0, 1.0 - k * oracles.RANK_TOL, d)
        tail = np.full(d, k * oracles.RANK_TOL)
        tail[0] = 1.0
        yield tail


@pytest.mark.parametrize("d", [2, 3, 4])
def test_element_shape_and_labels_agree_with_entanglement_classification(d):
    # One rule for resources and basis elements.  A basis whose elements all
    # have spectrum s has analyze_entanglement's flat and rank-one verdicts
    # on s as its element_shape (the elements need not be orthonormal); a
    # resource with spectrum s, measured in the Bell basis, is labelled ideal
    # iff flat, product-shared iff rank one, and maxent-basis otherwise.
    for s in _straddling_spectra(d):
        state = BipartiteState.from_vector(normalize_state(np.diag(s.astype(complex)).ravel()))
        report = analyze_entanglement(state)
        flat = report.classification is EntanglementClass.MAXIMALLY_ENTANGLED
        rank_one = report.rank == 1
        assert custom_basis([state.operator_form] * (d * d)).element_shape == (flat, rank_one)
        case, _ = special_case_fidelity(TeleportSetup(state, bell_basis(d)))
        assert (case is SpecialCase.IDEAL) == flat
        assert (case is SpecialCase.PRODUCT_SHARED) == rank_one
        assert (case is SpecialCase.MAXENT_BASIS) == (not flat and not rank_one)


def test_build_setup_refuses_a_setup_over_the_dense_size_limit(monkeypatch):
    # Four d^4-entry stacks at d = 4 are 1,024 entries.  Over a limit of
    # 1,000 the setup is refused, by build_setup and by the constructor
    # itself, before the basis check; at a limit of 1,024 it is built.
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard must run first")

    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 1000)
    monkeypatch.setattr(teleport, "validate_basis", unreachable)
    for construct in (build_setup, TeleportSetup):
        with pytest.raises(DimensionError, match="a setup for d = 4 at peak needs 1,024 complex"):
            construct(maximally_entangled_state(4), bell_basis(4))
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 1024)
    assert TeleportSetup(maximally_entangled_state(4), bell_basis(4)).transfer_abs_packed.shape == (16, 16)


def test_the_built_in_mark_is_not_a_constructor_argument():
    # A caller cannot claim the mark; that a builder's own basis is never
    # checked is the build-setup-*-basis-d2 rows of tests/test_work.py.
    for make in (bell_basis, product_basis):
        basis = make(2)
        with pytest.raises(TypeError, match="built_in"):
            OperatorBasis(2, basis.elements, built_in=True)
        with pytest.raises(ValueError, match="built_in"):
            dataclasses.replace(basis, built_in=True)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ideal_transfers_have_flat_absolute_value(d):
    setup = _ideal_setup(d)
    for t_abs in oracles.transfer_abs(setup.transfer_ops):
        np.testing.assert_allclose(t_abs, np.eye(d) / d, atol=1e-12)


def test_product_shared_gives_rank_one_transfers():
    rng = np.random.default_rng(2)
    shared = product_state(oracles.random_complex(rng, 3), oracles.random_complex(rng, 3))
    for basis in (bell_basis(3), product_basis(3)):
        setup = build_setup(shared, basis)
        for t in setup.transfer_ops:
            s = np.linalg.svd(t, compute_uv=False)
            assert np.all(s[1:] <= 1e-10)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_transfer_trace_sum_is_d_for_normalized_shared(d):
    # sum_xi Tr(T_xi^dag T_xi) = d * Tr(C^dag C) = d; the completeness
    # relation applied to the conjugated resource fixes the factor d.
    rng = np.random.default_rng(30 + d)
    for basis in (bell_basis(d), product_basis(d)):
        setup = build_setup(_random_shared(rng, d), basis)
        total = sum(np.trace(dagger(t) @ t).real for t in setup.transfer_ops)
        assert total == pytest.approx(d, abs=1e-10)


def test_value_objects_hold_read_only_arrays():
    # Built from writable inputs, none of the stored arrays can be written.
    # Shots with the same xi share one outcome, so writing its states would
    # change every such shot; a zero-probability outcome holds one sentinel.
    shared = BipartiteState(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2))
    basis = OperatorBasis(local_dim=2, elements=bell_basis(2).elements.copy())
    setup = build_setup(shared, basis)
    sampled = sample_outcome(basis_state(2, 0), setup, np.random.default_rng(0))
    product_setup = build_setup(product_state([1, 0], [1, 0]), product_basis(2))
    impossible = realize_outcome(basis_state(2, 1), product_setup, 0)
    assert impossible.probability == 0.0 and impossible.raw_conditional_state is impossible.corrected_state
    for arr in (shared.vector, shared.operator_form, basis.elements, setup.transfer_ops,
                setup.transfer_abs_packed, setup.transfer_trace_norms,
                sampled.raw_conditional_state, sampled.corrected_state, impossible.corrected_state):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    assert setup.local_dim == 2
    assert setup.transfer_abs_packed is setup.transfer_abs_packed
    assert setup.transfer_abs_packed.shape == (4, 4)
    assert setup.transfer_abs_packed.dtype == float and setup.transfer_abs_packed.flags.c_contiguous


def test_setup_stores_its_resource_and_basis_and_derives_the_rest():
    # T and |T| are built from the two stored inputs on first read and cached.
    setup = build_setup(maximally_entangled_state(2), bell_basis(2))
    assert [field.name for field in dataclasses.fields(TeleportSetup)] == ["shared", "basis"]
    assert setup.transfer_abs_packed is setup.transfer_abs_packed
    assert not hasattr(setup, "transfer_abs")
    assert setup.transfer_ops is setup.transfer_ops


def test_value_objects_compare_and_hash_by_identity():
    # Array-holding value objects compare and hash by identity, so they can
    # be compared and collected in sets; scalar-only reports keep value
    # equality.
    state, other = maximally_entangled_state(2), maximally_entangled_state(2)
    assert state == state and state != other and hash(state) == hash(state)
    basis = bell_basis(2)
    assert basis != bell_basis(2)
    setup = build_setup(state, basis)
    report = analyze_entanglement(state)
    assert len({state, other, basis, setup, report, report}) == 5
    outcomes = sample_outcome(basis_state(2, 0), setup, np.random.default_rng(3), size=3)
    assert len(set(outcomes)) == len({outcome.xi for outcome in outcomes})
    assert validate_basis(basis) == validate_basis(basis)


# ----------------------------------------------------------------------
# the identity


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_identity_holds_for_random_setups(d):
    rng = np.random.default_rng(50 + d)
    bases = [
        bell_basis(d),
        product_basis(d),
        rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d)),
    ]
    for basis in bases:
        setup = build_setup(_random_shared(rng, d), basis)
        for _ in range(5):
            assert verify_identity(_random_psi(rng, d), setup) < 1e-10


def test_identity_ideal_qubit_case_tight():
    setup = _ideal_setup(2)
    assert verify_identity(basis_state(2, 0), setup) < 1e-12


def test_identity_explicit_eight_component_vectors():
    # hand-built two-qubit check: psi = |0>, resource I/sqrt(2), Bell
    # measurement.  Both sides assembled here, independent of
    # verify_identity internals.
    d = 2
    basis = bell_basis(d)
    c = np.eye(d) / math.sqrt(d)
    psi = np.array([1.0, 0.0], dtype=complex)
    lhs = np.kron(psi, c.reshape(-1))
    expected_lhs = np.array([1, 0, 0, 1, 0, 0, 0, 0]) / math.sqrt(2)
    np.testing.assert_allclose(lhs, expected_lhs, atol=1e-15)
    rhs = np.zeros(8, dtype=complex)
    for el in basis.elements:
        t = c.T @ oracles.dagger(el)
        rhs += np.kron(el.reshape(-1), t @ psi)
    np.testing.assert_allclose(rhs, expected_lhs, atol=1e-14)
    setup = build_setup(BipartiteState.from_operator(c), basis)
    assert verify_identity(psi, setup) < 1e-12


def test_identity_fails_for_corrupted_basis():
    elements = bell_basis(2).elements.copy()
    elements[0] = 1.01 * elements[0]
    corrupted = OperatorBasis(local_dim=2, elements=elements)
    setup = TeleportSetup(maximally_entangled_state(2), corrupted)
    assert verify_identity(basis_state(2, 0), setup) > 1e-3


# ----------------------------------------------------------------------
# probabilities and sampling


def test_ideal_probabilities_are_uniform():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        setup = _ideal_setup(d)
        for _ in range(20):
            probs = outcome_probabilities(_random_psi(rng, d), setup)
            np.testing.assert_allclose(probs, np.full(d * d, 1 / d**2), atol=1e-10)


def test_probabilities_concentrate_for_classical_setup():
    # resource |0>⊗|0>, product measurement, input |1>: brute force over
    # all four outcomes says only (j, k) = (1, 0), flat index 2, fires.
    setup = build_setup(product_state([1, 0], [1, 0]), product_basis(2))
    psi = basis_state(2, 1)
    expected = np.zeros(4)
    for j in range(2):
        for k in range(2):
            el = np.zeros((2, 2), dtype=complex)
            el[j, k] = 1.0
            t = np.outer([1, 0], [1, 0]).T @ oracles.dagger(el)
            expected[j * 2 + k] = np.linalg.norm(t @ psi) ** 2
    np.testing.assert_allclose(expected, [0, 0, 1, 0], atol=1e-14)
    np.testing.assert_allclose(outcome_probabilities(psi, setup), expected, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_probabilities_sum_to_one(d):
    rng = np.random.default_rng(90 + d)
    setup = build_setup(_random_shared(rng, d), bell_basis(d))
    for _ in range(10):
        assert outcome_probabilities(_random_psi(rng, d), setup).sum() == pytest.approx(
            1.0, abs=1e-10
        )


def test_sampling_frequencies_match_uniform_law():
    setup = _ideal_setup(2)
    rng = np.random.default_rng(1234)
    psi = _random_psi(rng, 2)
    draws = 40000
    counts = np.zeros(4)
    for outcome in sample_outcome(psi, setup, rng, size=draws):
        counts[outcome.xi] += 1
    p = 0.25
    sigma = math.sqrt(draws * p * (1 - p))  # binomial standard error
    assert np.all(np.abs(counts - draws * p) <= 3 * sigma)


def test_sampling_concentrated_distribution():
    setup = build_setup(product_state([1, 0], [1, 0]), product_basis(2))
    psi = basis_state(2, 1)
    rng = np.random.default_rng(77)
    for _ in range(50):
        assert sample_outcome(psi, setup, rng).xi == 2


def test_ideal_outcomes_have_perfect_conditional_fidelity():
    rng = np.random.default_rng(6)
    setup = _ideal_setup(3)
    for _ in range(30):
        outcome = sample_outcome(_random_psi(rng, 3), setup, rng)
        assert outcome.conditional_fidelity == pytest.approx(1.0, abs=1e-10)


def test_sampling_is_deterministic_per_seed():
    rng = np.random.default_rng(13)
    setup = build_setup(_random_shared(rng, 3), bell_basis(3))
    psi = _random_psi(rng, 3)
    rng_a = np.random.default_rng(42)
    transcript_a = [sample_outcome(psi, setup, rng_a).xi for _ in range(20)]
    rng_b = np.random.default_rng(42)
    transcript_b = [sample_outcome(psi, setup, rng_b).xi for _ in range(20)]
    assert transcript_a == transcript_b


# ----------------------------------------------------------------------
# correction and fidelity


def test_correction_of_positive_transfer_acts_as_identity_on_support():
    t = np.diag([0.7, 0.0])
    u = optimal_correction(t)
    # U^dag T = |T| regardless of how the null space is completed
    np.testing.assert_allclose(u @ t, np.diag([0.7, 0.0]), atol=1e-10)


def test_correction_of_scaled_unitary_transfer():
    rng = np.random.default_rng(14)
    v = oracles.random_unitary(rng, 3)
    t = v / 3.0
    np.testing.assert_allclose(optimal_correction(t), oracles.dagger(v), atol=1e-12)


def test_correction_consistency_raw_vs_absolute_value():
    rng = np.random.default_rng(15)
    for d in (2, 3, 5):
        setup = build_setup(_random_shared(rng, d), bell_basis(d))
        psi = _random_psi(rng, d)
        transfer_abs = oracles.transfer_abs(setup.transfer_ops)
        for outcome in enumerate_outcomes(psi, setup):
            if outcome.probability <= 1e-24:
                continue
            t_abs = transfer_abs[outcome.xi]
            reference = t_abs @ psi
            reference = reference / np.linalg.norm(reference)
            overlap = abs(np.vdot(reference, outcome.corrected_state)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_no_fixed_correction_beats_polar_on_haar_average():
    # A recovery unitary W chosen without knowing psi achieves
    # Haar-average branch fidelity (Tr(T T^dag) + |Tr(W T)|^2) / (d(d+1));
    # the polar correction attains the trace-norm maximum of the second
    # term, so no W can exceed it.
    rng = np.random.default_rng(16)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        t = oracles.random_complex(rng, (d, d))
        nuclear = np.linalg.svd(t, compute_uv=False).sum()
        hs = np.linalg.norm(t) ** 2
        optimal_avg = (hs + nuclear**2) / (d * (d + 1))
        for _ in range(20):
            w = oracles.random_unitary(rng, d)
            assert abs(np.trace(w @ t)) <= nuclear + 1e-12
            candidate_avg = (hs + abs(np.trace(w @ t)) ** 2) / (d * (d + 1))
            assert candidate_avg <= optimal_avg + 1e-12
        # the polar correction itself attains the bound
        u = optimal_correction(t)
        assert abs(np.trace(u @ t)) == pytest.approx(nuclear, abs=1e-10)


def test_state_fidelity_is_one_for_ideal_setup():
    rng = np.random.default_rng(18)
    for d in (2, 4):
        setup = _ideal_setup(d)
        for _ in range(20):
            assert state_fidelity(_random_psi(rng, d), setup) == pytest.approx(1.0, abs=1e-10)


def test_state_fidelity_matches_outcome_enumeration():
    rng = np.random.default_rng(19)
    for d in (2, 3):
        setup = build_setup(_random_shared(rng, d), bell_basis(d))
        psi = _random_psi(rng, d)
        total = sum(
            o.probability * o.conditional_fidelity for o in enumerate_outcomes(psi, setup)
        )
        assert state_fidelity(psi, setup) == pytest.approx(total, abs=1e-10)


def test_classical_setup_teleports_basis_states_perfectly():
    # measuring in the computational basis and re-preparing reproduces a
    # basis state exactly: F = sum_j |<psi|j>|^4 = 1 for psi = |0>
    setup = build_setup(product_state([1, 0], [1, 0]), product_basis(2))
    assert state_fidelity(basis_state(2, 0), setup) == pytest.approx(1.0, abs=1e-12)


def test_zero_probability_outcome_sentinel():
    setup = build_setup(product_state([1, 0], [1, 0]), product_basis(2))
    psi = basis_state(2, 1)
    impossible = realize_outcome(psi, setup, 0)
    assert impossible.probability == 0.0
    assert impossible.conditional_fidelity == 0.0
    assert np.all(impossible.raw_conditional_state == 0)
    assert np.all(impossible.corrected_state == 0)


def test_a_numpy_integer_outcome_index_gives_the_int_record():
    # A bool or a float index is refused (tests/test_refusals.py).
    setup = _ideal_setup(2)
    psi = normalize_state(np.array([1.0, 2.0j]))
    by_int, by_numpy = realize_outcome(psi, setup, 3), realize_outcome(psi, setup, np.int64(3))
    assert (by_numpy.xi, by_numpy.probability) == (3, by_int.probability)
    np.testing.assert_array_equal(by_numpy.corrected_state, by_int.corrected_state)
