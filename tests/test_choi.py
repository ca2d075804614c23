"""Tests for the operator-vector correspondence and entanglement reports."""

import math

import numpy as np
import pytest

import oracles
from teleportlab import (
    BipartiteState,
    EntanglementClass,
    analyze_entanglement,
    bell_basis,
    component_overlap,
    hs_inner,
    maximally_entangled_state,
    normalize_state,
    op_to_vec,
    product_state,
    reduced_states,
    vec_to_op,
)


def test_vec_to_op_single_component():
    np.testing.assert_array_equal(
        vec_to_op(np.array([1.0, 0, 0, 0]), 2), np.array([[1.0, 0], [0, 0]])
    )


def test_vec_to_op_maximally_entangled_is_scaled_identity():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    np.testing.assert_allclose(vec_to_op(v, 2), np.eye(2) / math.sqrt(2), atol=1e-15)


def test_round_trip_is_exact():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5):
        v = oracles.random_complex(rng, d * d)
        np.testing.assert_array_equal(op_to_vec(vec_to_op(v, d)), v)


def test_op_to_vec_scaled_identity():
    np.testing.assert_allclose(
        op_to_vec(np.eye(2) / math.sqrt(2)),
        np.array([1.0, 0, 0, 1.0]) / math.sqrt(2),
        atol=1e-15,
    )


def test_op_to_vec_matrix_units_hit_flat_index():
    d = 3
    for j in range(d):
        for k in range(d):
            m = np.zeros((d, d))
            m[j, k] = 1.0
            v = op_to_vec(m)
            assert v[j * d + k] == 1.0
            assert np.count_nonzero(v) == 1


@pytest.mark.parametrize("d", [1, 2, 4])
def test_hs_inner_identity(d):
    assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)


def test_hs_inner_bell_elements_are_orthonormal():
    els = bell_basis(2).elements
    for a in range(4):
        for b in range(4):
            expected = 1.0 if a == b else 0.0
            assert hs_inner(els[a], els[b]) == pytest.approx(expected, abs=1e-12)


def test_hs_inner_matches_elementwise_sum_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = oracles.random_complex(rng, (3, 3))
        d = oracles.random_complex(rng, (3, 3))
        direct = np.sum(np.conj(c) * d)  # Tr(C^dag D) written out entrywise
        assert hs_inner(c, d) == pytest.approx(direct, abs=1e-12)


def test_hs_inner_equals_vectorized_dot_product():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = oracles.random_complex(rng, (4, 4))
        d = oracles.random_complex(rng, (4, 4))
        assert hs_inner(c, d) == pytest.approx(np.vdot(op_to_vec(c), op_to_vec(d)), abs=1e-12)


def test_component_overlap_basic():
    c = np.eye(2) / math.sqrt(2)
    e0 = np.array([1.0, 0.0])
    assert component_overlap(e0, e0, c) == pytest.approx(1 / math.sqrt(2))
    e1 = np.array([0.0, 1.0])
    assert component_overlap(e0, e1, np.diag([1.0, 0.0])) == pytest.approx(0.0)


def test_component_overlap_matches_full_inner_product():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        psi = oracles.random_complex(rng, d)
        phi = oracles.random_complex(rng, d)
        c = oracles.random_complex(rng, (d, d))
        expected = np.vdot(np.kron(psi, phi), op_to_vec(c))
        assert component_overlap(psi, phi, c) == pytest.approx(expected, abs=1e-12)


def test_local_unitary_covariance():
    # (U ⊗ V)|C> has operator form U C V^t and the same Schmidt spectrum.
    rng = np.random.default_rng(11)
    for d in (2, 3):
        state = BipartiteState.from_vector(
            oracles.haar_states_gaussian(rng, d * d, 1)[0]
        )
        u = oracles.random_unitary(rng, d)
        v = oracles.random_unitary(rng, d)
        rotated_vec = np.kron(u, v) @ state.vector
        expected_op = u @ state.operator_form @ v.T
        np.testing.assert_allclose(vec_to_op(rotated_vec, d), expected_op, atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.svd(expected_op, compute_uv=False),
            np.linalg.svd(state.operator_form, compute_uv=False),
            atol=1e-10,
        )


def test_analyze_maximally_entangled_qubit_pair():
    report = analyze_entanglement(maximally_entangled_state(2))
    # independent 2x2 oracle for the Schmidt spectrum
    expected = oracles.singular_values_2x2(np.eye(2) / math.sqrt(2))
    np.testing.assert_allclose(report.schmidt_coefficients, expected, atol=1e-12)
    assert report.entropy == pytest.approx(math.log(2), abs=1e-12)
    assert report.classification is EntanglementClass.MAXIMALLY_ENTANGLED
    assert report.rank == 2


def test_analyze_product_state():
    report = analyze_entanglement(product_state([1.0, 0.0], [1.0, 0.0]))
    np.testing.assert_allclose(report.schmidt_coefficients, [1.0, 0.0], atol=1e-12)
    assert report.entropy == pytest.approx(0.0, abs=1e-12)
    assert report.classification is EntanglementClass.PRODUCT
    assert report.rank == 1


def test_coefficient_entropy_linear_weights():
    # two coefficients 1/sqrt(2): -2 * (1/sqrt(2)) ln(1/sqrt(2)) = ln(2)/sqrt(2)
    report = analyze_entanglement(maximally_entangled_state(2))
    assert report.coefficient_entropy == pytest.approx(math.log(2) / math.sqrt(2), abs=1e-12)
    assert report.coefficient_entropy == pytest.approx(0.4901290717342736, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_entropy_bounds_and_classification(d):
    rng = np.random.default_rng(60 + d)
    # generic states sit strictly inside the bounds
    for _ in range(10):
        state = BipartiteState.from_vector(oracles.haar_states_gaussian(rng, d * d, 1)[0])
        report = analyze_entanglement(state)
        assert -1e-10 <= report.entropy <= math.log(d) + 1e-10
        total = float(np.sum(report.schmidt_coefficients**2))
        assert total == pytest.approx(1.0, abs=1e-10)
    # the bounds are attained exactly at the two special classes
    maxent = analyze_entanglement(maximally_entangled_state(d))
    assert maxent.entropy == pytest.approx(math.log(d), abs=1e-10)
    e0 = np.zeros(d)
    e0[0] = 1.0
    prod = analyze_entanglement(product_state(e0, e0))
    assert prod.entropy == pytest.approx(0.0, abs=1e-10)


def test_reduced_states_of_maximally_entangled():
    d = 3
    rho_a, rho_b = reduced_states(maximally_entangled_state(d))
    np.testing.assert_allclose(rho_a, np.eye(d) / d, atol=1e-12)
    np.testing.assert_allclose(rho_b, np.eye(d) / d, atol=1e-12)


def test_reduced_states_of_product():
    rho_a, rho_b = reduced_states(product_state([1.0, 0.0], [0.0, 1.0]))
    np.testing.assert_allclose(rho_a, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(rho_b, np.diag([0.0, 1.0]), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reduced_states_match_brute_force_partial_trace(d):
    rng = np.random.default_rng(70 + d)
    state = BipartiteState.from_vector(oracles.haar_states_gaussian(rng, d * d, 1)[0])
    rho_a, rho_b = reduced_states(state)
    np.testing.assert_allclose(rho_a, oracles.partial_trace_a(state.vector, d), atol=1e-12)
    np.testing.assert_allclose(rho_b, oracles.partial_trace_b(state.vector, d), atol=1e-12)
    assert np.trace(rho_a).real == pytest.approx(1.0, abs=1e-10)
    assert np.trace(rho_b).real == pytest.approx(1.0, abs=1e-10)
    # eigenvalues of rho_A are the squared Schmidt coefficients
    coeffs = analyze_entanglement(state).schmidt_coefficients
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(rho_a)), np.sort(coeffs**2), atol=1e-10
    )


def test_bipartite_state_normalization_contract():
    state = BipartiteState.from_vector(normalize_state(np.array([1.0, 0, 0, 1.0])))
    assert np.linalg.norm(state.vector) == pytest.approx(1.0, abs=1e-12)


def test_vector_and_operator_form_share_amplitudes():
    state = maximally_entangled_state(3)
    assert np.array_equal(state.operator_form, state.vector.reshape(3, 3))
    with pytest.raises(ValueError):
        state.vector[0] = 5.0  # frozen
