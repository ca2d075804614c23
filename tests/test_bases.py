"""Tests for the operator basis constructors and validator."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from teleportlab import (
    BasisStructureError,
    BipartiteState,
    DimensionError,
    EntanglementClass,
    OperatorBasis,
    analyze_entanglement,
    bell_basis,
    custom_basis,
    product_basis,
    rotated_basis,
    validate_basis,
)
from teleportlab import linalg
from teleportlab.tolerances import BASIS_TOL


def test_bell_first_element_is_phi_plus():
    basis = bell_basis(2)
    np.testing.assert_allclose(
        basis.elements[0].reshape(-1), np.array([1.0, 0, 0, 1.0]) / math.sqrt(2), atol=1e-15
    )


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_pairwise_orthonormality(d):
    els = bell_basis(d).elements
    n = d * d
    gram = els.reshape(n, n).conj() @ els.reshape(n, n).T
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bell_elements_are_maximally_entangled(d):
    for el in bell_basis(d).elements:
        s = np.linalg.svd(el, compute_uv=False)
        np.testing.assert_allclose(s, np.full(d, 1 / math.sqrt(d)), atol=1e-12)
        report = analyze_entanglement(BipartiteState.from_operator(el))
        assert report.classification is EntanglementClass.MAXIMALLY_ENTANGLED


def test_product_element_structure():
    basis = product_basis(2)
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0  # (j, k) = (0, 1) -> |0><1|
    np.testing.assert_array_equal(basis.elements[1], expected)


@pytest.mark.parametrize("d", [2, 3])
def test_product_elements_are_product_states(d):
    for el in product_basis(d).elements:
        report = analyze_entanglement(BipartiteState.from_operator(el))
        assert report.classification is EntanglementClass.PRODUCT
        assert report.rank == 1


def test_completeness_against_direct_summation_oracle():
    d = 3
    rng = np.random.default_rng(17)
    for basis in (product_basis(d), bell_basis(d)):
        a = oracles.random_complex(rng, (d, d))
        total = oracles.completeness_sum(basis.elements, a)
        np.testing.assert_allclose(total, np.trace(a) * np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_constructed_bases_validate(d):
    for make in (bell_basis, product_basis):
        report = validate_basis(make(d))
        assert report.passed
        assert report.orthonormality_residual < 1e-10
        assert report.completeness_residual < 1e-10
        assert report.failed_relation is None


def test_zeroed_element_is_detected():
    basis = bell_basis(3)
    elements = basis.elements.copy()
    elements[4] = 0.0
    report = validate_basis(OperatorBasis(local_dim=3, elements=elements))
    assert not report.passed
    assert report.failed_relation == "orthonormality"
    assert report.orthonormality_residual > 0.5


def test_scaled_element_is_detected():
    basis = product_basis(4)
    elements = basis.elements.copy()
    elements[7] = 1.01 * elements[7]
    report = validate_basis(OperatorBasis(local_dim=4, elements=elements))
    assert not report.passed
    assert report.failed_relation is not None


def test_completeness_violation_detected_for_orthonormal_non_basis():
    # orthonormal family that does not span: unitary rotations of a
    # proper subset cannot be produced (count is checked), so distort a
    # valid basis by replacing one element with a duplicate of another.
    basis = product_basis(2)
    elements = basis.elements.copy()
    elements[3] = elements[0]
    report = validate_basis(OperatorBasis(local_dim=2, elements=elements))
    assert not report.passed


@pytest.mark.parametrize("d", [2, 3])
def test_rotated_basis_still_validates(d):
    rng = np.random.default_rng(23 + d)
    w = oracles.random_unitary(rng, d * d)
    rotated = rotated_basis(bell_basis(d), w)
    report = validate_basis(rotated)
    assert report.passed, report


def test_rotated_basis_rejects_nonunitary():
    with pytest.raises(ValueError):
        rotated_basis(bell_basis(2), np.ones((4, 4)))


@pytest.mark.parametrize("d", [2, 4])
def test_vectorized_elements_resolve_the_identity(d):
    vecs = bell_basis(d).vectors()
    resolution = vecs.T @ vecs.conj()  # sum_xi |B_xi><B_xi|
    assert np.max(np.abs(resolution - np.eye(d * d))) < 1e-10


def test_dimension_zero_rejected():
    with pytest.raises(DimensionError):
        bell_basis(0)
    with pytest.raises(DimensionError):
        product_basis(0)


def test_wrong_element_count_rejected():
    with pytest.raises(BasisStructureError):
        custom_basis([np.eye(2)] * 3)
    with pytest.raises(BasisStructureError):
        OperatorBasis(local_dim=2, elements=np.zeros((4, 3, 3), dtype=complex))


def test_dimension_one_bases():
    for make in (bell_basis, product_basis):
        basis = make(1)
        assert len(basis) == 1
        assert validate_basis(basis).passed


def test_rotation_shape_and_trials_validation():
    with pytest.raises(DimensionError):
        rotated_basis(bell_basis(2), np.eye(9))
    with pytest.raises(ValueError):
        validate_basis(bell_basis(2), trials=0)


def _damaged_variants(elements):
    """The clean stack, then one element scaled by 1.01, zeroed, duplicated,
    and scaled so the residual lands 1e-11 either side of BASIS_TOL."""
    n = len(elements)
    k = n // 2
    yield elements
    for factor in (1.01, 0.0, 1 + (BASIS_TOL - 1e-11) / 2, 1 + (BASIS_TOL + 1e-11) / 2):
        damaged = elements.copy()
        damaged[k] *= factor
        yield damaged
    duplicated = elements.copy()
    duplicated[k] = elements[(k + 1) % n]
    yield duplicated


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("kind", ["bell", "product", "rotated"])
def test_validate_basis_matches_einsum_oracle(d, kind):
    n = d * d
    if kind == "rotated":
        w = oracles.random_unitary(np.random.default_rng(31 + d), n)
        base = rotated_basis(bell_basis(d), w)
    else:
        base = (bell_basis if kind == "bell" else product_basis)(d)
    for elements in _damaged_variants(base.elements):
        vecs = elements.reshape(n, n)
        orth = float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(n))))
        for trials in (1, 2, 8):
            report = validate_basis(OperatorBasis(local_dim=d, elements=elements), trials=trials)
            comp = oracles.completeness_residual_einsum(elements, trials)
            expected = ("orthonormality" if orth > BASIS_TOL
                        else "completeness" if comp > BASIS_TOL else None)
            assert report.failed_relation == expected
            assert report.passed is (expected is None)
            assert abs(report.orthonormality_residual - orth) <= 1e-13 + 1e-12 * orth
            assert abs(report.completeness_residual - comp) <= 1e-13 + 1e-12 * comp


def test_validate_basis_memory_is_bounded():
    # Each completeness trial may hold two arrays the size of the element
    # stack (16 MiB at d = 32), not a three-operand contraction's worth.
    basis = bell_basis(32)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = validate_basis(basis, trials=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak - start < 40 * 2**20


def test_cached_facts_ignore_later_writes_to_the_input_array():
    # Reading the cache first, then writing into the array the object was
    # built from, must leave the object agreeing with a fresh one over its
    # own data.
    data = bell_basis(2).elements.copy()
    basis = OperatorBasis(local_dim=2, elements=data)
    assert basis.element_shape == (True, False)
    data[...] = product_basis(2).elements
    assert basis.element_shape == OperatorBasis(local_dim=2, elements=basis.elements).element_shape
    assert basis.element_shape == (True, False)

    amplitudes = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    state = BipartiteState(amplitudes)
    coeffs = state.schmidt_coefficients
    amplitudes[...] = [1.0, 0.0, 0.0, 0.0]
    fresh = BipartiteState(state.vector)
    np.testing.assert_array_equal(coeffs, fresh.schmidt_coefficients)
    np.testing.assert_allclose(coeffs, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_writable_inputs_are_copied_and_read_only_ones_kept():
    writable = bell_basis(3).elements.copy()
    copied = OperatorBasis(local_dim=3, elements=writable).elements
    assert copied is not writable and not copied.flags.writeable
    np.testing.assert_array_equal(copied, writable)
    writable.setflags(write=False)
    assert OperatorBasis(local_dim=3, elements=writable).elements is writable
    vector = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    vector.setflags(write=False)
    assert BipartiteState(vector).vector is vector


@pytest.mark.parametrize("make", [bell_basis, product_basis])
def test_constructed_bases_refuse_a_stack_over_the_dense_size_limit(monkeypatch, make):
    # d = 2 needs 16 entries: refused over a limit of 15, built at 16.
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 15)
    with pytest.raises(DimensionError, match="a basis for d = 2 needs 16 complex entries"):
        make(2)
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 16)
    assert len(make(2)) == 4


def test_custom_basis_rejects_elements_of_unequal_shape():
    with pytest.raises(BasisStructureError, match="same shape"):
        custom_basis([np.eye(2), np.eye(2), np.eye(2), np.eye(3)])
