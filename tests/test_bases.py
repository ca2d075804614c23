"""Tests for the operator basis constructors and validator."""

import math

import numpy as np
import pytest

import oracles
from teleportlab import (
    BipartiteState,
    DimensionError,
    EntanglementClass,
    OperatorBasis,
    analyze_entanglement,
    bell_basis,
    haar_unitary,
    product_basis,
    rotated_basis,
    validate_basis,
)
from teleportlab import linalg
from teleportlab.choi import schmidt_shape
from teleportlab.cli import main, save_basis_file
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
        assert report.residual < 1e-10
        assert report.failure is None


def test_zeroed_element_is_detected():
    basis = bell_basis(3)
    elements = basis.elements.copy()
    elements[4] = 0.0
    report = validate_basis(OperatorBasis(local_dim=3, elements=elements))
    assert not report.passed
    # One Gram diagonal entry drops from 1 to 0.
    assert report.residual == pytest.approx(1.0)


def test_scaled_element_is_detected():
    basis = product_basis(4)
    elements = basis.elements.copy()
    elements[7] = 1.01 * elements[7]
    report = validate_basis(OperatorBasis(local_dim=4, elements=elements))
    assert not report.passed
    assert report.failure is not None


def test_duplicated_element_fails_orthonormality():
    # A family with one element repeated does not span; its Gram matrix has
    # an off-diagonal 1 in each of two places, so the residual is sqrt(2).
    basis = product_basis(2)
    elements = basis.elements.copy()
    elements[3] = elements[0]
    report = validate_basis(OperatorBasis(local_dim=2, elements=elements))
    assert report.residual == pytest.approx(math.sqrt(2))
    assert report.failure == "basis is not orthonormal and complete (residual 1.414e+00)"


def _mixed_basis(basis, eps):
    """The vectors of ``basis`` mixed by M = (I + eps J)^(1/2), J all-ones:
    Gram matrix I + eps J, so the orthonormality residual is eps, while
    sum_xi B_xi^dag A B_xi picks up eps S^dag A S, S = sum_xi B_xi."""
    n = len(basis)
    mix = np.eye(n) + (math.sqrt(1 + eps * n) - 1) / n * np.ones((n, n))
    d = basis.local_dim
    return OperatorBasis(local_dim=d, elements=(mix @ basis.vectors()).reshape(n, d, d))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("make", [bell_basis, product_basis], ids=["bell", "product"])
@pytest.mark.parametrize("fraction", [0.5, 0.9])
def test_completeness_catches_what_orthonormality_passes(tmp_path, capsys, d, make, fraction):
    # Every Gram entry is within BASIS_TOL of the identity's, so a max-entry
    # orthonormality check passes; the residual, eps d^2 in the Frobenius
    # norm, does not.
    basis = _mixed_basis(make(d), fraction * BASIS_TOL)
    vecs = basis.vectors()
    assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(d * d))) <= BASIS_TOL
    report = validate_basis(basis)
    assert report.residual == pytest.approx(fraction * BASIS_TOL * d * d, rel=1e-3)
    assert not report.passed
    path = tmp_path / "basis.json"
    save_basis_file(path, basis)
    code = main(["verify", "--d", str(d), "--basis", "custom", "--basis-file", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {report.failure}\n"


def _write_rounded_basis_file(path, d, digits):
    """Write the grid's rotated Bell basis for ``d`` (rotation seeded 100 + d)
    as a basis file whose entries are printed with ``digits`` significant
    digits, one %-format per matrix row."""
    basis = rotated_basis(bell_basis(d), haar_unitary(d * d, np.random.default_rng(100 + d)))
    row = "[" + ", ".join([f"[%.{digits}g, %.{digits}g]"] * d) + "]"
    pairs = np.stack((basis.elements.real, basis.elements.imag), -1).reshape(d * d, d, 2 * d)
    elements = ", ".join("[" + ", ".join(row % tuple(r) for r in m) + "]" for m in pairs)
    path.write_text(f'{{"d": {d}, "elements": [{elements}]}}', encoding="utf-8")


def test_rotated_basis_file_with_12_digits_passes_at_d32(tmp_path, capsys):
    # Rounding to 12 digits leaves a residual of 4.8e-11 at d = 32.
    path = tmp_path / "basis.json"
    _write_rounded_basis_file(path, 32, 12)
    code = main(["verify", "--d", "32", "--basis", "custom", "--basis-file", str(path),
                 "--samples", "1", "--no-timestamp"])
    assert code == 0, capsys.readouterr().err


def test_rotated_basis_file_with_11_digits_fails_at_d8(tmp_path, capsys):
    # Rounding to 11 digits leaves a residual of 1.89e-10 at d = 8, above
    # BASIS_TOL, although no single Gram entry is off by as much.
    path = tmp_path / "basis.json"
    _write_rounded_basis_file(path, 8, 11)
    code = main(["verify", "--d", "8", "--basis", "custom", "--basis-file", str(path),
                 "--samples", "1", "--no-timestamp"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: basis is not orthonormal and complete (residual 1.890e-10)\n")


@pytest.mark.parametrize("d", [2, 3])
def test_rotated_basis_still_validates(d):
    rng = np.random.default_rng(23 + d)
    w = oracles.random_unitary(rng, d * d)
    rotated = rotated_basis(bell_basis(d), w)
    report = validate_basis(rotated)
    assert report.passed, report


@pytest.mark.parametrize("d", [2, 4])
def test_vectorized_elements_resolve_the_identity(d):
    vecs = bell_basis(d).vectors()
    resolution = vecs.T @ vecs.conj()  # sum_xi |B_xi><B_xi|
    assert np.max(np.abs(resolution - np.eye(d * d))) < 1e-10


def test_a_numpy_integer_local_dim_builds_a_basis_that_rotates():
    # A float or a bool is refused (tests/test_refusals.py); a float would
    # build and validate, then fail in rotated_basis's np.empty.
    basis = OperatorBasis(local_dim=np.int64(2), elements=bell_basis(2).elements)
    assert validate_basis(rotated_basis(basis, np.eye(4))).passed


def test_dimension_one_bases():
    for make in (bell_basis, product_basis):
        basis = make(1)
        assert len(basis) == 1
        assert validate_basis(basis).passed


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


def _make_basis(kind, d):
    if kind == "rotated":
        w = oracles.random_unitary(np.random.default_rng(31 + d), d * d)
        return rotated_basis(bell_basis(d), w)
    return (bell_basis if kind == "bell" else product_basis)(d)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("kind", ["bell", "product", "rotated"])
def test_validate_basis_matches_einsum_oracle(d, kind):
    # The residual is both the exhaustive completeness residual over the
    # matrix units and ||V V^dag - I||_F, and the gate follows the oracle on
    # either side of BASIS_TOL.
    n = d * d
    base = _make_basis(kind, d)
    for elements in _damaged_variants(base.elements):
        vecs = elements.reshape(n, n)
        gram_residual = float(np.linalg.norm(vecs @ vecs.conj().T - np.eye(n)))
        oracle = oracles.completeness_residual_einsum(elements)
        report = validate_basis(OperatorBasis(local_dim=d, elements=elements))
        assert abs(report.residual - oracle) <= 1e-13
        assert abs(report.residual - gram_residual) <= 1e-13
        assert report.passed is (oracle <= BASIS_TOL)


def _last_block_variants(elements):
    """The last element scaled 1e-11 either side of BASIS_TOL, in d = 24's
    partial block of 64 rows; then element 0 copied over the last one, so
    the only defect is Gram entry (0, n - 1) and its conjugate, in
    off-diagonal block (0, last) and its mirror (residual sqrt 2)."""
    n = len(elements)
    for factor in (1 + (BASIS_TOL - 1e-11) / 2, 1 + (BASIS_TOL + 1e-11) / 2):
        damaged = elements.copy()
        damaged[n - 1] *= factor
        yield damaged
    copied = elements.copy()
    copied[n - 1] = elements[0]
    yield copied


@pytest.mark.parametrize("d", [16, 24, 32])
@pytest.mark.parametrize("kind", ["bell", "product", "rotated"])
def test_blocked_residual_matches_the_whole_gram(d, kind):
    # At d = 16 the Gram matrix is one block, with the one-Gram bits; from
    # d = 24 on the blocks' sums round differently, by far less than the
    # 1e-11 margin of the straddling variants, so no gate moves.
    n = d * d
    base = _make_basis(kind, d)
    variants = [*_damaged_variants(base.elements), *_last_block_variants(base.elements)]
    for elements in variants:
        oracle = oracles.unitarity_residual_unblocked(elements.reshape(n, n))
        report = validate_basis(OperatorBasis(local_dim=d, elements=elements))
        if d == 16:
            assert report.residual == oracle
        else:
            assert abs(report.residual - oracle) <= 1e-12 * oracle
        assert report.passed is (oracle <= BASIS_TOL)
    assert oracle == pytest.approx(math.sqrt(2), rel=1e-12)


def test_a_unitary_rotation_with_a_partial_last_block_is_accepted():
    # d = 24: rows 512..575 of W form the last, partial row block of 64; W with
    # its last row scaled past BASIS_TOL is refused (tests/test_refusals.py).
    d = 24
    w = oracles.random_unitary(np.random.default_rng(5), d * d)
    assert validate_basis(rotated_basis(bell_basis(d), w)).passed


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


def test_elements_of_any_array_like_are_stored_as_complex():
    # A nested list and an int array are converted, then made read-only.
    for elements in ([[[1.0]]], np.array([[[1]]])):
        stored = OperatorBasis(local_dim=1, elements=elements).elements
        assert stored.dtype == complex and not stored.flags.writeable
        np.testing.assert_array_equal(stored, [[[1.0]]])


@pytest.mark.parametrize("make", [bell_basis, product_basis])
def test_constructed_bases_refuse_a_stack_over_the_dense_size_limit(monkeypatch, make):
    # d = 2 needs 16 entries: refused over a limit of 15, built at 16.
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 15)
    with pytest.raises(DimensionError, match="a basis for d = 2 needs 16 complex entries"):
        make(2)
    monkeypatch.setattr(linalg, "_MAX_ELEMENTS", 16)
    assert len(make(2)) == 4


# The built-in bases are not checked at run time (build_setup), so these
# prove validity and the preset element shape over every d that
# teleport.require_setup_fits accepts.  The dense check and the stacked SVD
# are compared as well up to _DENSE, where they are affordable.
_DOMAIN = range(1, 65)
_DENSE = 32


def _assert_declared_shape(basis, spectra):
    """The preset element shape is the rule applied to ``spectra``, the
    descending singular values derived from the stack's structure, and up to
    ``_DENSE`` the shape an unmarked basis measures by its stacked SVD."""
    flat, rank = schmidt_shape(spectra)
    assert basis.element_shape == (bool(flat.all()), bool((rank == 1).all()))
    assert [type(x) for x in basis.element_shape] == [bool, bool]
    if basis.local_dim <= _DENSE:
        assert basis.element_shape == OperatorBasis(basis.local_dim, basis.elements).element_shape


@pytest.mark.parametrize("d", _DOMAIN)
def test_product_basis_is_valid_and_classified_by_construction(d):
    # The vectorized elements are exactly the identity, so V V^dag = I and
    # r = 0 exactly; each element is a matrix unit, spectrum (1, 0, ..., 0).
    basis = product_basis(d)
    assert basis.built_in
    vectors = basis.vectors()
    assert (vectors.flat[::d * d + 1] == 1).all() and np.count_nonzero(vectors) == d * d
    _assert_declared_shape(basis, np.eye(1, d))
    if d <= _DENSE:
        assert validate_basis(basis).residual == 0.0


@pytest.mark.parametrize("d", _DOMAIN)
def test_bell_basis_is_valid_and_classified_by_construction(d):
    # Element (j, k) holds F[k, a] at (a, (a - j) mod d) and zeros elsewhere.
    # Elements of different j have disjoint supports, so the Gram matrix is d
    # copies of conj(F) F^T and r = sqrt(d) ||conj(F) F^T - I||_F.
    basis = bell_basis(d)
    assert basis.built_in
    stack = basis.elements.reshape(d, d, d, d)
    j, k, a = np.ogrid[:d, :d, :d]
    tables = stack[j, k, a, (a - j) % d]
    assert (tables == tables[0]).all()
    # The d^3 table entries are nonzero, and they are all the nonzeros there are.
    assert np.count_nonzero(tables) == np.count_nonzero(stack) == d**3
    f = tables[0]
    gram = f.conj() @ f.T
    gram.flat[::d + 1] -= 1
    residual = math.sqrt(d) * np.linalg.norm(gram)
    assert residual <= BASIS_TOL
    # A row of F spread over a permutation pattern has that row's moduli as
    # its singular values.
    _assert_declared_shape(basis, -np.sort(-np.abs(f), axis=1))
    if d <= _DENSE:
        dense = validate_basis(basis).residual
        assert math.isclose(residual, dense, rel_tol=1e-2, abs_tol=d * np.finfo(float).eps)


def test_read_only_view_of_a_writable_array_is_copied():
    # Whoever holds the writable base could still change a read-only view
    # of it, so the basis takes its own copy and its cache stays true.
    base = bell_basis(2).elements.copy()
    view = base[...]
    view.setflags(write=False)
    basis = OperatorBasis(local_dim=2, elements=view)
    assert basis.element_shape == (True, False)
    base[...] = product_basis(2).elements
    assert OperatorBasis(local_dim=2, elements=basis.elements.copy()).element_shape == (True, False)
    assert basis.element_shape == (True, False)
