"""Tests for the dense linear algebra substrate."""

import numpy as np
import pytest

import oracles
from teleportlab import (
    dagger,
    normalize_state,
    operator_abs,
    polar_decompose,
    tensor_product,
)
from teleportlab.linalg import read_only, scaled_norm

RECON_TOL = 1e-10


def singular_values(m):
    """Singular values of ``m``, descending, read off as the eigenvalues of |m|."""
    return np.linalg.eigvalsh(operator_abs(m))[::-1]


def test_svd_diagonal_sorted():
    np.testing.assert_allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0], atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_svd_identity(d):
    np.testing.assert_allclose(singular_values(np.eye(d)), np.ones(d), atol=1e-14)


def test_svd_nilpotent_matches_characteristic_polynomial_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = oracles.singular_values_2x2(m)
    np.testing.assert_allclose(expected, [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(singular_values(m), expected, atol=1e-12)


def test_svd_random_2x2_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        m = oracles.random_complex(rng, (2, 2))
        np.testing.assert_allclose(singular_values(m), oracles.singular_values_2x2(m), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_svd_reconstruction_and_unitarity(d):
    # The polar factors are the SVD's W V^dagger and V S V^dagger; the
    # positive one is the same assembly operator_abs returns.
    rng = np.random.default_rng(100 + d)
    for _ in range(10):
        m = oracles.random_complex(rng, (d, d))
        u, p = polar_decompose(m)
        scale = 1.0 + np.linalg.norm(m)
        assert np.linalg.norm(u @ p - m) <= RECON_TOL * scale
        assert np.max(np.abs(dagger(u) @ u - np.eye(d))) <= RECON_TOL
        np.testing.assert_array_equal(p, operator_abs(m))
        s = singular_values(m)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= -1e-12)


@pytest.mark.parametrize("d", [2, 4])
def test_singular_values_invariant_under_unitaries(d):
    rng = np.random.default_rng(7)
    m = oracles.random_complex(rng, (d, d))
    reference = singular_values(m)
    for _ in range(5):
        u = oracles.random_unitary(rng, d)
        v = oracles.random_unitary(rng, d)
        np.testing.assert_allclose(singular_values(u @ m @ v), reference, atol=1e-10)


def test_polar_already_positive():
    m = np.diag([1.0, 0.0])
    u, p = polar_decompose(m)
    np.testing.assert_allclose(p, m, atol=1e-12)
    np.testing.assert_allclose(u @ p, m, atol=1e-12)


def test_polar_of_unitary_is_unitary_times_identity():
    rng = np.random.default_rng(5)
    w = oracles.random_unitary(rng, 3)
    u, p = polar_decompose(w)
    np.testing.assert_allclose(p, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(u, w, atol=1e-12)


def test_polar_nilpotent_against_spectral_oracle():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected_abs = oracles.sqrt_psd_2x2(oracles.dagger(m) @ m)
    np.testing.assert_allclose(expected_abs, np.diag([0.0, 1.0]), atol=1e-14)
    u, p = polar_decompose(m)
    np.testing.assert_allclose(p, expected_abs, atol=1e-12)
    np.testing.assert_allclose(u @ p, m, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 6])
def test_polar_reconstruction_properties(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(10):
        m = oracles.random_complex(rng, (d, d))
        u, p = polar_decompose(m)
        scale = 1.0 + np.linalg.norm(m)
        assert np.linalg.norm(u @ p - m) <= RECON_TOL * scale
        assert np.max(np.abs(dagger(u) @ u - np.eye(d))) <= RECON_TOL
        np.testing.assert_allclose(p, dagger(p), atol=1e-12)
        assert np.all(np.linalg.eigvalsh(p) >= -1e-12)


def test_operator_abs_removes_signs():
    np.testing.assert_allclose(operator_abs(np.diag([-2.0, 3.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_operator_abs_of_unitary():
    rng = np.random.default_rng(9)
    w = oracles.random_unitary(rng, 4)
    np.testing.assert_allclose(operator_abs(w), np.eye(4), atol=1e-12)


def test_operator_abs_trace_is_nuclear_norm():
    rng = np.random.default_rng(31)
    m = oracles.random_complex(rng, (3, 3))
    nuclear = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(np.trace(operator_abs(m)).real - nuclear) <= 1e-10


def test_operator_abs_keeps_singular_values():
    rng = np.random.default_rng(32)
    m = oracles.random_complex(rng, (4, 4))
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(operator_abs(m))),
        np.sort(np.linalg.svd(m, compute_uv=False)),
        atol=1e-10,
    )


def test_tensor_product_of_identities():
    np.testing.assert_array_equal(tensor_product(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_product_projector_bookkeeping():
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # |0> ⊗ |1> sits at composite index 0*2 + 1
    np.testing.assert_array_equal(tensor_product(p0, p1), expected)


def test_tensor_product_action_law():
    rng = np.random.default_rng(12)
    a = oracles.random_complex(rng, (3, 3))
    b = oracles.random_complex(rng, (2, 2))
    u = oracles.random_complex(rng, 3)
    v = oracles.random_complex(rng, 2)
    left = tensor_product(a, b) @ np.kron(u, v)
    right = np.kron(a @ u, b @ v)
    np.testing.assert_allclose(left, right, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_tensor_product_mixed_product_law(d):
    rng = np.random.default_rng(40 + d)
    a, b, c, e = (oracles.random_complex(rng, (d, d)) for _ in range(4))
    left = tensor_product(a, b) @ tensor_product(c, e)
    right = tensor_product(a @ c, b @ e)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_normalize_state_survives_overflow():
    # The plain norm of these overflows to inf; the true norms are 1e308
    # and 1.5e308 sqrt 2 (the second beyond the float range itself).
    np.testing.assert_array_equal(normalize_state([1e308, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(normalize_state([-1.5e308, 1.5e308j]),
                               np.array([-1, 1j]) / np.sqrt(2), rtol=1e-15)


def test_normalize_state_survives_underflow():
    # The plain norm of a subnormal vector is 0.
    np.testing.assert_array_equal(normalize_state([1e-320, 0.0]), [1.0, 0.0])
    np.testing.assert_allclose(normalize_state([3e-320j, 4e-320]), [0.6j, 0.8], rtol=1e-15)


def test_scaled_norm_keeps_ordinary_vectors_bit_for_bit():
    rng = np.random.default_rng(12)
    for d in (1, 2, 5, 64):
        v = oracles.random_complex(rng, d) * 10.0 ** rng.integers(-100, 100)
        w, scale, norm = scaled_norm(v)
        assert w is v and scale == 1.0 and norm == np.linalg.norm(v)
        assert normalize_state(v).tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_read_only_keeps_only_arrays_nothing_can_write():
    # Only a read-only complex array that owns its data is kept: a view is
    # copied even when it and its base are read-only.
    owner = np.arange(4.0).astype(complex)
    owner.setflags(write=False)
    assert read_only(owner) is owner
    writable = np.arange(4.0).astype(complex)
    ro_view = writable[1:]
    ro_view.setflags(write=False)
    for array in (owner[1:], writable, ro_view):
        kept = read_only(array)
        assert kept is not array and not kept.flags.writeable
        np.testing.assert_array_equal(kept, array)


def test_read_only_converts_other_inputs_once_and_freezes_the_result():
    # A list or a real array is converted to a fresh complex array, which is
    # made read-only in place; writing the input does not reach it.
    for raw in ([1.0, 2.0], np.array([1, 2]), np.array([1.0, 2.0])):
        converted = read_only(raw)
        assert converted.dtype == complex and not converted.flags.writeable
        assert converted.base is None
        if isinstance(raw, np.ndarray):
            raw[0] = 5
        np.testing.assert_array_equal(converted, [1.0, 2.0])
