"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy.ndarray`` values of dtype
complex128: matrices are 2-d arrays, state vectors 1-d arrays.  The
helpers here validate shapes and finiteness once so the higher layers
can assume clean inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NormalizationError
from .tolerances import NORMALIZATION_TOL

# Tensor products and setups beyond this total element count are refused
# rather than attempted; dense storage is the whole point of this package.
_MAX_ELEMENTS = 1 << 26


def as_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a finite complex 2-d array."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_square_matrix(matrix) -> np.ndarray:
    """Like :func:`as_matrix` but additionally require a square shape."""
    m = as_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(vector) -> np.ndarray:
    """Validate and return ``vector`` as a finite complex 1-d array."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise DimensionError("state vectors must have positive dimension")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def normalize_state(vector) -> np.ndarray:
    """Return ``vector`` rescaled to unit Euclidean norm."""
    v = as_state(vector)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise NormalizationError("cannot normalize the zero vector")
    return v / norm


def require_normalized(vector, what: str = "state") -> np.ndarray:
    """Validate that ``vector`` has unit norm within ``NORMALIZATION_TOL``."""
    v = as_state(vector)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"{what} must be normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return v


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is already read-only, else a read-only copy."""
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim``."""
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return matrix.conj().T


def _abs_from_svd(s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    # |M| = V S V^dagger from M = W S V^dagger, symmetrized to exact Hermiticity.
    positive = dagger(vh) @ (s[:, None] * vh)
    return 0.5 * (positive + dagger(positive))


def polar_decompose(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition M = U P with U unitary, P = |M| = sqrt(M^dag M).

    For singular M the unitary factor is not unique; the completion
    W V^dagger from the SVD M = W S V^dagger is returned.

    Returns:
        (U, P) with ``U @ P`` equal to M up to rounding and P Hermitian
        positive semidefinite, equal to :func:`operator_abs` of M.
    """
    m = as_square_matrix(matrix)
    u, s, vh = np.linalg.svd(m)
    return u @ vh, _abs_from_svd(s, vh)


def operator_abs(matrix) -> np.ndarray:
    """Operator absolute value |M| = sqrt(M^dag M).

    Hermitian positive semidefinite, with eigenvalues equal to the
    singular values of M.
    """
    m = as_square_matrix(matrix)
    _, s, vh = np.linalg.svd(m)
    return _abs_from_svd(s, vh)


def require_dense_size(entries: int, what: str) -> None:
    """Refuse ``what`` when it needs more than ``_MAX_ELEMENTS`` complex entries."""
    if entries > _MAX_ELEMENTS:
        raise DimensionError(
            f"{what} needs {entries:,} complex entries ({16 * entries / 2**30:.1f} GiB), "
            f"over the dense size limit of {_MAX_ELEMENTS:,}"
        )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with row-major index convention.

    The composite index of ``|j> ⊗ |k>`` is ``j * dim_b + k``, matching
    the operator-vector correspondence used throughout the package.
    """
    ma = as_matrix(a)
    mb = as_matrix(b)
    require_dense_size(ma.size * mb.size, f"tensor product of shapes {ma.shape} and {mb.shape}")
    return np.kron(ma, mb)
