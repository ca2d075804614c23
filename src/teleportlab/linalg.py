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

# Bytes of complex working set processed at once, so temporaries stay small
# against a d^4-entry stack.  bases._unitarity_residual sizes the basis
# check's b x b Gram blocks from it (b = 256); teleport._rows_per_block the
# blocks of T_xi whose |T_xi| transfer_abs_packed packs or whose T_xi psi
# teleport._probabilities reads, and the blocks of input rows of
# state_fidelity_batch, and a quarter of it the blocks of outcomes whose
# T_xi, T_xi psi and corrections teleport._outcome_records forms at once;
# teleport._trials_per_chunk verify's chunks of states; require_finite its
# slices.
_BLOCK_BYTES = 1 << 20


def require_finite(array: np.ndarray, error: Exception) -> None:
    """Raise ``error`` unless every entry of ``array`` is finite.  The
    entries are read in memory order (a view for any dense layout, a
    transposed stack included), one ``_BLOCK_BYTES`` slice at a time, so the
    masks stay small against a d^4-entry stack."""
    flat = array.ravel(order="K")
    step = _BLOCK_BYTES // flat.itemsize
    for start in range(0, flat.size, step):
        if not np.isfinite(flat[start:start + step]).all():
            raise error


def as_matrix(matrix, stack: bool = False) -> np.ndarray:
    """Validate and return ``matrix`` as a finite complex 2-d array; with
    ``stack``, a stack of matrices (..., m, n) is accepted too."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise DimensionError(f"expected a matrix, got array of shape {m.shape}")
    require_finite(m, ValueError("matrix entries must be finite (no NaN/Inf)"))
    return m


def as_square_matrix(matrix, stack: bool = False) -> np.ndarray:
    """Like :func:`as_matrix` but additionally require a square shape."""
    m = as_matrix(matrix, stack)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_square_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` by :func:`as_square_matrix`, refused unless their shapes match."""
    ma, mb = as_square_matrix(a), as_square_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionError(f"shape mismatch: {ma.shape} vs {mb.shape}")
    return ma, mb


def as_state(vector) -> np.ndarray:
    """Validate and return ``vector`` as a finite complex 1-d array."""
    v = np.asarray(vector, dtype=complex)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise DimensionError("state vectors must have positive dimension")
    require_finite(v, ValueError("vector entries must be finite (no NaN/Inf)"))
    return v


def scaled_norm(vector: np.ndarray) -> tuple[np.ndarray, float, float]:
    """``(w, scale, norm)`` with ``vector == scale * w`` and ``norm == ||w||``,
    so ``||vector|| = scale * norm`` without overflow or underflow.  ``w`` is
    ``vector`` itself and ``scale`` 1 unless the plain norm is 0 or not
    finite, so ordinary vectors keep their bits."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vector))
    if 0.0 < norm < np.inf:
        return vector, 1.0, norm
    # The zero vector keeps scale 1.  Divided part by part: complex division
    # multiplies by 1/scale, which overflows for a subnormal scale.
    scale = float(np.max(np.abs(np.stack((vector.real, vector.imag))), initial=0.0)) or 1.0
    w = vector.real / scale + 1j * (vector.imag / scale)
    return w, scale, float(np.linalg.norm(w))


def normalize_state(vector) -> np.ndarray:
    """Return ``vector`` rescaled to unit Euclidean norm."""
    w, _, norm = scaled_norm(as_state(vector))
    if norm == 0.0:
        raise NormalizationError("cannot normalize the zero vector")
    return w / norm


def require_normalized(vector, what: str = "state") -> np.ndarray:
    """Validate that ``vector`` has unit norm within ``NORMALIZATION_TOL``."""
    v = as_state(vector)
    _, scale, norm = scaled_norm(v)
    deviation = abs(scale * norm - 1.0)
    if deviation > NORMALIZATION_TOL:
        raise NormalizationError(f"{what} must be normalized: |norm - 1| = {deviation:.3e}")
    return v


def require_integer(value, what: str) -> None:
    """Refuse ``what`` unless it is an ``int`` or a numpy integer; a bool,
    which indexes and compares as one, is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DimensionError(f"{what} must be an integer, got {value!r}")


def require_dimension(value, what: str = "dimension") -> None:
    """Refuse ``what`` unless it is an integer (:func:`require_integer`) of at least 1."""
    require_integer(value, what)
    if value < 1:
        raise DimensionError(f"{what} must be at least 1")


def require_count(value, what: str) -> None:
    """Refuse ``what`` unless it is an integer (:func:`require_integer`) of at least 0;
    a negative one raises ``ValueError``."""
    require_integer(value, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative")


def frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself, made read-only: the one way a stored or cached array is frozen."""
    array.setflags(write=False)
    return array


def read_only(array) -> np.ndarray:
    """``array`` as a complex array that nothing can write.  A read-only
    complex array that owns its data is kept; any other input, a view
    included, is converted or copied once and the result :func:`frozen`."""
    if (isinstance(array, np.ndarray) and array.dtype == complex
            and array.flags.owndata and not array.flags.writeable):
        return array
    return frozen(np.array(array, dtype=complex))


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim``."""
    require_dimension(dim)
    require_integer(index, "basis index")
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return matrix.conj().swapaxes(-1, -2)


def _abs_from_svd(s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    # |M| = V S V^dagger from M = W S V^dagger, symmetrized to exact Hermiticity;
    # a stack of factors gives the stack of |M|, each with the bits of its own call.
    positive = dagger(vh) @ (s[..., :, None] * vh)
    return 0.5 * (positive + dagger(positive))


def _polar_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (W V^dagger, S, V^dagger) from one SVD M = W S V^dagger: the one place SVD
    # factors become a unitary polar factor.  A stack gives the stack of each,
    # each with the bits of its own call; W is freed on return.
    u, s, vh = np.linalg.svd(m)
    return u @ vh, s, vh


def polar_decompose(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition M = U P with U unitary, P = |M| = sqrt(M^dag M).

    For singular M the unitary factor is not unique; the completion
    W V^dagger from the SVD M = W S V^dagger is returned.

    Returns:
        (U, P) with ``U @ P`` equal to M up to rounding and P Hermitian
        positive semidefinite.
    """
    unitary, s, vh = _polar_svd(as_square_matrix(matrix))
    return unitary, _abs_from_svd(s, vh)


def polar_unitary(matrix) -> np.ndarray:
    """The factor U of :func:`polar_decompose`, for a square matrix or for each
    matrix of a stack (..., n, n), from one SVD call and without forming |M|."""
    return _polar_svd(as_square_matrix(matrix, stack=True))[0]


def operator_abs(matrix) -> np.ndarray:
    """Operator absolute value |M| = sqrt(M^dag M), the factor P of :func:`polar_decompose`.

    Hermitian positive semidefinite, with eigenvalues equal to the
    singular values of M.
    """
    return polar_decompose(matrix)[1]


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
