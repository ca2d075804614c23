"""Orthonormal operator bases for the measurement side of teleportation.

A family of d^2 matrices {B_xi} is an orthonormal operator basis when

    Tr(B_xi^dag B_eta) = delta_{xi,eta}
    sum_xi B_xi^dag A B_xi = Tr(A) * identity   for every A.

With the vectorized elements as the rows of a square d^2 x d^2 matrix V,
orthonormality is V V^dag = I and completeness is V^dag V = I; the two
matrices have the same eigenvalues, so the relations share one residual

    r = ||V V^dag - I||_F = ||V^dag V - I||_F.

Entry (b a, c e) of V^dag V - I is entry (a, e) of
sum_xi B_xi^dag A B_xi - Tr(A) * identity for the matrix unit A = |b><c|, so
r^2 is the sum over the d^2 matrix units of their squared Frobenius
completeness residuals.  By linearity r bounds the completeness residual
of every A with ||A||_F <= 1, and it bounds every entry of V V^dag - I,
the largest pairwise orthonormality residual.  The Gram matrix
G = conj(V) V^T is Hermitian, so over its b x b blocks G_ij

    r^2 = sum_i ||G_ii - I||_F^2 + 2 sum_{i<j} ||G_ij||_F^2,

and r is summed over the blocks on and above the diagonal, one at a time.
Two standard constructions are provided (generalized Bell and pure
product), plus rotation into arbitrary custom bases and a validator that
gates r.  The two constructions are valid by construction and are not
gated at run time (``OperatorBasis.built_in``); every other basis is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .choi import schmidt_shape
from .errors import BasisStructureError, DimensionError
from .linalg import (_BLOCK_BYTES, as_square_matrix, read_only, require_dense_size, require_dimension,
                     require_finite)
from .tolerances import BASIS_TOL


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered family of d^2 operators indexed by xi = j * d + k.

    ``elements`` has shape (d^2, d, d); ``elements[xi]`` is the operator
    form of the xi-th measurement vector.  It is a read-only complex array
    (:func:`~teleportlab.linalg.read_only`: a read-only complex array that
    owns its data is kept, any other input converted or copied once), so
    the cached facts cannot go stale: ``element_shape`` and ``vectors_t``,
    the transposed vectors that ``verify_identity`` contracts over xi.
    Bases compare and hash by identity.

    ``built_in`` is true only for a basis that :func:`bell_basis` or
    :func:`product_basis` returned: valid and classified by construction,
    which ``tests/test_bases.py`` proves over the whole accepted domain
    d = 1..64, so :func:`~teleportlab.teleport.build_setup` does not check
    it again.  It is not a constructor argument, and ``dataclasses.replace``
    resets it, so every other basis is checked.
    """

    local_dim: int
    elements: np.ndarray
    built_in: bool = field(default=False, init=False)

    def __post_init__(self):
        d = self.local_dim
        require_dimension(d, "local dimension")
        object.__setattr__(self, "elements", read_only(self.elements))
        if self.elements.shape != (d * d, d, d):
            raise BasisStructureError(
                f"a basis for local dimension {d} needs {d * d} elements of shape "
                f"{d} x {d}, got array of shape {self.elements.shape}"
            )
        require_finite(self.elements, ValueError("basis elements must be finite"))

    def __len__(self) -> int:
        return self.elements.shape[0]

    def vectors(self) -> np.ndarray:
        """The elements as rows of a (d^2, d^2) matrix of amplitude vectors."""
        n = len(self)
        return self.elements.reshape(n, n)

    @cached_property
    def vectors_t(self) -> np.ndarray:
        """Cached read-only C-contiguous copy of ``vectors().T``: row i holds
        amplitude i of every element, so a sum over xi runs along a row.
        ``verify_identity`` contracts it with a whole chunk of states' T psi
        in one einsum, with each state's bits."""
        vectors_t = self.vectors().T.copy()
        vectors_t.setflags(write=False)
        return vectors_t

    @cached_property
    def element_shape(self) -> tuple[bool, bool]:
        """Cached ``(all_flat, all_rank_one)`` by :func:`~teleportlab.choi.schmidt_shape`
        over the spectra of the whole stack, from one stacked SVD.  A built-in
        basis holds it preset by its builder, so its elements are not decomposed."""
        flat, rank = schmidt_shape(np.linalg.svd(self.elements, compute_uv=False))
        return bool(flat.all()), bool((rank == 1).all())


def _built_in(local_dim: int, elements: np.ndarray, element_shape: tuple[bool, bool]) -> OperatorBasis:
    """The basis of a builder's own stack, marked ``built_in`` and with its
    ``element_shape`` preset."""
    elements.setflags(write=False)
    basis = OperatorBasis(local_dim=local_dim, elements=elements)
    object.__setattr__(basis, "built_in", True)
    basis.__dict__["element_shape"] = element_shape
    return basis


def bell_basis(local_dim: int) -> OperatorBasis:
    """Generalized Bell basis: d^2 maximally entangled measurement states.

    Element (j, k) has the amplitude vector

        (1/sqrt(d)) * sum_a exp(2 pi i k a / d) |a> ⊗ |a - j mod d>,

    operator form (1/sqrt(d)) Z^k X^j with Z the clock and X the shift
    matrix.  The phase must depend on the summation index a; a phase
    constant in a would collapse the k label and break orthonormality.
    Every element has all singular values equal to 1/sqrt(d), so the preset
    ``element_shape`` is ``(True, d == 1)``.  Element (j, k) holds the phase
    table entry F[k, a] = exp(2 pi i k a / d) / sqrt(d) at (a, a - j mod d),
    so the Gram matrix is d copies of conj(F) F^T and
    r = sqrt(d) ||conj(F) F^T - I||_F.
    """
    d = local_dim
    require_dimension(d, "local dimension")
    require_dense_size(d**4, f"a basis for d = {d}")
    j, k, a = np.ogrid[:d, :d, :d]
    elements = np.zeros((d * d, d, d), dtype=complex)
    elements.reshape(d, d, d, d)[j, k, a, (a - j) % d] = np.exp(2j * np.pi * k * a / d) / np.sqrt(d)
    return _built_in(d, elements, (True, bool(d == 1)))


def product_basis(local_dim: int) -> OperatorBasis:
    """Pure product basis: element (j, k) is |j><k|, i.e. |j> ⊗ |k>.

    The vectorized elements are the identity matrix, so r = 0 exactly, and
    each element has the one singular value 1: the preset ``element_shape``
    is ``(d == 1, True)``.
    """
    d = local_dim
    require_dimension(d, "local dimension")
    require_dense_size(d**4, f"a basis for d = {d}")
    elements = np.zeros((d * d, d, d), dtype=complex)
    np.fill_diagonal(elements.reshape(d * d, d * d), 1.0)
    return _built_in(d, elements, (bool(d == 1), True))


def custom_basis(elements, local_dim: Optional[int] = None) -> OperatorBasis:
    """Wrap user-supplied operators as a basis, checking shapes only.

    Run :func:`validate_basis` (or :func:`~teleportlab.teleport.build_setup`,
    which does; the ``TeleportSetup`` constructor does not) before trusting
    the result.
    """
    matrices = [as_square_matrix(e) for e in elements]
    if len({m.shape for m in matrices}) > 1:
        raise BasisStructureError("elements must all have the same shape")
    arr = np.array(matrices, dtype=complex)
    if arr.ndim != 3:
        raise BasisStructureError("elements must be a sequence of square matrices")
    d = local_dim if local_dim is not None else arr.shape[1]
    arr.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=arr)


def _unitarity_residual(rows: np.ndarray) -> float:
    """||R R^dag - I||_F of a square n x n matrix R: how far its rows are
    from orthonormal.

    G = conj(R) R^T is Hermitian, so over its b x b blocks G_ij

        r^2 = sum_i ||G_ii - I||_F^2 + 2 sum_{i<j} ||G_ij||_F^2,

    and only the blocks on and above the diagonal are formed, one at a time.
    A complex b x b block fills ``_BLOCK_BYTES`` (b = 256).  Each row block is
    conjugated into one reused (b, n) buffer, and 1 is subtracted from a
    diagonal block's diagonal in place, so no identity matrix is built.  For
    n <= b the one block is the whole Gram matrix.  Entries large enough to
    overflow give ``inf``, without a numpy warning.
    """
    n = len(rows)
    b = math.isqrt(_BLOCK_BYTES // np.dtype(complex).itemsize)
    conj = np.empty((min(b, n), n), dtype=complex)
    diagonal = off_diagonal = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, n, b):
            left = np.conjugate(rows[i:i + b], out=conj[:n - i])
            for j in range(i, n, b):
                block = left @ rows[j:j + b].T
                if j == i:
                    block.flat[::len(block) + 1] -= 1
                    diagonal += np.vdot(block, block).real
                else:
                    off_diagonal += np.vdot(block, block).real
        total = diagonal + 2 * off_diagonal
    return math.sqrt(total) if math.isfinite(total) else math.inf


def rotated_basis(basis: OperatorBasis, rotation: np.ndarray) -> OperatorBasis:
    """Rotate a basis by a unitary acting on the vectorized elements.

    Any unitary on the d^2-dimensional bipartite space maps an
    orthonormal operator basis to another one, which is the easiest way
    to manufacture exotic but valid custom bases.
    """
    w = as_square_matrix(rotation)
    n = len(basis)
    if w.shape != (n, n):
        raise DimensionError(f"rotation must be {n} x {n} for this basis")
    if not BasisValidationReport(_unitarity_residual(w)).passed:
        raise ValueError("rotation matrix is not unitary")
    d = basis.local_dim
    elements = np.empty((n, d, d), dtype=complex)
    np.matmul(basis.vectors(), w.T, out=elements.reshape(n, n))
    elements.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=elements)


@dataclass(frozen=True)
class BasisValidationReport:
    """Outcome of the basis check: ``residual`` is r = ||V V^dag - I||_F of
    the vectorized elements (module docstring), gated against ``BASIS_TOL``."""

    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= BASIS_TOL

    @property
    def failure(self) -> Optional[str]:
        """The failure text; ``None`` when the basis passes."""
        if self.passed:
            return None
        return f"basis is not orthonormal and complete (residual {self.residual:.3e})"


def validate_basis(basis: OperatorBasis) -> BasisValidationReport:
    """Check both defining relations of an orthonormal operator basis at once,
    by their common residual r over the Gram matrix of the elements.  A
    residual above ``BASIS_TOL`` is reported as a failure, not raised."""
    return BasisValidationReport(_unitarity_residual(basis.vectors()))
