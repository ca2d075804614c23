"""Orthonormal operator bases for the measurement side of teleportation.

A family of d^2 matrices {B_xi} is an orthonormal operator basis when

    Tr(B_xi^dag B_eta) = delta_{xi,eta}
    sum_xi B_xi^dag A B_xi = Tr(A) * identity   for every A.

Equivalently, the vectorized elements form an orthonormal basis of the
d^2-dimensional bipartite space.  Two standard constructions are
provided (generalized Bell and pure product), plus rotation into
arbitrary custom bases and a numerical validator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .choi import schmidt_shape
from .errors import BasisStructureError, DimensionError
from .linalg import as_square_matrix
from .tolerances import BASIS_TOL

# Seed of the completeness spot check's generator, so that validation is
# reproducible without the caller threading a seed through.
_VALIDATION_SEED = 0x0B5E5


class BasisKind(enum.Enum):
    BELL = "bell"
    PRODUCT = "product"
    CUSTOM = "custom"


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered family of d^2 operators indexed by xi = j * d + k.

    ``elements`` has shape (d^2, d, d); ``elements[xi]`` is the operator
    form of the xi-th measurement vector.
    """

    local_dim: int
    elements: np.ndarray
    kind: BasisKind = BasisKind.CUSTOM

    def __post_init__(self):
        d = self.local_dim
        if d < 1:
            raise DimensionError("local dimension must be at least 1")
        if self.elements.shape != (d * d, d, d):
            raise BasisStructureError(
                f"a basis for local dimension {d} needs {d * d} elements of shape "
                f"{d} x {d}, got array of shape {self.elements.shape}"
            )
        if not np.all(np.isfinite(self.elements)):
            raise ValueError("basis elements must be finite")

    def __len__(self) -> int:
        return self.elements.shape[0]

    def vectors(self) -> np.ndarray:
        """The elements as rows of a (d^2, d^2) matrix of amplitude vectors."""
        n = len(self)
        return self.elements.reshape(n, n)

    @cached_property
    def element_shape(self) -> tuple[bool, bool]:
        """Cached ``(all_flat, all_rank_one)`` by :func:`~teleportlab.choi.schmidt_shape`:
        one SVD per element in xi order, stopping at the first that shows the
        basis is neither.  Measured, since any elements may carry any ``kind``."""
        all_flat = all_rank_one = True
        for el in self.elements:
            flat, rank = schmidt_shape(np.linalg.svd(el, compute_uv=False))
            all_flat &= flat
            all_rank_one &= rank == 1
            if not (all_flat or all_rank_one):
                break
        return all_flat, all_rank_one


def bell_basis(local_dim: int) -> OperatorBasis:
    """Generalized Bell basis: d^2 maximally entangled measurement states.

    Element (j, k) has the amplitude vector

        (1/sqrt(d)) * sum_a exp(2 pi i k a / d) |a> ⊗ |a - j mod d>,

    operator form (1/sqrt(d)) Z^k X^j with Z the clock and X the shift
    matrix.  The phase must depend on the summation index a; a phase
    constant in a would collapse the k label and break orthonormality.
    Every element has all singular values equal to 1/sqrt(d).
    """
    d = local_dim
    if d < 1:
        raise DimensionError("local dimension must be at least 1")
    a = np.arange(d)
    elements = np.zeros((d * d, d, d), dtype=complex)
    for j in range(d):
        cols = (a - j) % d
        for k in range(d):
            phases = np.exp(2j * np.pi * k * a / d) / np.sqrt(d)
            elements[j * d + k][a, cols] = phases
    elements.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=elements, kind=BasisKind.BELL)


def product_basis(local_dim: int) -> OperatorBasis:
    """Pure product basis: element (j, k) is |j><k|, i.e. |j> ⊗ |k>."""
    d = local_dim
    if d < 1:
        raise DimensionError("local dimension must be at least 1")
    elements = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    elements.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=elements, kind=BasisKind.PRODUCT)


def custom_basis(elements, local_dim: Optional[int] = None) -> OperatorBasis:
    """Wrap user-supplied operators as a basis, checking shapes only.

    Run :func:`validate_basis` (or build a teleportation setup, which
    does) before trusting the result.
    """
    arr = np.array([as_square_matrix(e) for e in elements], dtype=complex)
    if arr.ndim != 3:
        raise BasisStructureError("elements must be a sequence of square matrices")
    d = local_dim if local_dim is not None else arr.shape[1]
    arr.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=arr, kind=BasisKind.CUSTOM)


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
    if np.max(np.abs(w.conj().T @ w - np.eye(n))) > BASIS_TOL:
        raise ValueError("rotation matrix is not unitary")
    d = basis.local_dim
    elements = (basis.vectors() @ w.T).reshape(n, d, d)
    elements.setflags(write=False)
    return OperatorBasis(local_dim=d, elements=elements, kind=BasisKind.CUSTOM)


@dataclass(frozen=True)
class BasisValidationReport:
    """Outcome of the two orthonormal-basis checks.

    ``orthonormality_residual`` is the largest deviation of the pairwise
    Hilbert-Schmidt Gram matrix from the identity (checked exhaustively).
    ``completeness_residual`` is the largest entrywise deviation of
    sum_xi B_xi^dag A B_xi from Tr(A) * identity over the seeded random
    trial matrices A.  Both residuals are gated against the same
    ``tolerance``; orthonormality is reported first when both fail.
    """

    passed: bool
    orthonormality_residual: float
    completeness_residual: float
    failed_relation: Optional[str]
    tolerance: float


def validate_basis(basis: OperatorBasis, trials: int = 8) -> BasisValidationReport:
    """Check both defining relations of an orthonormal operator basis.

    Orthonormality is checked exhaustively over all element pairs;
    completeness against ``trials`` random complex matrices A, drawn from
    a generator seeded with ``_VALIDATION_SEED``, so every call sees the
    same trial matrices.  Each trial is contracted as two matrix products,
    A B_xi for all xi at once and then the sum over (xi, row) against the
    conjugated elements, so its working memory is two copies of the
    element stack.  Residuals above ``BASIS_TOL`` are reported as a
    failure, not raised.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(_VALIDATION_SEED)
    d = basis.local_dim
    n = len(basis)

    vecs = basis.vectors()
    # The Gram matrix is as large as the element stack; it is not kept
    # alive through the trials below.
    orth_residual = float(np.max(np.abs(vecs.conj() @ vecs.T - np.eye(n))))

    # sum_xi B_xi^dag A B_xi is a sum over (xi, b) of conj(B_xi[b, a]) *
    # (A B_xi)[b, c]: one (d, d^2 d) x (d^2 d, d) product per trial.
    elements = basis.elements
    left = elements.conj().reshape(n * d, d).T
    identity = np.eye(d)
    comp_residual = 0.0
    for _ in range(trials):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        total = left @ np.matmul(a, elements).reshape(n * d, d)
        comp_residual = max(comp_residual, float(np.max(np.abs(total - np.trace(a) * identity))))

    failed = None
    if orth_residual > BASIS_TOL:
        failed = "orthonormality"
    elif comp_residual > BASIS_TOL:
        failed = "completeness"
    return BasisValidationReport(
        passed=failed is None,
        orthonormality_residual=orth_residual,
        completeness_residual=comp_residual,
        failed_relation=failed,
        tolerance=BASIS_TOL,
    )
