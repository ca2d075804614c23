"""Operator form of bipartite pure states and entanglement diagnostics.

A pure state of two d-level systems, ``|C> = sum_jk C_jk |j> ⊗ |k>``,
is identified with the d x d matrix C of its amplitudes (the basis
dependent Choi correspondence).  Under this identification the vector
inner product becomes the Hilbert-Schmidt inner product Tr(C^dag D),
and the Schmidt data of the state are the singular values of C.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import (as_square_matrix, as_square_pair, as_state, dagger, frozen, normalize_state,
                     read_only, require_dimension, require_normalized)
from .tolerances import RANK_TOL


def vec_to_op(vector, local_dim: int) -> np.ndarray:
    """Reshape a length d^2 amplitude vector into its d x d operator form.

    Row-major: ``C[j, k] = vector[j * d + k]``, the coefficient of
    ``|j> ⊗ |k>``.
    """
    v = as_state(vector)
    require_dimension(local_dim, "local dimension")
    if v.size != local_dim * local_dim:
        raise DimensionError(
            f"vector of length {v.size} is not bipartite for local dimension {local_dim}"
        )
    return v.reshape(local_dim, local_dim).copy()


def op_to_vec(operator) -> np.ndarray:
    """Inverse of :func:`vec_to_op`: flatten a d x d operator row-major."""
    return as_square_matrix(operator).reshape(-1).copy()


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr(A^dag B)."""
    ma, mb = as_square_pair(a, b)
    # vdot conjugates its first argument and flattens, which is exactly
    # sum_jk conj(A_jk) B_jk = Tr(A^dag B).
    return complex(np.vdot(ma, mb))


def component_overlap(psi, phi, operator) -> complex:
    """Amplitude <psi ⊗ phi | C> evaluated on the operator side.

    Equals ``<psi| C |phi*>`` where phi* is the entrywise complex
    conjugate of phi in the fixed basis; the conjugation is the price
    of identifying kets with matrix columns.
    """
    vp = as_state(psi)
    vq = as_state(phi)
    m = as_square_matrix(operator)
    if vp.size != m.shape[0] or vq.size != m.shape[0]:
        raise DimensionError("state dimensions must match the operator")
    return complex(vp.conj() @ m @ vq.conj())


class EntanglementClass(enum.Enum):
    """Coarse classification of a bipartite pure state."""

    MAXIMALLY_ENTANGLED = "maximally-entangled"
    PRODUCT = "product"
    GENERIC = "generic"


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Normalized pure state of two d-level systems.

    ``vector`` is the read-only complex length d^2 amplitude vector
    (:func:`~teleportlab.linalg.read_only`), so the cached Schmidt spectrum
    cannot go stale.
    """

    vector: np.ndarray

    def __post_init__(self):
        v = as_state(read_only(self.vector))
        if math.isqrt(v.size) ** 2 != v.size:
            raise DimensionError(f"vector length {v.size} is not a perfect square")
        object.__setattr__(self, "vector", require_normalized(v, what="bipartite state"))

    @property
    def local_dim(self) -> int:
        """Dimension d of each factor."""
        return math.isqrt(self.vector.size)

    @property
    def operator_form(self) -> np.ndarray:
        """The amplitudes as a read-only d x d view, ``operator_form[j, k] == vector[j * d + k]``."""
        return self.vector.reshape(self.local_dim, -1)

    @cached_property
    def schmidt_coefficients(self) -> np.ndarray:
        """Singular values of the operator form, descending and read-only;
        one SVD per state, cached for the entanglement report and closed forms."""
        return frozen(np.linalg.svd(self.operator_form, compute_uv=False))

    @classmethod
    def from_vector(cls, vector) -> "BipartiteState":
        """Build from a normalized length d^2 amplitude vector
        (:func:`~teleportlab.linalg.normalize_state` rescales one that is not)."""
        return cls(vector)

    @classmethod
    def from_operator(cls, operator) -> "BipartiteState":
        """Build from the normalized d x d operator form of the amplitudes."""
        return cls.from_vector(as_square_matrix(operator).reshape(-1))


def maximally_entangled_state(local_dim: int) -> BipartiteState:
    """The standard maximally entangled state, operator form 1/sqrt(d)."""
    require_dimension(local_dim, "local dimension")
    return BipartiteState.from_operator(np.eye(local_dim, dtype=complex) / math.sqrt(local_dim))


def product_state(psi_a, psi_b) -> BipartiteState:
    """The product state psi_a ⊗ psi_b; factors are normalized first."""
    a = normalize_state(psi_a)
    b = normalize_state(psi_b)
    if a.size != b.size:
        raise DimensionError("both factors must have the same dimension")
    # C = |a><b^t|: the operator form of a product vector is the outer
    # product of its factors without conjugation.
    return BipartiteState.from_operator(np.outer(a, b))


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Schmidt data of a bipartite pure state.

    ``entropy`` is the von Neumann entropy of either reduced state,
    -sum sigma^2 ln sigma^2, in nats; it is 0 exactly for product
    states and ln d for maximally entangled ones.
    ``coefficient_entropy`` applies the same formula to the Schmidt
    coefficients with linear instead of squared weights,
    -sum sigma ln sigma; it is reported as a diagnostic and is not
    bounded by ln d.
    """

    schmidt_coefficients: np.ndarray
    entropy: float
    coefficient_entropy: float
    rank: int
    classification: EntanglementClass


def _entropy_term(weights: np.ndarray) -> float:
    # 0 * ln 0 := 0, the usual continuous extension.
    positive = weights[weights > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def schmidt_shape(coeffs: np.ndarray) -> tuple[bool | np.ndarray, int | np.ndarray]:
    """The package's one rank and flatness rule, ``(flat, rank)``, along the last axis.

    For descending spectra: flat when s_max - s_min <= RANK_TOL * s_max; rank
    counts the values above RANK_TOL.  It classifies resources and basis
    elements alike, one spectrum (a ``bool`` and an ``int``) or a stack.
    """
    flat = coeffs[..., 0] - coeffs[..., -1] <= RANK_TOL * coeffs[..., 0]
    rank = np.count_nonzero(coeffs > RANK_TOL, axis=-1)
    return (bool(flat), int(rank)) if coeffs.ndim == 1 else (flat, rank)


def analyze_entanglement(state: BipartiteState) -> EntanglementReport:
    """Schmidt spectrum, entropies, rank and classification of ``state``.

    Classification by :func:`schmidt_shape`: flat coefficients are
    maximally entangled; Schmidt rank one is a product state; anything
    else is generic.  For d = 1 the two notions coincide and maximally
    entangled is reported.
    """
    _require_state(state)
    coeffs = state.schmidt_coefficients
    flat, rank = schmidt_shape(coeffs)
    if flat:
        classification = EntanglementClass.MAXIMALLY_ENTANGLED
    elif rank == 1:
        classification = EntanglementClass.PRODUCT
    else:
        classification = EntanglementClass.GENERIC
    return EntanglementReport(
        schmidt_coefficients=coeffs,
        entropy=_entropy_term(coeffs**2),
        coefficient_entropy=_entropy_term(coeffs),
        rank=rank,
        classification=classification,
    )


def reduced_states(state: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Reduced density matrices of the two subsystems.

    In operator form these are rho_A = C C^dag and rho_B = (C^dag C)^t,
    the transpose taken without conjugation.  Both are Hermitian
    positive semidefinite with unit trace.
    """
    _require_state(state)
    c = state.operator_form
    rho_a = c @ dagger(c)
    rho_b = (dagger(c) @ c).T
    rho_a = 0.5 * (rho_a + dagger(rho_a))
    rho_b = 0.5 * (rho_b + dagger(rho_b))
    return rho_a, rho_b


def _require_state(state: BipartiteState) -> None:
    if not isinstance(state, BipartiteState):
        raise TypeError("expected a BipartiteState")
