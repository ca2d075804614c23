"""Transfer operators and the teleportation protocol.

For a shared bipartite resource with operator form C and a measurement
basis {B_xi}, the transfer operators are

    T_xi = C^t B_xi^dag        (plain transpose, no conjugation)

and the algebraic heart of teleportation is the exact identity

    |psi> ⊗ |C>  =  sum_xi |B_xi> ⊗ T_xi |psi>

on the triple tensor product: the unknown state reappears on the far
factor, filtered through T_xi, the instant the near pair is expanded in
the measurement basis.  Measuring outcome xi therefore prepares the far
system in T_xi|psi> (normalized) with probability ||T_xi psi||^2, and
the best recovery the receiver can apply is the unitary that undoes the
polar factor of T_xi, leaving |T_xi| psi (normalized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import BasisStructureError, OperatorBasis, validate_basis
from .choi import BipartiteState
from .errors import DimensionError
from .linalg import as_state, dagger, operator_abs, polar_decompose, require_dense_size, require_normalized
from .tolerances import BASIS_TOL, ZERO_OUTCOME_TOL

# Bytes of vec(|psi><psi|) that state_fidelity_batch forms at once.
_BLOCK_BYTES = 1 << 20

# Completeness trials run by build_setup's basis check.
_VALIDATION_TRIALS = 4

# Complex d^4-entry stacks live at a setup's peak: elements, T_xi, |T_xi| and a
# temporary (traced peaks of the CLI commands at d = 16 and 24: 3.0-4.3 stacks).
_PEAK_STACKS = 4


@dataclass(frozen=True)
class TeleportSetup:
    """Immutable bundle of resource state, measurement basis and the
    derived transfer operators.

    ``transfer_ops[xi]`` is T_xi; ``transfer_abs[xi]`` caches |T_xi|,
    which drives both the optimal correction and every fidelity formula.
    For a normalized resource, sum_xi Tr(T_xi^dag T_xi) = d.  Rank and
    flatness are cached on ``shared`` and ``basis``, which they describe.
    """

    shared: BipartiteState
    basis: OperatorBasis
    transfer_ops: np.ndarray
    transfer_abs: np.ndarray

    @property
    def local_dim(self) -> int:
        return self.shared.local_dim


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement event of the protocol.

    ``raw_conditional_state`` is T_xi psi normalized (what the receiver
    holds before correcting), ``corrected_state`` the state after the
    optimal unitary, equal to |T_xi| psi normalized.  For outcomes with
    vanishing probability both states are zero-vector sentinels and the
    conditional fidelity is 0.
    """

    xi: int
    probability: float
    raw_conditional_state: np.ndarray
    corrected_state: np.ndarray
    correction: np.ndarray
    conditional_fidelity: float


def require_setup_fits(local_dim: int) -> None:
    """Raise :class:`DimensionError`, giving the estimate, when a setup's peak
    of ``_PEAK_STACKS`` complex d^4-entry stacks exceeds the dense size limit."""
    require_dense_size(_PEAK_STACKS * local_dim**4, f"a setup for d = {local_dim} at peak")


def build_setup(shared: BipartiteState, basis: OperatorBasis, *,
                validate: bool = True) -> TeleportSetup:
    """Derive the transfer operators for a resource state and basis.

    :func:`require_setup_fits` and the basis check (skippable for bases
    known good) run before the transfer stack is allocated; an invalid
    basis raises :class:`BasisStructureError` naming the relation.
    """
    if shared.local_dim != basis.local_dim:
        raise DimensionError(
            f"shared state dimension {shared.local_dim} does not match "
            f"basis dimension {basis.local_dim}"
        )
    require_setup_fits(shared.local_dim)
    if validate:
        report = validate_basis(basis, trials=_VALIDATION_TRIALS)
        if not report.passed:
            raise BasisStructureError(
                f"measurement basis violates {report.failed_relation}: residual "
                f"{max(report.orthonormality_residual, report.completeness_residual):.3e} "
                f"exceeds {BASIS_TOL:.1e}"
            )
    ct = shared.operator_form.T
    transfer_ops = np.matmul(ct, basis.elements.conj().transpose(0, 2, 1))
    transfer_abs = np.empty_like(transfer_ops)
    for xi in range(transfer_ops.shape[0]):
        transfer_abs[xi] = operator_abs(transfer_ops[xi])
    transfer_ops.setflags(write=False)
    transfer_abs.setflags(write=False)
    return TeleportSetup(
        shared=shared,
        basis=basis,
        transfer_ops=transfer_ops,
        transfer_abs=transfer_abs,
    )


def verify_identity(psi, setup: TeleportSetup) -> float:
    """Residual of the teleportation identity for a concrete input state.

    Builds both sides as vectors on the triple tensor product, left side
    psi ⊗ |C>, right side sum_xi |B_xi> ⊗ (T_xi psi), and returns the
    Euclidean norm of their difference.  The identity is exact for any
    orthonormal basis and any shared state, so the residual is floating
    point noise unless the setup is corrupted.
    """
    v = as_state(psi)
    d = setup.local_dim
    if v.size != d:
        raise DimensionError(f"input state must have dimension {d}")
    lhs = np.kron(v, setup.shared.vector)
    t_psi = setup.transfer_ops @ v
    rhs = np.einsum("xi,xm->im", setup.basis.vectors(), t_psi).reshape(-1)
    return float(np.linalg.norm(lhs - rhs))


def _input_state(psi, setup: TeleportSetup) -> np.ndarray:
    v = require_normalized(psi, what="input state")
    if v.size != setup.local_dim:
        raise DimensionError(f"input state must have dimension {setup.local_dim}")
    return v


def outcome_probabilities(psi, setup: TeleportSetup) -> np.ndarray:
    """p(xi | psi) = ||T_xi psi||^2 for every outcome; sums to 1."""
    v = _input_state(psi, setup)
    amplitudes = setup.transfer_ops @ v
    return np.einsum("xi,xi->x", amplitudes.conj(), amplitudes).real


def optimal_correction(transfer) -> np.ndarray:
    """The receiver's best recovery unitary for one transfer operator.

    Returns U^dag for the polar decomposition T = U |T|, so that
    applying it to the raw conditional state yields |T| psi normalized.
    On the null space of a singular T the unitary is an arbitrary
    completion, which cannot matter: those directions never receive
    amplitude.
    """
    return dagger(polar_decompose(transfer)[0])


def realize_outcome(psi, setup: TeleportSetup, xi: int) -> TeleportOutcome:
    """Construct the full outcome record for measurement result ``xi``."""
    v = _input_state(psi, setup)
    if not 0 <= xi < len(setup.basis):
        raise DimensionError(f"outcome index {xi} out of range")
    t = setup.transfer_ops[xi]
    t_psi = t @ v
    norm = float(np.linalg.norm(t_psi))
    correction = optimal_correction(t)
    if norm <= ZERO_OUTCOME_TOL:
        zero = np.zeros(setup.local_dim, dtype=complex)
        return TeleportOutcome(
            xi=xi,
            probability=0.0,
            raw_conditional_state=zero,
            corrected_state=zero.copy(),
            correction=correction,
            conditional_fidelity=0.0,
        )
    raw = t_psi / norm
    corrected = correction @ raw
    fidelity = float(np.abs(np.vdot(v, corrected)) ** 2)
    return TeleportOutcome(
        xi=xi,
        probability=norm * norm,
        raw_conditional_state=raw,
        corrected_state=corrected,
        correction=correction,
        conditional_fidelity=fidelity,
    )


def enumerate_outcomes(psi, setup: TeleportSetup) -> list[TeleportOutcome]:
    """Outcome records for all d^2 measurement results, in xi order."""
    return [realize_outcome(psi, setup, xi) for xi in range(len(setup.basis))]


def sample_outcome(psi, setup: TeleportSetup, rng: np.random.Generator,
                   size: int | None = None) -> TeleportOutcome | list[TeleportOutcome]:
    """Draw measurement outcomes and their conditional data.

    ``size=None`` returns one :class:`TeleportOutcome`; ``size=n``
    returns a list of n outcomes, one per shot.  Inverse-CDF sampling
    over the fixed xi ordering, with the probability vector renormalized
    by its computed sum to absorb float drift.  Every shot consumes one
    uniform variate from a single ``rng.random`` draw, so ``size=n``
    leaves ``rng`` exactly where n scalar calls would and selects the
    same xi sequence.  Zero-probability outcomes are never selected.

    One record is built per distinct xi, so a call runs at most d^2
    correction SVDs whatever ``size`` is, and shots with the same xi
    share one record object.
    """
    probs = outcome_probabilities(psi, setup)
    total = probs.sum()
    if total <= 0.0:
        raise AssertionError("probability vector vanished for a normalized input")
    cdf = np.cumsum(probs / total)
    draws = rng.random(1 if size is None else size)
    xis = np.minimum(np.searchsorted(cdf, draws, side="right"), len(probs) - 1).tolist()
    records = {xi: realize_outcome(psi, setup, xi) for xi in set(xis)}
    outcomes = [records[xi] for xi in xis]
    return outcomes[0] if size is None else outcomes


def state_fidelity(psi, setup: TeleportSetup) -> float:
    """Average teleportation fidelity for one concrete input state.

    With the optimal correction applied on every branch this is

        F(psi) = sum_xi ( <psi| |T_xi| |psi> )^2,

    each term being probability times conditional fidelity.  Evaluated
    by :func:`state_fidelity_batch` on a one-row batch.
    """
    v = _input_state(psi, setup)
    return float(state_fidelity_batch(v[None, :], setup)[0])


def state_fidelity_batch(psis: np.ndarray, setup: TeleportSetup) -> np.ndarray:
    """Vectorized :func:`state_fidelity` for rows of ``psis`` (n, d).

    Rows are assumed normalized; this is the Monte-Carlo hot path.  For
    Hermitian A,

        <psi|A|psi> = Re sum_ij conj(rho_ij) A_ij,   rho = |psi><psi|,

    which is the real dot product of vec(rho) and vec(A) with both viewed
    as interleaved (re, im) float pairs.  All d^2 overlaps of a row are
    therefore one real GEMM of the rows' vec(rho), shape (rows, 2 d^2),
    against the float view of ``transfer_abs``, shape (d^2, 2 d^2),
    which is used in place, not copied.  Rows go through in blocks whose
    vec(rho) take at most ``_BLOCK_BYTES``, so the working memory does
    not grow with n.
    """
    psis = np.asarray(psis, dtype=complex)
    d = setup.local_dim
    if psis.ndim != 2 or psis.shape[1] != d:
        raise DimensionError(f"expected shape (n, {d})")
    weights = setup.transfer_abs.reshape(-1, d * d).view(float).T
    rows = max(1, _BLOCK_BYTES // (psis.itemsize * d * d))
    fidelities = np.empty(psis.shape[0])
    for start in range(0, psis.shape[0], rows):
        block = psis[start:start + rows]
        rho = (block[:, :, None] * block.conj()[:, None, :]).reshape(len(block), -1)
        overlaps = rho.view(float) @ weights
        fidelities[start:start + rows] = np.einsum("nx,nx->n", overlaps, overlaps)
    return fidelities
