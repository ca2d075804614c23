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
from functools import cached_property

import numpy as np

from .bases import BasisStructureError, OperatorBasis, validate_basis
from .choi import BipartiteState
from .errors import DimensionError
from .linalg import (_BLOCK_BYTES, _abs_from_svd, dagger, polar_unitary, require_count, require_dense_size,
                     require_finite, require_integer, require_normalized)
from .tolerances import ZERO_OUTCOME_TOL

# Complex d^4-entry stacks live at a setup's peak.  No command holds more
# than 3 at once, whatever order it reads T_xi and the rest in: the basis
# check holds the elements, one conjugated row block and one Gram block;
# verify holds the elements, T and the basis's vectors_t (3); teleport the
# elements and one block of T_xi (1), fidelity the same (1), and average the
# elements and the packed |T_xi| weights (1.5), since none of the three
# builds T.  The rest is fixed-size working sets (average's 20,000-state draw
# chunk, verify's chunk of states, _BLOCK_BYTES blocks), which shrink against
# a stack as d grows and pass 4 stacks only while a stack is small (1 MiB at
# d = 16).  The command rows of tests/test_budgets.py (verify-d24 to
# average-d32) bound each command by these held stacks plus a few blocks.
# verify's three stacks keep the budget at 4, and 4 * 64^4 is 2^26, so the
# constant sets the d <= 64 limit.
_PEAK_STACKS = 4


@dataclass(frozen=True, eq=False)
class TeleportSetup:
    """Immutable pair of resource state and measurement basis.

    T_xi has one formula, :meth:`_transfer_block`, over any range or list
    of outcomes.  ``transfer_ops[xi]`` is T_xi, its whole-range case, which
    only ``verify`` reads.  ``transfer_trace_norms[xi]`` is the trace norm
    Tr|T_xi|, all that the analytic E(F) needs, and |T_xi| is held only as
    ``transfer_abs_packed[xi]``, the Monte-Carlo kernel's weights, in the
    layout that property describes; both read fresh blocks of T_xi, never
    ``transfer_ops``, as ``teleport``'s probabilities and records do, so
    ``teleport``, ``fidelity`` and ``average`` hold no T stack.  Each is
    derived on first read and cached read-only.  For a normalized resource,
    sum_xi Tr(T_xi^dag T_xi) = d.
    Rank and flatness are cached on ``shared`` and ``basis``, which they
    describe.  The constructor checks dimensions and size, not the basis.
    """

    shared: BipartiteState
    basis: OperatorBasis

    def __post_init__(self):
        if self.shared.local_dim != self.basis.local_dim:
            raise DimensionError(
                f"shared state dimension {self.shared.local_dim} does not match "
                f"basis dimension {self.basis.local_dim}"
            )
        require_setup_fits(self.local_dim)

    @property
    def local_dim(self) -> int:
        return self.shared.local_dim

    def _transfer_block(self, outcomes) -> np.ndarray:
        """T_xi = C^t B_xi^dag for the outcomes ``outcomes``, a slice or a
        list of xi, as a fresh writable (k, d, d) array, one T_xi per outcome:
        C^dag B_xi^t over a transposed view of the sliced or gathered
        elements, conjugated in place, so no conjugated copy of the elements
        is made.  Negation is exact, so the bits are those of
        C^t conj(B_xi)^t, and each T_xi is one product, the same whichever
        block it falls in."""
        elements_t = self.basis.elements[outcomes].transpose(0, 2, 1)
        block = np.matmul(dagger(self.shared.operator_form), elements_t)
        np.conjugate(block, out=block)
        return block

    @cached_property
    def transfer_ops(self) -> np.ndarray:
        """T_xi for every outcome, shape (d^2, d, d): the whole-range
        :meth:`_transfer_block`."""
        transfer_ops = self._transfer_block(slice(None))
        transfer_ops.setflags(write=False)
        return transfer_ops

    @cached_property
    def transfer_trace_norms(self) -> np.ndarray:
        """Tr|T_xi| for every outcome, shape (d^2,): the row sums of one
        singular-value call per ``_rows_per_block`` block of fresh T_xi, so
        no singular vector, no |T_xi| and no whole T stack is built."""
        trace_norms = np.empty(len(self.basis))
        rows = _rows_per_block(self.local_dim)
        for start in range(0, len(trace_norms), rows):
            s = np.linalg.svd(self._transfer_block(slice(start, start + rows)), compute_uv=False)
            trace_norms[start:start + rows] = s.sum(axis=1)
        trace_norms.setflags(write=False)
        return trace_norms

    @cached_property
    def transfer_abs_packed(self) -> np.ndarray:
        """|T_xi| packed as real weights, C-contiguous shape (d^2, d^2).

        Row xi holds the diagonal A_ii of the Hermitian A = |T_xi|, then
        2 Re A_ij and 2 Im A_ij, interleaved, for each pair i < j in
        ``np.triu_indices(d, 1)`` order: d^2 reals, since the lower triangle
        is the conjugate of the upper.  <psi| |T_xi| |psi> is the dot product
        of that row with the same packing of |psi><psi| without the factor 2
        (:func:`state_fidelity_batch`).
        One ``_rows_per_block`` block of outcomes at a time forms its T_xi
        fresh, takes one stacked SVD of them, forms their |T_xi| (bit-equal
        to :func:`operator_abs` of each) and packs them, so neither T nor a
        complex |T| stack is ever held and the temporaries stay within a few
        ``_BLOCK_BYTES`` on top of the result.
        """
        d = self.local_dim
        i, j = np.triu_indices(d, 1)
        upper = i * d + j
        packed = np.empty((d * d, d * d))
        rows = _rows_per_block(d)
        for start in range(0, len(packed), rows):
            # U is freed as soon as the call returns, not held through the block.
            s, vh = np.linalg.svd(self._transfer_block(slice(start, start + rows)))[1:]
            block = _abs_from_svd(s, vh).reshape(-1, d * d)
            packed[start:start + rows, :d] = block[:, ::d + 1].real
            np.multiply(block.take(upper, axis=1).view(float), 2.0, out=packed[start:start + rows, d:])
        packed.setflags(write=False)
        return packed


@dataclass(frozen=True, eq=False)
class TeleportOutcome:
    """One measurement event of the protocol.

    ``raw_conditional_state`` is T_xi psi normalized (what the receiver
    holds before correcting), ``corrected_state`` the state after the
    optimal unitary, equal to |T_xi| psi normalized; both are read-only,
    since shots with the same xi share one record.  For outcomes with
    vanishing probability both fields hold one zero-vector sentinel and the
    conditional fidelity is 0.
    """

    xi: int
    probability: float
    raw_conditional_state: np.ndarray
    corrected_state: np.ndarray
    conditional_fidelity: float


def _rows_per_block(local_dim: int) -> int:
    """How many complex d x d matrices fit in ``_BLOCK_BYTES`` (at least one).

    Also the input rows of one block of :func:`state_fidelity_batch`: a row's
    packed features, |psi_i|^2 and then the (re, im) of psi_i conj(psi_j) for
    i < j, are d^2 reals, half the bytes of a complex d x d matrix.
    """
    return max(1, _BLOCK_BYTES // (np.dtype(complex).itemsize * local_dim**2))


def _trials_per_chunk(local_dim: int) -> int:
    """How many input states :func:`verify_identity` checks at once (at least
    one), and how many ``verify`` draws at once.  A chunk makes T psi, its
    transposed copy, the right side and the left side, d^3 complex entries
    per state each; the four fit in ``_BLOCK_BYTES``, and the left side
    reuses the copy, so at most three are held at once.
    """
    return max(1, _BLOCK_BYTES // (4 * np.dtype(complex).itemsize * local_dim**3))


def require_setup_fits(local_dim: int) -> None:
    """Raise :class:`DimensionError`, giving the estimate, when a setup's peak
    of ``_PEAK_STACKS`` complex d^4-entry stacks exceeds the dense size limit."""
    require_dense_size(_PEAK_STACKS * local_dim**4, f"a setup for d = {local_dim} at peak")


def build_setup(shared: BipartiteState, basis: OperatorBasis) -> TeleportSetup:
    """Construct the setup, then check the basis: an invalid one raises
    :class:`BasisStructureError` with the report's failure text.  A built-in
    basis (``basis.built_in``) is valid by construction and is not checked;
    every other basis is checked once.  T and the packed |T| are built only
    when first read.
    """
    setup = TeleportSetup(shared, basis)
    if not basis.built_in:
        failure = validate_basis(basis).failure
        if failure:
            raise BasisStructureError(failure)
    return setup


def verify_identity(psi, setup: TeleportSetup) -> float | np.ndarray:
    """Residual of the teleportation identity for concrete input states.

    ``psi`` is one state of dimension d, giving a float, or an (n, d) array
    of states, giving the (n,) residual of each row.  Builds both sides as
    vectors on the triple tensor product, left side psi ⊗ |C>, right side
    sum_xi |B_xi> ⊗ (T_xi psi), and returns the Euclidean norm of their
    difference.  The identity is exact for any orthonormal basis and any
    shared state, so the residual is floating point noise unless the setup
    is corrupted.

    Rows go through in chunks of :func:`_trials_per_chunk`, each step one
    batch, and a row's residual has the bits it has alone, so one state is
    the one-row case.  That rests on numpy's loops, not on the formula, and
    tests pin it: einsum adds xi along the contiguous last axis of
    ``basis.vectors_t`` and of the transposed T_xi psi in the order of the
    strided ``einsum("xi,xm->im", vectors(), transfer_ops @ psi)``; the left
    side multiplies operands of equal rank, as ``np.outer`` does (a rank-1
    resource vector gives other bits at d = 1); and each row's norm is the
    square root of one stacked ``matmul`` of its real parts with themselves
    plus one of its imaginary parts, the two dot products ``np.linalg.norm``
    of that one row adds, since ``norm`` over an axis adds in another order.
    """
    d = setup.local_dim
    states = _sized_input(np.asarray(psi, dtype=complex), setup)
    require_finite(states, ValueError("vector entries must be finite (no NaN/Inf)"))
    rows = states.reshape(-1, d)
    chunk = _trials_per_chunk(d)
    residuals = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        residuals[start:start + chunk] = _chunk_residuals(rows[start:start + chunk], setup)
    return residuals if states.ndim == 2 else float(residuals[0])


def _chunk_residuals(v: np.ndarray, setup: TeleportSetup) -> np.ndarray:
    """The identity residual of each row of ``v``, one batch per step.  The
    left side is written over the transposed T psi once the contraction has
    read it, and the chunk's arrays are freed on return, before the next
    chunk's are made."""
    m, d = v.shape
    t_psi = np.ascontiguousarray(_transfer_images(v, setup.transfer_ops).transpose(0, 2, 1))
    diff = np.einsum("ix,nmx->nim", setup.basis.vectors_t, t_psi).reshape(m, d, d * d)
    diff -= np.multiply(v[:, :, None], setup.shared.vector[None, None, :], out=t_psi)
    rows = diff.reshape(m, 1, -1)
    re, im = rows.real, rows.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)).reshape(m))


def _transfer_images(v: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """T_xi v for each T_xi of the stack ``transfer`` (k, d, d): shape (k, d)
    for one state v of shape (d,), and (n, k, d) for rows of states (n, d).
    Each state takes one flat (k d, d) product with its column; tests pin its
    bits to each T_xi @ v."""
    k, d = transfer.shape[:2]
    return (transfer.reshape(-1, d) @ v[..., None]).reshape(*v.shape[:-1], k, d)


def _sized_input(states: np.ndarray, setup: TeleportSetup) -> np.ndarray:
    """``states``, one state or rows of states, if each has the setup's dimension."""
    if states.ndim not in (1, 2) or states.shape[-1] != setup.local_dim:
        raise DimensionError(f"input state must have dimension {setup.local_dim}")
    return states


def _input_state(psi, setup: TeleportSetup) -> np.ndarray:
    return _sized_input(require_normalized(psi, what="input state"), setup)


def _probabilities(v: np.ndarray, setup: TeleportSetup) -> np.ndarray:
    """||T_xi v||^2 for every xi of one state v: the :func:`_transfer_images`
    of one ``_rows_per_block`` block of fresh T_xi at a time, so no T stack is
    held, then one einsum over all xi; tests pin the images' bits to each
    T_xi @ v."""
    rows = _rows_per_block(setup.local_dim)
    images = np.concatenate([_transfer_images(v, setup._transfer_block(slice(start, start + rows)))
                             for start in range(0, len(setup.basis), rows)])
    return np.einsum("xi,xi->x", images.conj(), images).real


def outcome_probabilities(psi, setup: TeleportSetup) -> np.ndarray:
    """p(xi | psi) = ||T_xi psi||^2 for every outcome; sums to 1."""
    return _probabilities(_input_state(psi, setup), setup)


def optimal_correction(transfer) -> np.ndarray:
    """The receiver's best recovery unitary for a transfer operator, or for
    each of a stack of them.

    Returns U^dag for the polar decomposition T = U |T|, so that
    applying it to the raw conditional state yields |T| psi normalized;
    |T| itself is not formed.  On the null space of a singular T the
    unitary is an arbitrary completion, which cannot matter: those
    directions never receive amplitude.
    """
    return dagger(polar_unitary(transfer))


def _outcome_records(v: np.ndarray, setup: TeleportSetup, xis) -> list[TeleportOutcome]:
    """The record of each of the distinct outcomes ``xis``, in their order,
    for the checked input ``v``, in blocks of a quarter of
    ``_rows_per_block(d)``, so that T block, U, V^dag and U V^dag fit in
    ``_BLOCK_BYTES``.  Each block forms its T_xi once, from the gathered
    elements, and T_xi v from them.  An outcome whose T_xi v has norm at most
    ``ZERO_OUTCOME_TOL`` gets the zero-vector sentinel; the block's others take
    one stacked :func:`optimal_correction`, and a block with none takes no SVD.
    """
    d = setup.local_dim
    rows = max(1, _rows_per_block(d) // 4)
    records = []
    for start in range(0, len(xis), rows):
        block = xis[start:start + rows]
        transfer = setup._transfer_block(block)
        images = _transfer_images(v, transfer)
        norms = [float(np.linalg.norm(image)) for image in images]
        live = [i for i, norm in enumerate(norms) if norm > ZERO_OUTCOME_TOL]
        corrections = dict(zip(live, optimal_correction(transfer[live]) if live else ()))
        for i, (xi, image, norm) in enumerate(zip(block, images, norms)):
            if i in corrections:
                raw = image / norm
                corrected = corrections[i] @ raw
                records.append(_record(xi, norm * norm, raw, corrected, float(np.abs(np.vdot(v, corrected)) ** 2)))
            else:
                zero = np.zeros(d, dtype=complex)
                records.append(_record(xi, 0.0, zero, zero, 0.0))
    return records


def _record(xi, probability, raw, corrected, fidelity) -> TeleportOutcome:
    """A read-only :class:`TeleportOutcome`; ``raw`` and ``corrected`` are frozen."""
    raw.setflags(write=False)
    corrected.setflags(write=False)
    return TeleportOutcome(xi=xi, probability=probability, raw_conditional_state=raw,
                           corrected_state=corrected, conditional_fidelity=fidelity)


def realize_outcome(psi, setup: TeleportSetup, xi: int) -> TeleportOutcome:
    """Construct the full outcome record for measurement result ``xi``, from
    its own T_xi alone, not all d^2 of them."""
    v = _input_state(psi, setup)
    require_integer(xi, "outcome index")
    if not 0 <= xi < len(setup.basis):
        raise DimensionError(f"outcome index {xi} out of range")
    return _outcome_records(v, setup, [xi])[0]


def enumerate_outcomes(psi, setup: TeleportSetup) -> list[TeleportOutcome]:
    """Outcome records for all d^2 measurement results, in xi order."""
    return _outcome_records(_input_state(psi, setup), setup, range(len(setup.basis)))


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

    Every T_xi is formed once for the probabilities, which the draw needs
    whole, and each drawn xi's T_xi once more for its record.  One record is
    built per distinct xi, so shots with the same xi share one record
    object, and the corrections take one stacked SVD call per block of
    distinct outcomes (:func:`_outcome_records`), whatever ``size`` is.
    """
    if size is not None:
        require_count(size, "size")
    v = _input_state(psi, setup)
    probs = _probabilities(v, setup)
    total = probs.sum()
    if total <= 0.0:
        raise AssertionError("probability vector vanished for a normalized input")
    cdf = np.cumsum(probs / total)
    # A draw at or past a CDF that ends below 1 lands past the end: it takes
    # the last outcome of nonzero probability, not the last outcome.  The
    # shots' xi stay one integer array until the records are built.
    xis = np.minimum(np.searchsorted(cdf, rng.random(1 if size is None else size), side="right"),
                     np.flatnonzero(probs)[-1])
    distinct = np.flatnonzero(np.bincount(xis)).tolist()
    records = dict(zip(distinct, _outcome_records(v, setup, distinct)))
    outcomes = list(map(records.__getitem__, xis.tolist()))
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

    Rows are assumed normalized; this is the Monte-Carlo hot path.  With
    rho = |psi><psi| and A Hermitian, both matrices are fixed by their
    diagonal and upper triangle, and

        <psi|A|psi> = sum_i rho_ii A_ii
                      + 2 sum_{i<j} (Re rho_ij Re A_ij + Im rho_ij Im A_ij).

    A row's features are therefore the d^2 reals |psi_i|^2, then the
    interleaved (re, im) of psi_i conj(psi_j) for the pairs i < j: the
    layout of ``transfer_abs_packed``, whose rows carry the factor 2.  All
    d^2 overlaps of a row are one real GEMM of the features, shape
    (rows, d^2), against the transposed view of the packed weights, shape
    (d^2, d^2), which is not copied.  Rows go through in ``_rows_per_block``
    blocks, so the working memory does not grow with n.
    """
    psis = np.asarray(psis, dtype=complex)
    d = setup.local_dim
    if psis.ndim != 2 or psis.shape[1] != d:
        raise DimensionError(f"expected shape (n, {d})")
    weights = setup.transfer_abs_packed.T
    i, j = np.triu_indices(d, 1)
    rows = _rows_per_block(d)
    fidelities = np.empty(psis.shape[0])
    for start in range(0, psis.shape[0], rows):
        block = psis[start:start + rows]
        features = np.empty((len(block), d * d))
        features[:, :d] = block.real**2 + block.imag**2
        features[:, d:] = (block.take(i, axis=1) * block.take(j, axis=1).conj()).view(float)
        overlaps = features @ weights
        fidelities[start:start + rows] = np.einsum("nx,nx->n", overlaps, overlaps)
    return fidelities
