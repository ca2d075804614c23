"""Independent oracles used to pin expected values.

Deliberately self-contained: nothing here may call into teleportlab, so
a bug in the package cannot hide behind an oracle computed by the same
code path.
"""

import cmath
import json
import math
import tracemalloc

import numpy as np


def peak_bytes(call):
    """Run ``call()`` under tracemalloc; return its result and the peak
    bytes traced during the call above those traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


def dagger(m):
    return np.asarray(m).conj().T


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, d):
    # QR with the standard phase fix; independent of the package generator.
    q, r = np.linalg.qr(random_complex(rng, (d, d)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def singular_values_2x2(m):
    """Singular values of a 2x2 matrix from the characteristic polynomial
    of M^dag M, sorted descending."""
    m = np.asarray(m, dtype=complex)
    g = dagger(m) @ m
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    vals = sorted((abs(lam1), abs(lam2)), reverse=True)
    return np.array([math.sqrt(v) for v in vals])


def sqrt_psd_2x2(h):
    """Square root of a 2x2 Hermitian PSD matrix by explicit spectral
    decomposition."""
    h = np.asarray(h, dtype=complex)
    evals, evecs = np.linalg.eigh(h)
    evals = np.clip(evals.real, 0.0, None)
    return evecs @ np.diag(np.sqrt(evals)) @ dagger(evecs)


def partial_trace_a(vector, d):
    """rho_A by brute-force index summation over the d^2 amplitudes."""
    v = np.asarray(vector, dtype=complex)
    rho = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for jp in range(d):
            rho[j, jp] = sum(v[j * d + k] * np.conj(v[jp * d + k]) for k in range(d))
    return rho


def partial_trace_b(vector, d):
    """rho_B by brute-force index summation over the d^2 amplitudes."""
    v = np.asarray(vector, dtype=complex)
    rho = np.zeros((d, d), dtype=complex)
    for k in range(d):
        for kp in range(d):
            rho[k, kp] = sum(v[j * d + k] * np.conj(v[j * d + kp]) for j in range(d))
    return rho


def completeness_sum(elements, a):
    """sum_xi B_xi^dag A B_xi by a direct python loop."""
    total = np.zeros_like(np.asarray(a, dtype=complex))
    for el in elements:
        total += dagger(el) @ a @ el
    return total


def haar_states_gaussian(rng, d, n):
    """Rows of normalized complex Gaussians (for Monte-Carlo oracles)."""
    z = random_complex(rng, (n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# Copy of teleportlab.tolerances.ZERO_OUTCOME_TOL.
ZERO_OUTCOME_TOL = 1e-12


def sample_outcome_per_shot(psi, transfer_ops, rng):
    """One protocol shot by per-shot inverse-CDF sampling.

    The scalar sampler as it stood before batching: probabilities
    ||T_xi psi||^2, a CDF renormalized by its computed sum, exactly one
    ``rng.random()``, a right-side search clamped to the last outcome of
    nonzero probability, then the polar correction of T_xi from its own
    SVD.  The arithmetic is the package's operation for operation, so
    probability and conditional fidelity can be compared bit for bit.
    Returns (xi, probability, conditional_fidelity).
    """
    v = np.asarray(psi, dtype=complex)
    probs = outcome_probabilities(v, transfer_ops)
    cdf = np.cumsum(probs / probs.sum())
    xi = int(np.searchsorted(cdf, rng.random(), side="right"))
    xi = min(xi, int(np.flatnonzero(probs)[-1]))
    probability, _, _, fidelity = outcome_record(v, transfer_ops, xi)
    return xi, probability, fidelity


def outcome_record(psi, transfer_ops, xi):
    """(probability, raw state, corrected state, conditional fidelity) of
    outcome xi, one outcome alone: one ``T_xi @ psi``, its ``np.linalg.norm``,
    and the polar correction from one 2-d SVD of T_xi, applied to the raw
    state.  A norm at or below ZERO_OUTCOME_TOL gives the zero vector for
    both states and probability and fidelity 0.  The arithmetic is the
    package's, so every field can be compared bit for bit.
    """
    v = np.asarray(psi, dtype=complex)
    t = transfer_ops[xi]
    t_psi = t @ v
    norm = float(np.linalg.norm(t_psi))
    if norm <= ZERO_OUTCOME_TOL:
        zero = np.zeros(len(v), dtype=complex)
        return 0.0, zero, zero, 0.0
    raw = t_psi / norm
    u, _, vh = np.linalg.svd(t)
    corrected = dagger(u @ vh) @ raw
    return norm * norm, raw, corrected, float(np.abs(np.vdot(v, corrected)) ** 2)


def outcome_probabilities(psi, transfer_ops):
    """||T_xi psi||^2 for every xi, from the stacked product."""
    amplitudes = transfer_ops @ np.asarray(psi, dtype=complex)
    return np.einsum("xi,xi->x", amplitudes.conj(), amplitudes).real


def outcome_cdf(psi, transfer_ops):
    """The per-shot sampler's CDF: the outcome probabilities renormalized by
    their computed sum, then accumulated."""
    probs = outcome_probabilities(psi, transfer_ops)
    return np.cumsum(probs / probs.sum())


def transfer_ops(shared_operator, elements):
    """T_xi = C^t B_xi^dag for every outcome, as one stacked product of C^t
    with the conjugate-transposed elements."""
    return np.matmul(shared_operator.T, elements.conj().transpose(0, 2, 1))


def transfer_abs(transfer_ops):
    """|T_xi| for every T_xi, one SVD per matrix, shape (d^2, d, d).

    V S V^dag from T = W S V^dag, symmetrized to exact Hermiticity: the
    package's ``operator_abs`` operation for operation, so the Monte-Carlo
    weights built from it can be compared bit for bit.
    """
    stack = []
    for t in transfer_ops:
        _, s, vh = np.linalg.svd(t)
        positive = dagger(vh) @ (s[:, None] * vh)
        stack.append(0.5 * (positive + dagger(positive)))
    return np.array(stack)


def pack_hermitian(a):
    """The d^2 reals of a Hermitian d x d matrix in the kernel's layout: the
    diagonal, then 2 Re a_ij and 2 Im a_ij, interleaved, for i < j in row order."""
    d = len(a)
    upper = np.array([a[i, j] for i in range(d) for j in range(i + 1, d)], dtype=complex)
    return np.concatenate([a.diagonal().real, 2 * upper.view(float)])


def pack_state(psi):
    """The d^2 reals of |psi><psi| in the kernel's layout, without the factor 2
    of :func:`pack_hermitian`: |psi_i|^2, then Re and Im of psi_i conj(psi_j),
    interleaved, for i < j in row order, entry by entry."""
    d = len(psi)
    upper = np.array([psi[i] * psi[j].conj() for i in range(d) for j in range(i + 1, d)], dtype=complex)
    return np.concatenate([np.abs(psi) ** 2, upper.view(float)])


def state_fidelity_batch_per_outcome(psis, transfer_abs):
    """F(psi) = sum_xi <psi| |T_xi| |psi>^2 for each row of ``psis``.

    The Monte-Carlo kernel as it stood before the single-GEMM form: one
    pass per outcome xi, each an (n, d) x (d, d) complex product and a
    row-wise overlap, squared and accumulated.
    """
    psis = np.asarray(psis, dtype=complex)
    fidelities = np.zeros(psis.shape[0])
    for t_abs in transfer_abs:
        rotated = psis @ t_abs.T
        overlaps = np.einsum("ni,ni->n", psis.conj(), rotated).real
        fidelities += overlaps**2
    return fidelities


def identity_residual_strided(psi, vectors, transfer_ops, shared_vector):
    """||psi ⊗ |C> - sum_xi |B_xi> ⊗ T_xi psi|| by the strided contraction.

    The identity residual as it stood before the contiguous form: the
    stacked T_xi psi, and one einsum that sums xi down the rows of the
    (d^2, d^2) element vectors and of the (d^2, d) images.  The arithmetic
    is the package's, so the residual can be compared bit for bit.
    """
    v = np.asarray(psi, dtype=complex)
    lhs = np.outer(v, shared_vector).ravel()
    rhs = np.einsum("xi,xm->im", vectors, transfer_ops @ v).reshape(-1)
    return float(np.linalg.norm(lhs - rhs))


def verify_residuals_per_trial(rng, count, transfer_ops, elements, shared_vector):
    """The identity residuals of ``count`` Haar-random inputs, one trial at a time.

    The loop ``verify`` ran before its trials were chunked: each trial draws
    one state as the package drew it alone, ``haar_states_gaussian(rng, d, 1)[0]``
    (a (1, d) draw of real parts, then one of imaginary parts, normalized as
    a row), and takes ||psi ⊗ |C> - sum_xi |B_xi> ⊗ T_xi psi|| from the flat
    (d^3, d) matrix-vector product, the transposed copy of the images and one
    einsum over xi against the transposed element vectors.  The arithmetic
    is the package's, so the residuals compare bit for bit.
    """
    transfer_ops = np.asarray(transfer_ops)
    d = transfer_ops.shape[-1]
    flat_ops = transfer_ops.reshape(-1, d)
    vectors_t = np.asarray(elements).reshape(d * d, d * d).T.copy()
    residuals = []
    for _ in range(count):
        psi = haar_states_gaussian(rng, d, 1)[0]
        lhs = np.outer(psi, shared_vector).ravel()
        t_psi = np.ascontiguousarray((flat_ops @ psi).reshape(d * d, d).T)
        rhs = np.einsum("ix,mx->im", vectors_t, t_psi).reshape(-1)
        residuals.append(float(np.linalg.norm(lhs - rhs)))
    return residuals


def completeness_residual_einsum(elements):
    """The completeness residual summed over all d^2 matrix units A = |b><c|:
    sqrt(sum_{b,c} ||sum_xi B_xi^dag A B_xi - Tr(A) I||_F^2), each sum by one
    einsum.  Independent of the Gram matrix the package reads its residual from.
    """
    elements = np.asarray(elements, dtype=complex)
    d = elements.shape[1]
    # total[b, c] is sum_xi B_xi^dag |b><c| B_xi, entry (a, e) = sum_xi conj(B_xi[b, a]) B_xi[c, e].
    total = np.einsum("xba,xce->bcae", elements.conj(), elements)
    total -= np.einsum("bc,ae->bcae", np.eye(d), np.eye(d))
    return float(np.sqrt(np.sum(np.abs(total) ** 2)))


def unitarity_residual_unblocked(rows):
    """||R R^dag - I||_F of a square matrix R from its whole Gram matrix
    conj(R) R^T, 1 subtracted from the diagonal in place: the one-Gram
    formula the package replaced by a sum over the Gram's blocks."""
    rows = np.asarray(rows, dtype=complex)
    gram = rows.conj() @ rows.T
    gram.flat[::len(gram) + 1] -= 1
    entries = gram.ravel()
    return math.sqrt(np.vdot(entries, entries).real)


# Copy of teleportlab.tolerances.RANK_TOL.
RANK_TOL = 1e-10


def special_case_label(elements, shared_operator):
    """The closed-form label of a setup, from one SVD per matrix.

    The element flags are :func:`element_shape_per_element`'s; the resource
    is judged by the same rule, the package's: flat when
    s_max - s_min <= RANK_TOL * s_max, rank one when exactly one singular
    value exceeds RANK_TOL.
    """
    shared_s = np.linalg.svd(np.asarray(shared_operator), compute_uv=False)
    shared_maxent = shared_s[0] - shared_s[-1] <= RANK_TOL * shared_s[0]
    shared_product = np.count_nonzero(shared_s > RANK_TOL) == 1
    _, basis_maxent, basis_product = element_shape_per_element(elements)
    if basis_maxent and shared_maxent:
        return "ideal"
    if shared_product:
        return "product-shared"
    if basis_product:
        return "product-basis"
    if basis_maxent:
        return "maxent-basis"
    return "general"


def element_shape_per_element(elements):
    """``(spectra, all_flat, all_rank_one)`` of a basis, one SVD per element.

    The classification as it stood before the stacked SVD: each element
    decomposed on its own in xi order and judged by the package's rule
    (flat when s_max - s_min <= RANK_TOL * s_max, rank one when exactly
    one value exceeds RANK_TOL); the spectra are returned in xi order.
    """
    spectra = np.array([np.linalg.svd(el, compute_uv=False) for el in np.asarray(elements)])
    all_flat = all(s[0] - s[-1] <= RANK_TOL * s[0] for s in spectra)
    all_rank_one = all(np.count_nonzero(s > RANK_TOL) == 1 for s in spectra)
    return spectra, all_flat, all_rank_one


def bell_elements_double_loop(d):
    """Generalized Bell stack filled element by element over (j, k): element
    j * d + k has phase exp(2 pi i k a / d) / sqrt(d) at (a, a - j mod d)."""
    a = np.arange(d)
    elements = np.zeros((d * d, d, d), dtype=complex)
    for j in range(d):
        cols = (a - j) % d
        for k in range(d):
            elements[j * d + k][a, cols] = np.exp(2j * np.pi * k * a / d) / np.sqrt(d)
    return elements


def state_file_text(d, amplitudes):
    """A state file's JSON text, each amplitude written as an [re, im] pair
    by a per-entry comprehension."""
    pairs = [[z.real, z.imag] for z in np.asarray(amplitudes, complex)]
    return json.dumps({"d": int(d), "amplitudes": pairs})


def basis_file_text(d, elements):
    """A basis file's JSON text, built by nested per-entry comprehensions."""
    matrices = [[[[z.real, z.imag] for z in row] for row in el] for el in np.asarray(elements)]
    return json.dumps({"d": int(d), "elements": matrices})


def format_scalar(value, null="", text=str):
    """One report cell by an isinstance chain: floats with 17 significant
    digits, booleans ``true``/``false``, ``None`` as ``null``, strings
    through ``text`` (CSV: bare; JSON: ``json.dumps``)."""
    if value is None:
        return null
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return text(str(value))


def render_csv_per_row(meta, columns, rows):
    """The CSV report as it stood before rows were cached: every cell of
    every row formatted from the row itself, ``shot`` included."""
    lines = [f"# {key}: {format_scalar(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_scalar(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json_per_row(meta, columns, rows):
    """The JSON report as it stood before rows were cached: every cell of
    every row formatted from the row itself, ``shot`` included."""
    def cell(value):
        return format_scalar(value, "null", json.dumps)

    meta_items = ", ".join(f"{json.dumps(k)}: {cell(v)}" for k, v in meta.items())
    row_texts = []
    for row in rows:
        body = ", ".join(f"{json.dumps(c)}: {cell(row[c])}" for c in columns)
        row_texts.append("    {" + body + "}")
    rows_block = ",\n".join(row_texts)
    return "{\n" f'  "meta": {{{meta_items}}},\n' '  "rows": [\n' + rows_block + "\n  ]\n" "}\n"
