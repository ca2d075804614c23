"""Reference kernels that track how fast the machine is running right now.

On a shared 2-vCPU host the same computation runs up to 1.4x slower for tens
of seconds at a time, which no number of repetitions inside one run averages
away.  So every timed call is followed by a short fixed kernel that uses
numpy only (no teleportlab code), shaped like the workload's hot loop, and
the call's time is scaled by the kernel's reference time over the mean of
the kernel times just before and after it.  Reported times therefore read as
seconds at the speed the machine had when ``REFERENCE_S`` was measured
(typical medians on a 2-vCPU Intel Xeon VM, one OpenBLAS thread, process
pinned to one CPU, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
A change to the program moves its own times and not the kernel's.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


def _shots_kernel():
    """The per-shot steps of the teleport loop at d=2, with its row formatting."""
    rng = np.random.default_rng(0)
    transfers = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    psi = np.array([0.6, 0.8j])

    def run():
        draws = np.random.default_rng(0)
        rows = []
        for shot in range(800):
            np.all(np.isfinite(psi))
            amplitudes = transfers @ psi
            probs = np.einsum("xi,xi->x", amplitudes.conj(), amplitudes).real
            cdf = np.cumsum(probs / probs.sum())
            xi = min(int(np.searchsorted(cdf, draws.random(), side="right")), 3)
            u, _, vh = np.linalg.svd(transfers[xi])
            raw = amplitudes[xi] / np.linalg.norm(amplitudes[xi])
            fidelity = float(np.abs(np.vdot(psi, (u @ vh).conj().T @ raw)) ** 2)
            rows.append({"shot": shot, "xi": xi, "p": float(probs[xi]), "f": fidelity})
        return "\n".join(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                                   for v in row.values()) for row in rows)

    return run


def _identity_kernel():
    """The per-trial steps of the identity residual at d=8, with a Haar draw."""
    rng = np.random.default_rng(0)
    d = 8
    transfers = rng.standard_normal((d * d, d, d)) + 1j * rng.standard_normal((d * d, d, d))
    vectors = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    shared = vectors[0] / np.linalg.norm(vectors[0])

    def run():
        draws = np.random.default_rng(0)
        worst = 0.0
        for _ in range(200):
            z = draws.standard_normal((1, d)) + 1j * draws.standard_normal((1, d))
            v = (z / np.linalg.norm(z, axis=1, keepdims=True))[0]
            np.all(np.isfinite(v))
            rhs = np.einsum("xi,xm->im", vectors, transfers @ v).reshape(-1)
            worst = max(worst, float(np.linalg.norm(np.kron(v, shared) - rhs)))
        return worst

    return run


# The kernels below allocate nothing while they run, and keep every array
# under numpy's 4 MB huge-page threshold, so their speed does not depend on
# the allocator's or the page tables' state left behind by the program.


def _gemm_kernel():
    """Row-wise quadratic forms over a block of states, like the Monte-Carlo kernel."""
    rng = np.random.default_rng(0)
    psis = rng.standard_normal((12000, 16)) + 1j * rng.standard_normal((12000, 16))
    conj = psis.conj()
    op_t = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))).T.copy()
    rotated = np.empty_like(psis)
    overlaps = np.empty(psis.shape[0], dtype=complex)
    squares = np.empty(psis.shape[0])
    total = np.empty(psis.shape[0])

    def run():
        total.fill(0.0)
        for _ in range(40):
            np.matmul(psis, op_t, out=rotated)
            np.multiply(conj, rotated, out=rotated)
            np.sum(rotated, axis=1, out=overlaps)
            np.square(overlaps.real, out=squares)
            np.add(total, squares, out=total)
        return total

    return run


def _factor_kernel():
    """A Gram product and small SVDs, like basis validation and the transfer stack."""
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((192, 1024)) + 1j * rng.standard_normal((192, 1024))
    conj, vecs_t = vecs.conj(), vecs.T.copy()
    gram = np.empty((192, 192), dtype=complex)
    m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))

    def run():
        for _ in range(3):
            np.matmul(conj, vecs_t, out=gram)
        return gram, [np.linalg.svd(m) for _ in range(96)]

    return run


KERNELS = {"shots": _shots_kernel, "identity": _identity_kernel, "gemm": _gemm_kernel,
           "factor": _factor_kernel}
REFERENCE_S = {"shots": 0.040, "identity": 0.040, "gemm": 0.065, "factor": 0.045}


class SpeedReference:
    """Scales measured seconds to the reference speed of one kernel."""

    def __init__(self, kernel: str):
        self._run = KERNELS[kernel]()
        self._reference = REFERENCE_S[kernel]
        self._run()
        self._last = self._time()
        self.factors: list[float] = []

    def _time(self) -> float:
        start = perf_counter()
        self._run()
        return perf_counter() - start

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed."""
        now = self._time()
        factor = self._reference / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return seconds * factor
