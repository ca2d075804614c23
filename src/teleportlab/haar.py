"""Uniformly random pure states and average teleportation fidelity.

"Average" always means the expectation over input states drawn from the
unitarily invariant (Haar) distribution on pure states.  The workhorse
is the second-moment formula

    E( <psi|A|psi> <psi|B|psi> ) = (Tr(AB) + Tr A Tr B) / (d (d + 1)),

from which the protocol's average fidelity collapses to a function of
the transfer-operator trace norms:

    E(F) = ( d + sum_xi (Tr |T_xi|)^2 ) / (d (d + 1)).

Closed forms for structured setups (maximally entangled measurement
basis, product resource, product measurement basis) are detected and
reported alongside the general value, and a seeded Monte-Carlo
estimator provides an independent statistical cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

import numpy as np

from .choi import BipartiteState, schmidt_shape
from .errors import ConfigurationError, DimensionError
from .linalg import as_square_pair, require_count, require_dimension, require_integer
from .teleport import TeleportSetup, state_fidelity_batch
from .tolerances import RANK_TOL

# Samples drawn per block in the Monte-Carlo loops.  It fixes the draw
# stream (a seeded generator gives the same states only for the same
# blocks), so changing it changes every seeded estimate; the fidelity
# kernel bounds its own working memory inside a block.
_CHUNK = 20000

MIN_SAMPLES = 100

_N_SIGMA = 4.0


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """One pure state drawn from the unitarily invariant distribution.

    Normalized vector of i.i.d. standard complex Gaussian amplitudes;
    rotating by any fixed unitary leaves the distribution unchanged.  The
    one-row case of :func:`haar_trial_states`.
    """
    return haar_trial_states(dim, 1, rng)[0]


def haar_trial_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-random states as rows of an (n, d) array, drawn trial by
    trial: one ``(count, 2, d)`` normal draw gives each row its real, then its
    imaginary parts, and each row is normalized alone, so one call equals
    ``count`` :func:`haar_state` calls, generator state included.
    :func:`haar_states` draws all real parts first: the Monte-Carlo stream.
    """
    require_dimension(dim)
    require_count(count, "count")
    z = rng.standard_normal((count, 2, dim))
    states = z[:, 0] + 1j * z[:, 1]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states


def haar_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` independent Haar-random states as rows of an (n, d) array."""
    require_dimension(dim)
    require_count(count, "count")
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _haar_blocks(dim: int, samples: int, rng: np.random.Generator, per_block):
    """``per_block`` of each ``_CHUNK``-state block of the ``samples`` Haar draws;
    only results leave, so a block is freed before the next is drawn."""
    for start in range(0, samples, _CHUNK):
        yield per_block(haar_states(dim, min(_CHUNK, samples - start), rng))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via phase-fixed QR."""
    require_dimension(dim)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_shared_state(local_dim: int, rng: np.random.Generator) -> BipartiteState:
    """Haar-random bipartite resource state on d x d."""
    require_dimension(local_dim, "local dimension")
    return BipartiteState.from_vector(haar_state(local_dim * local_dim, rng))


def pair_average_analytic(a, b) -> complex:
    """E over Haar psi of <psi|A|psi> <psi|B|psi>, in closed form.

    Equals (Tr(AB) + Tr A Tr B) / (d (d + 1)); real when A and B are
    Hermitian.
    """
    ma, mb = as_square_pair(a, b)
    d = ma.shape[0]
    return complex(np.trace(ma @ mb) + np.trace(ma) * np.trace(mb)) / (d * (d + 1))


class SpecialCase(enum.Enum):
    """Structured setups with closed-form average fidelity."""

    IDEAL = "ideal"                    # both sides maximally entangled: E(F) = 1
    MAXENT_BASIS = "maxent-basis"      # maximally entangled basis, any resource
    PRODUCT_SHARED = "product-shared"  # rank-one resource, any basis: 2/(d+1)
    PRODUCT_BASIS = "product-basis"    # product measurement basis: 2/(d+1)
    GENERAL = "general"


@dataclass(frozen=True)
class AverageFidelityResult:
    """Monte-Carlo estimate of the average fidelity next to the analytic value
    and the detected structure of the setup."""

    analytic: float
    special_case: SpecialCase
    monte_carlo_mean: float
    monte_carlo_stderr: float
    samples: int

    def sigma_excess(self) -> float:
        """|analytic - estimate| less ``_N_SIGMA`` standard errors: at most 0
        inside the statistical band."""
        return abs(self.analytic - self.monte_carlo_mean) - _N_SIGMA * self.monte_carlo_stderr


def _detect_special_case(setup: TeleportSetup) -> SpecialCase:
    shared_flat, shared_rank = schmidt_shape(setup.shared.schmidt_coefficients)
    basis_flat, basis_rank_one = setup.basis.element_shape
    if basis_flat and shared_flat:
        return SpecialCase.IDEAL
    if shared_rank == 1:
        return SpecialCase.PRODUCT_SHARED
    if basis_rank_one:
        return SpecialCase.PRODUCT_BASIS
    if basis_flat:
        return SpecialCase.MAXENT_BASIS
    return SpecialCase.GENERAL


def average_fidelity_analytic(setup: TeleportSetup) -> float:
    """Haar-average fidelity of a setup from the trace-norm formula."""
    d = setup.local_dim
    return (d + float(np.sum(setup.transfer_trace_norms**2))) / (d * (d + 1))


def special_case_fidelity(setup: TeleportSetup) -> tuple[SpecialCase, float]:
    """Average fidelity by the closed form of the detected structure.

    Falls back to the general trace-norm formula when no structure is
    detected.  Agrees with :func:`average_fidelity_analytic` within
    :func:`closed_form_gap_bound`.  A maximally entangled basis gives
    Horodecki's (d f + 1)/(d + 1), f = ||C||_1^2 / d.  Detection reads the
    cached ``shared.schmidt_coefficients`` and ``basis.element_shape``, so
    no resource or basis is decomposed twice, whichever setups share it.
    """
    d = setup.local_dim
    case = _detect_special_case(setup)
    if case is SpecialCase.IDEAL:
        return case, 1.0
    if case in (SpecialCase.PRODUCT_SHARED, SpecialCase.PRODUCT_BASIS):
        return case, 2.0 / (d + 1)
    if case is SpecialCase.MAXENT_BASIS:
        shared_trace_norm = float(np.sum(setup.shared.schmidt_coefficients))
        return case, (1.0 + shared_trace_norm**2) / (d + 1)
    return case, average_fidelity_analytic(setup)


def closed_form_gap_bound(d: int) -> float:
    """Largest |E(F) - closed form| the rank and flatness rule admits: 2 d tau.

    A label holds within tau = RANK_TOL of the exact structure
    (:func:`teleportlab.choi.schmidt_shape`).  With sum_xi ||T_xi||_F^2 = d,
    (Tr|T|)^2 - ||T||_F^2 <= 2 s_0 r + r^2 for r = sum_{i>=1} s_i(T) and
    r^2 <= (d-1) ||T - T'||_F^2 (T' rank one), Cauchy-Schwarz over xi gives
    gaps of at most 2 (d-1) tau / (d+1) for a rank-one resource and
    2 sqrt(d) (d-1) tau / (d+1) for a rank-one basis.  A flat element is
    U/sqrt(d) + E with ||E|| <= tau' / sqrt(d), tau' = tau / (1 - tau), so
    each Tr|T_xi| is ||C||_1 / sqrt(d) to a factor 1 +- tau', and a flat
    basis gives at most 2 tau' + tau'^2 (+ tau'^2 / 2 for a flat resource).
    For d >= 2 each is below 2 d tau, with room for the O(tau) shift of a
    basis validated at BASIS_TOL; at d = 1 every spectrum is one value.
    """
    return d * (2 * RANK_TOL)


def monte_carlo_rounding_bound(d: int) -> float:
    """Largest |E(F) - mean| that rounding alone explains: 64 d^2 eps.

    The bound decides only where the standard error vanishes, that is where
    every sample equals E(F): the ideal setup, |T_xi| = I/d.  There each
    overlap <psi| |T_xi| |psi> = 1/d is a dot product of the d^2 packed
    features and weights of :func:`~teleportlab.teleport.state_fidelity_batch`,
    whose products' magnitudes sum to 1/d; each feature is off by at most
    2 eps relative (a product and a sum), and doubling a weight is exact.  So
    an overlap is off by at most (d^2 + 2) eps / d, and F(psi), the sum of the
    d^2 squared overlaps, by at most 2 (d^2 + 2) eps from the overlaps and
    d^2 eps from the sum.  The analytic value adds O(d eps) (d^2 trace norms
    of 1, each a sum of d singular values), and the mean of n samples at
    most (24 + n / _CHUNK) eps from numpy's pairwise sum in a block and the
    running total across blocks.  All of it is within 64 d^2 eps for n up to
    500,000 at d = 1 and 4 million at d = 2, and the margin grows with d.
    """
    return d * d * (64 * 2.0**-52)


def monte_carlo_fidelity(
    setup: TeleportSetup, samples: int, rng: np.random.Generator
) -> AverageFidelityResult:
    """Estimate the average fidelity over ``samples`` Haar-random inputs.

    Returns mean and standard error next to the analytic value so the
    two routes can be compared; with a seeded generator the result is
    fully reproducible.

    The variance comes from each block's sum of squared deviations from
    its own mean, merged across blocks with Chan et al.'s pairwise
    update.  Unlike sum(f^2) - n mean^2 it does not cancel
    catastrophically, so a setup whose fidelity is the same for every
    input reports a standard error at rounding level, not 1e-10.
    """
    require_integer(samples, "samples")
    if samples < MIN_SAMPLES:
        raise ConfigurationError(f"need at least {MIN_SAMPLES} samples, got {samples}")
    total = 0.0
    sq_dev = 0.0
    drawn = 0
    kernel = partial(state_fidelity_batch, setup=setup)
    for fids in _haar_blocks(setup.local_dim, samples, rng, kernel):
        block = len(fids)
        block_total = float(fids.sum())
        block_mean = block_total / block
        block_sq_dev = float(np.sum((fids - block_mean) ** 2))
        if drawn:
            delta = block_mean - total / drawn
            block_sq_dev += delta * delta * drawn * block / (drawn + block)
        total += block_total
        sq_dev += block_sq_dev
        drawn += block
    mean = total / samples
    variance = sq_dev / max(samples - 1, 1)
    stderr = float(np.sqrt(variance / samples))
    return AverageFidelityResult(
        analytic=average_fidelity_analytic(setup),
        special_case=_detect_special_case(setup),
        monte_carlo_mean=mean,
        monte_carlo_stderr=stderr,
        samples=samples,
    )


def classical_baseline(dim: int, samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the measure-and-reprepare fidelity.

    The strategy that measures the input in a fixed basis and sends the
    result achieves F(psi) = sum_j |psi_j|^4, whose Haar average is
    2/(d+1), the bar any genuine teleportation setup must beat.
    """
    require_integer(dim, "dimension")
    if dim < 2:
        raise DimensionError("the baseline needs dimension at least 2")
    require_integer(samples, "samples")
    if samples < 1:
        raise ConfigurationError("need at least one sample")
    total = sum(_haar_blocks(dim, samples, rng, lambda psis: float(np.sum(np.abs(psis) ** 4))))
    return total / samples
