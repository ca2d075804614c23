"""Tests for random-state generation and average fidelity."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from teleportlab import (
    SpecialCase,
    BipartiteState,
    TeleportSetup,
    average_fidelity_analytic,
    basis_state,
    bell_basis,
    build_setup,
    classical_baseline,
    closed_form_gap_bound,
    haar_state,
    haar_states,
    haar_unitary,
    maximally_entangled_state,
    monte_carlo_fidelity,
    monte_carlo_rounding_bound,
    normalize_state,
    pair_average_analytic,
    product_basis,
    product_state,
    random_shared_state,
    rotated_basis,
    special_case_fidelity,
    state_fidelity_batch,
)


def test_haar_states_are_normalized():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5):
        for _ in range(50):
            assert np.linalg.norm(haar_state(d, rng)) == pytest.approx(1.0, abs=1e-12)


def test_haar_component_moments():
    d = 4
    n = 100000
    rng = np.random.default_rng(2)
    psis = haar_states(d, n, rng)
    weights = np.abs(psis) ** 2
    # E|psi_j|^2 = 1/d for every component, by symmetry
    means = weights.mean(axis=0)
    stderr = weights.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(means - 1 / d) <= 3 * stderr)
    # off-diagonal second moments vanish by phase averaging
    cross = np.mean(psis[:, 0] * np.conj(psis[:, 1]))
    cross_scale = np.std(psis[:, 0] * np.conj(psis[:, 1]), ddof=1) / math.sqrt(n)
    assert abs(cross) <= 3 * abs(cross_scale)


def test_haar_unitary_is_unitary_and_randomizes():
    rng = np.random.default_rng(3)
    u = haar_unitary(4, rng)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


def test_pair_average_identity_is_exactly_one():
    for d in (2, 3, 7):
        assert pair_average_analytic(np.eye(d), np.eye(d)) == 1.0


def test_pair_average_projector_against_monte_carlo():
    # E |<psi|0>|^4 at d = 2 is (1 + 1)/6 = 1/3
    p = np.diag([1.0, 0.0])
    assert pair_average_analytic(p, p) == pytest.approx(1 / 3, abs=1e-15)
    rng = np.random.default_rng(4)
    n = 1000000
    total = 0.0
    total_sq = 0.0
    for _ in range(10):
        block = oracles.haar_states_gaussian(rng, 2, n // 10)
        vals = np.abs(block[:, 0]) ** 4
        total += vals.sum()
        total_sq += (vals**2).sum()
    mean = total / n
    stderr = math.sqrt((total_sq / n - mean**2) / (n - 1))
    assert abs(mean - 1 / 3) <= 3 * stderr


def test_pair_average_random_hermitian_against_monte_carlo():
    rng = np.random.default_rng(5)
    d = 3
    n = 200000
    for _ in range(3):
        raw_c = oracles.random_complex(rng, (d, d))
        raw_d = oracles.random_complex(rng, (d, d))
        c = 0.5 * (raw_c + oracles.dagger(raw_c))
        dd = 0.5 * (raw_d + oracles.dagger(raw_d))
        expected = pair_average_analytic(c, dd).real
        psis = oracles.haar_states_gaussian(rng, d, n)
        vals = (
            np.einsum("ni,ij,nj->n", psis.conj(), c, psis).real
            * np.einsum("ni,ij,nj->n", psis.conj(), dd, psis).real
        )
        stderr = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - expected) <= 4 * stderr


# ----------------------------------------------------------------------
# analytic average fidelity


def test_ideal_setup_has_unit_average_fidelity():
    for d in (2, 3, 4):
        setup = build_setup(maximally_entangled_state(d), bell_basis(d))
        assert average_fidelity_analytic(setup) == pytest.approx(1.0, abs=1e-10)
        assert special_case_fidelity(setup)[0] is SpecialCase.IDEAL


@pytest.mark.parametrize("d", range(2, 9))
def test_product_resource_hits_classical_value(d):
    setup = build_setup(
        product_state(basis_state(d, 0), basis_state(d, 0)), bell_basis(d)
    )
    assert average_fidelity_analytic(setup) == pytest.approx(2 / (d + 1), abs=1e-12)
    assert special_case_fidelity(setup)[0] is SpecialCase.PRODUCT_SHARED


def test_general_resource_matches_closed_form_and_bracket():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        for _ in range(5):
            shared = random_shared_state(d, rng)
            setup = build_setup(shared, bell_basis(d))
            analytic = average_fidelity_analytic(setup)
            trace_norm = np.linalg.svd(shared.operator_form, compute_uv=False).sum()
            closed = (1 + trace_norm**2) / (d + 1)
            assert analytic == pytest.approx(closed, abs=1e-12)
            assert 2 / (d + 1) - 1e-12 <= analytic <= 1 + 1e-12
            assert special_case_fidelity(setup)[0] is SpecialCase.MAXENT_BASIS


def test_special_case_product_shared_any_basis():
    rng = np.random.default_rng(7)
    d = 5
    shared = product_state(oracles.random_complex(rng, d), oracles.random_complex(rng, d))
    basis = rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d))
    case, value = special_case_fidelity(build_setup(shared, basis))
    assert case is SpecialCase.PRODUCT_SHARED
    assert value == pytest.approx(2 / 6, abs=1e-15)


def test_special_case_product_basis():
    case, value = special_case_fidelity(build_setup(maximally_entangled_state(2), product_basis(2)))
    assert case is SpecialCase.PRODUCT_BASIS
    assert value == pytest.approx(2 / 3, abs=1e-15)


def test_rank_one_resource_sum_rule():
    rng = np.random.default_rng(8)
    for d in (2, 3, 4):
        shared = product_state(oracles.random_complex(rng, d), oracles.random_complex(rng, d))
        for basis in (bell_basis(d), product_basis(d)):
            setup = build_setup(shared, basis)
            norms = setup.transfer_trace_norms
            sq = sum(np.linalg.svd(t, compute_uv=False).sum() ** 2 for t in setup.transfer_ops)
            hs = sum(np.linalg.norm(t) ** 2 for t in setup.transfer_ops)
            assert np.sum(norms**2) == pytest.approx(d, abs=1e-10)
            assert sq == pytest.approx(hs, abs=1e-10)


def test_detected_cases_agree_with_general_formula():
    rng = np.random.default_rng(9)
    d = 3
    setups = [
        build_setup(maximally_entangled_state(d), bell_basis(d)),
        build_setup(product_state(basis_state(d, 0), basis_state(d, 1)), bell_basis(d)),
        build_setup(maximally_entangled_state(d), product_basis(d)),
        build_setup(random_shared_state(d, rng), bell_basis(d)),
        build_setup(
            random_shared_state(d, rng),
            rotated_basis(bell_basis(d), oracles.random_unitary(rng, d * d)),
        ),
    ]
    expected_cases = [
        SpecialCase.IDEAL,
        SpecialCase.PRODUCT_SHARED,
        SpecialCase.PRODUCT_BASIS,
        SpecialCase.MAXENT_BASIS,
        SpecialCase.GENERAL,
    ]
    for setup, expected in zip(setups, expected_cases):
        case, value = special_case_fidelity(setup)
        assert case is expected
        assert value == pytest.approx(average_fidelity_analytic(setup), abs=1e-12)


def _near_identity(rng, n, eps):
    # exp(i eps H) for a random Hermitian H scaled to unit spectral norm.
    z = oracles.random_complex(rng, (n, n))
    lam, v = np.linalg.eigh(z + oracles.dagger(z))
    return (v * np.exp(1j * eps * lam / np.abs(lam).max())) @ oracles.dagger(v)


@pytest.mark.parametrize("d", range(2, 7))
def test_closed_form_gap_stays_within_bound_near_thresholds(d):
    # Resources and bases placed just inside the flat and rank-one
    # thresholds: every closed form still matches the trace-norm value
    # within closed_form_gap_bound(d), though not within 1e-12.
    rng = np.random.default_rng(60 + d)
    eps = 0.3 * oracles.RANK_TOL
    tail = np.full(d, 0.9 * oracles.RANK_TOL)
    tail[0] = 1.0
    spectra = (tail, np.linspace(1.0, 1.0 - 0.9 * oracles.RANK_TOL, d))
    resources = [BipartiteState.from_vector(normalize_state(np.diag(s.astype(complex)).ravel()))
                 for s in spectra] + [random_shared_state(d, rng)]
    bases = [bell_basis(d), product_basis(d),
             rotated_basis(bell_basis(d), _near_identity(rng, d * d, eps)),
             rotated_basis(product_basis(d), _near_identity(rng, d * d, eps))]
    gaps = {}
    for basis in bases:
        for shared in resources:
            setup = TeleportSetup(shared, basis)
            case, closed = special_case_fidelity(setup)
            gap = abs(average_fidelity_analytic(setup) - closed)
            gaps[case] = max(gaps.get(case, 0.0), gap)
    assert set(gaps) == set(SpecialCase) - {SpecialCase.GENERAL}
    assert max(gaps.values()) <= closed_form_gap_bound(d)
    assert gaps[SpecialCase.PRODUCT_SHARED] > 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_transfer_hilbert_schmidt_weights_sum_to_d(d):
    # the completeness relation turns sum_xi Tr|T_xi|^2 into d for any
    # normalized resource, which is what collapses the two-term average
    # formula into the trace-norm-only form
    rng = np.random.default_rng(10 + d)
    setup = build_setup(random_shared_state(d, rng), bell_basis(d))
    hs_weights = [np.linalg.norm(t) ** 2 for t in setup.transfer_ops]
    assert sum(hs_weights) == pytest.approx(d, abs=1e-10)
    norms = setup.transfer_trace_norms
    two_term = (sum(hs_weights) + np.sum(norms**2)) / (d * (d + 1))
    assert two_term == pytest.approx(average_fidelity_analytic(setup), abs=1e-12)


# ----------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_ideal_setup_is_exact():
    setup = build_setup(maximally_entangled_state(2), bell_basis(2))
    result = monte_carlo_fidelity(setup, 10000, np.random.default_rng(11))
    assert result.monte_carlo_mean == pytest.approx(1.0, abs=1e-10)
    assert result.monte_carlo_stderr <= 1e-12
    assert result.sigma_excess() <= monte_carlo_rounding_bound(setup.local_dim)
    assert result.samples == 10000


def test_monte_carlo_product_resource():
    setup = build_setup(product_state([1, 0], [1, 0]), bell_basis(2))
    result = monte_carlo_fidelity(setup, 40000, np.random.default_rng(12))
    assert abs(result.monte_carlo_mean - 2 / 3) <= 4 * result.monte_carlo_stderr
    assert result.sigma_excess() <= monte_carlo_rounding_bound(setup.local_dim)


def test_monte_carlo_matches_analytic_for_generic_setup():
    rng = np.random.default_rng(13)
    setup = build_setup(random_shared_state(3, rng), bell_basis(3))
    result = monte_carlo_fidelity(setup, 40000, rng)
    assert result.sigma_excess() <= monte_carlo_rounding_bound(setup.local_dim)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_monte_carlo_rounding_bound_covers_exact_setups_and_no_more(d):
    # Every sample of the ideal setup is exact, so the gate is the rounding
    # floor alone: the estimate passes it, and one moved by 1e-12 does not.
    setup = build_setup(maximally_entangled_state(d), bell_basis(d))
    result = monte_carlo_fidelity(setup, 20000, np.random.default_rng(d))
    assert abs(result.analytic - result.monte_carlo_mean) <= monte_carlo_rounding_bound(d)
    assert result.sigma_excess() <= monte_carlo_rounding_bound(d)
    moved = dataclasses.replace(result, monte_carlo_mean=result.monte_carlo_mean - 1e-12)
    assert moved.sigma_excess() > monte_carlo_rounding_bound(d)
    # Up to the size guard's d = 64 the floor stays below the default --tolerance.
    assert monte_carlo_rounding_bound(64) < 1e-10


def test_monte_carlo_is_deterministic_per_seed():
    setup = build_setup(product_state([1, 0], [1, 0]), bell_basis(2))
    a = monte_carlo_fidelity(setup, 5000, np.random.default_rng(14))
    b = monte_carlo_fidelity(setup, 5000, np.random.default_rng(14))
    assert a.monte_carlo_mean == b.monte_carlo_mean
    assert a.monte_carlo_stderr == b.monte_carlo_stderr


def test_monte_carlo_estimator_is_unitarily_invariant():
    rng = np.random.default_rng(15)
    setup = build_setup(random_shared_state(2, rng), bell_basis(2))
    n = 20000
    base = oracles.haar_states_gaussian(rng, 2, n)
    rotation = oracles.random_unitary(rng, 2)
    plain = state_fidelity_batch(base, setup)
    rotated = state_fidelity_batch(base @ rotation.T, setup)
    gap = abs(plain.mean() - rotated.mean())
    sigma = math.sqrt(plain.var(ddof=1) / n + rotated.var(ddof=1) / n)
    assert gap <= 3 * sigma


@pytest.mark.parametrize("samples", [100, 20000, 20001, 45000])
def test_monte_carlo_replays_the_chunked_draw_stream(samples):
    # Inputs are drawn in blocks of 20000 states; the estimate must equal
    # the per-outcome oracle kernel over exactly that stream.
    setup = build_setup(random_shared_state(3, np.random.default_rng(16)), bell_basis(3))
    rng, oracle_rng = np.random.default_rng(samples), np.random.default_rng(samples)
    result = monte_carlo_fidelity(setup, samples, rng)
    transfer_abs = oracles.transfer_abs(setup.transfer_ops)
    fids = np.concatenate([
        oracles.state_fidelity_batch_per_outcome(
            oracles.haar_states_gaussian(oracle_rng, 3, min(20000, samples - start)),
            transfer_abs,
        )
        for start in range(0, samples, 20000)
    ])
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    assert abs(result.monte_carlo_mean - fids.mean()) <= 1e-14
    expected_stderr = math.sqrt(fids.var(ddof=1) / samples)
    assert result.monte_carlo_stderr == pytest.approx(expected_stderr, rel=1e-12)


# ----------------------------------------------------------------------
# classical baseline


def test_classical_baseline_qubit():
    value = classical_baseline(2, 50000, np.random.default_rng(16))
    # stderr of sum |psi_j|^4 at d=2 is below 0.25/sqrt(n); 3 sigma band
    assert abs(value - 2 / 3) <= 3 * 0.25 / math.sqrt(50000)


def test_classical_baseline_d_nine():
    value = classical_baseline(9, 50000, np.random.default_rng(17))
    assert abs(value - 0.2) <= 3 * 0.25 / math.sqrt(50000)


def test_classical_fidelity_of_a_basis_state_is_one():
    e3 = basis_state(7, 3)
    assert np.sum(np.abs(e3) ** 4) == 1.0
