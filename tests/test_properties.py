"""Property-based checks of the paper's invariants on random setups.

Setups span d in [1, 6], four kinds of resource (Haar-random, product,
and spectra just either side of the rank-one and flat thresholds) and
three kinds of basis (Bell, product, and a Haar rotation of Bell).  The
search is derandomized and bounded, so every run checks the same cases.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from teleportlab import (
    BipartiteState,
    average_fidelity_analytic,
    bell_basis,
    build_setup,
    closed_form_gap_bound,
    enumerate_outcomes,
    haar_state,
    haar_unitary,
    normalize_state,
    outcome_probabilities,
    product_basis,
    product_state,
    random_shared_state,
    rotated_basis,
    special_case_fidelity,
    state_fidelity,
    verify_identity,
)

RESOURCES = ("haar", "product", "near-product", "near-maxent")
BASES = ("bell", "product", "rotated")

bounded = settings(derandomize=True, max_examples=150, deadline=None, database=None)
setups = st.tuples(
    st.integers(1, 6),
    st.sampled_from(RESOURCES),
    st.sampled_from(BASES),
    st.floats(0.5, 2.0),  # tail or spread in units of RANK_TOL, either side of 1
    st.integers(0, 2**32 - 1),
)


def _resource(kind, d, k, rng):
    if kind == "haar":
        return random_shared_state(d, rng)
    if kind == "product":
        return product_state(oracles.random_complex(rng, d), oracles.random_complex(rng, d))
    if kind == "near-product":
        spectrum = np.full(d, k * oracles.RANK_TOL)
        spectrum[0] = 1.0
    else:
        spectrum = np.linspace(1.0, 1.0 - k * oracles.RANK_TOL, d)
    u, v = oracles.random_unitary(rng, d), oracles.random_unitary(rng, d)
    return BipartiteState.from_vector(normalize_state((u @ np.diag(spectrum) @ v).ravel()))


def _basis(kind, d, rng):
    if kind == "bell":
        return bell_basis(d)
    if kind == "product":
        return product_basis(d)
    return rotated_basis(bell_basis(d), haar_unitary(d * d, rng))


def _build(params):
    d, resource, basis, k, seed = params
    rng = np.random.default_rng(seed)
    return build_setup(_resource(resource, d, k, rng), _basis(basis, d, rng)), rng


@bounded
@given(setups)
# Haar resources on the Bell basis at d = 2 and the product basis at d = 3,
# which the derandomized draws miss.
@example((2, "haar", "bell", 1.0, 0))
@example((3, "haar", "product", 1.0, 0))
def test_protocol_invariants(params):
    setup, rng = _build(params)
    d = setup.local_dim
    psi = haar_state(d, rng)
    assert verify_identity(psi, setup) <= 1e-12
    assert abs(outcome_probabilities(psi, setup).sum() - 1.0) <= 1e-12
    # The records carry the same law, and sum_xi p F_cond is F(psi).
    records = enumerate_outcomes(psi, setup)
    assert abs(sum(r.probability for r in records) - 1.0) <= 1e-12
    assert abs(sum(r.probability * r.conditional_fidelity for r in records) - state_fidelity(psi, setup)) <= 1e-12
    # sum_xi Tr(T_xi^dag T_xi) = d for a normalized resource
    assert abs(np.vdot(setup.transfer_ops, setup.transfer_ops).real - d) <= 1e-12 * d


@bounded
@given(setups)
def test_trace_norms_match_the_trace_of_abs_t(params):
    # The cached Tr|T_xi| agrees with the trace of the |T_xi|
    # that the Monte-Carlo kernel reads: the first d entries of each packed
    # row are its diagonal.
    setup, _ = _build(params)
    d = setup.local_dim
    traces = setup.transfer_abs_packed[:, :d].sum(axis=1)
    np.testing.assert_allclose(setup.transfer_trace_norms, traces, rtol=0, atol=1e-13)


@bounded
@given(setups)
def test_average_fidelity_bracket_and_closed_forms(params):
    setup, _ = _build(params)
    d = setup.local_dim
    analytic = average_fidelity_analytic(setup)
    assert 2 / (d + 1) - 1e-12 <= analytic <= 1 + 1e-12
    case, closed = special_case_fidelity(setup)
    assert abs(analytic - closed) <= closed_form_gap_bound(d)
    assert case.value == oracles.special_case_label(setup.basis.elements, setup.shared.operator_form)
    if params[2] == "bell" or d == 1:
        # Horodecki^3 (PRA 60, 1888, 1999): for a maximally entangled basis,
        # E(F) = (d f + 1) / (d + 1) with f = ||C||_1^2 / d.
        trace_norm = np.linalg.svd(setup.shared.operator_form, compute_uv=False).sum()
        f = trace_norm**2 / d
        assert abs(analytic - (d * f + 1) / (d + 1)) <= 1e-12
