"""The library's refusals, one row each: an id, a zero-argument call, the
exact exception type and the exact message, checked by one assertion.  The
rows reach every ``raise`` in ``linalg``, ``choi``, ``bases``, ``teleport``
and ``haar``; the refusals that need a monkeypatched dense size limit stay
in ``test_bases.py`` and ``test_teleport.py``.
"""

import math
from functools import partial

import numpy as np
import pytest

import oracles
from teleportlab import (
    BasisStructureError, BipartiteState, ConfigurationError, DimensionError, NormalizationError,
    OperatorBasis, TeleportSetup, analyze_entanglement, basis_state, bell_basis, build_setup,
    classical_baseline, component_overlap, custom_basis, haar_state, haar_states, haar_trial_states,
    haar_unitary, hs_inner, maximally_entangled_state, monte_carlo_fidelity, normalize_state, op_to_vec,
    operator_abs, optimal_correction, outcome_probabilities, pair_average_analytic, polar_decompose,
    product_basis, product_state, random_shared_state, realize_outcome, reduced_states, rotated_basis,
    sample_outcome, state_fidelity, state_fidelity_batch, tensor_product, vec_to_op, verify_identity,
)
from teleportlab.linalg import polar_unitary, require_normalized
from teleportlab.tolerances import BASIS_TOL

_NAN = np.array([[1.0, np.nan], [0.0, 1.0]])
_LENGTH_3 = np.ones(3) / math.sqrt(3)
_KET_0 = np.array([1.0, 0.0])
_MAXENT_2 = maximally_entangled_state(2)
# The d = 2 Bell stack with element 1 scaled by 1.01 (a Gram diagonal entry of 1.01^2), and with one NaN entry.
_STRETCHED_BELL = bell_basis(2).elements * [[[1]], [[1.01]], [[1]], [[1]]]
_NAN_BELL = bell_basis(2).elements.copy()
_NAN_BELL[1, 0, 1] = np.nan
_D0 = "dimension must be at least 1"
_LOCAL_D0 = "local dimension must be at least 1"
_MATRIX_NAN = "matrix entries must be finite (no NaN/Inf)"
_VECTOR_NAN = "vector entries must be finite (no NaN/Inf)"
_BASIS_NAN = "basis elements must be finite"
_INPUT_D = "input state must have dimension 2"
_NOT_UNITARY = "rotation matrix is not unitary"
_BOOL_D = "local dimension must be an integer, got True"
_FLOAT_D = "local dimension must be an integer, got 2.0"
_FLOAT_DIM = "dimension must be an integer, got 2.0"
_SETUP_DIMS = "shared state dimension 2 does not match basis dimension 3"
_SHAPES_2_3 = "shape mismatch: (2, 2) vs (3, 3)"
_COUNT = "count must be nonnegative"
_rng = partial(np.random.default_rng, 0)


def _ideal(d=2):
    return build_setup(maximally_entangled_state(d), bell_basis(d))


def _defective_rotation(d=24):
    """A unitary whose last row is scaled until the residual is 1e-11 over
    BASIS_TOL; at d = 24 that row is in the check's last, partial 64-row block."""
    w = oracles.random_unitary(np.random.default_rng(5), d * d)
    w[-1] *= 1 + (BASIS_TOL + 1e-11) / 2
    return w


def _with_entry(array, index, value):
    """A copy of ``array`` with one entry of the flattened copy set to ``value``."""
    array = np.array(array)
    array.reshape(-1)[index] = value
    return array


# Non-finite entries past the first _BLOCK_BYTES slice of the finiteness check
# (65,536 complex entries), and one that ends the first slice: the basis at
# d = 17 (83,521 entries) and the 65,537 d = 1 states hold theirs in the last,
# partial slice, and the stack of two 200 x 200 matrices holds its Inf in its
# last matrix at entry 65,535.
_LATE_NAN_BASIS = partial(_with_entry, bell_basis(17).elements, -1, np.nan)
_LATE_INF_STACK = partial(_with_entry, np.ones((2, 200, 200)), 65535, np.inf)
_LATE_NAN_STATES = partial(_with_entry, np.ones((65537, 1)), -1, np.nan)


def _vanishing_setup():
    # TeleportSetup does not validate its basis, so an all-zero stack gives
    # every outcome probability 0 for a normalized input.
    return TeleportSetup(_MAXENT_2, OperatorBasis(2, np.zeros((4, 2, 2))))


_REFUSALS = [
    # linalg
    ("matrix-of-a-vector", lambda: operator_abs(np.ones(4)), DimensionError,
     "expected a matrix, got array of shape (4,)"),
    ("polar-nan", lambda: polar_decompose(_NAN), ValueError, _MATRIX_NAN),
    ("abs-nan", lambda: operator_abs(_NAN), ValueError, _MATRIX_NAN),
    ("tensor-nan", lambda: tensor_product(_NAN, np.eye(2)), ValueError, _MATRIX_NAN),
    ("polar-stack-late-inf", lambda: polar_unitary(_LATE_INF_STACK()), ValueError, _MATRIX_NAN),
    ("polar-nonsquare", lambda: polar_decompose(np.ones((3, 2))), DimensionError,
     "expected a square matrix, got shape (3, 2)"),
    ("normalize-matrix", lambda: normalize_state(np.ones((2, 2))), DimensionError,
     "expected a vector, got array of shape (2, 2)"),
    ("normalize-empty", lambda: normalize_state(np.array([])), DimensionError,
     "state vectors must have positive dimension"),
    ("normalize-inf", lambda: normalize_state(np.array([np.inf, 0.0])), ValueError, _VECTOR_NAN),
    ("normalize-zero", lambda: normalize_state(np.zeros(3)), NormalizationError,
     "cannot normalize the zero vector"),
    ("norm-overflows", lambda: require_normalized([1e308, 0.0]), NormalizationError,
     "state must be normalized: |norm - 1| = 1.000e+308"),
    ("norm-underflows", lambda: require_normalized([1e-320, 0.0]), NormalizationError,
     "state must be normalized: |norm - 1| = 1.000e+00"),
    ("basis-state-d0", lambda: basis_state(0, 0), DimensionError, _D0),
    ("basis-state-index", lambda: basis_state(3, 3), DimensionError,
     "basis index 3 out of range for dimension 3"),
    ("basis-state-float-d", lambda: basis_state(2.0, 0), DimensionError, _FLOAT_DIM),
    ("basis-state-bool-index", lambda: basis_state(2, True), DimensionError,
     "basis index must be an integer, got True"),
    ("basis-state-float-index", lambda: basis_state(2, 1.5), DimensionError,
     "basis index must be an integer, got 1.5"),
    ("tensor-too-large", lambda: tensor_product(np.ones((300, 300)), np.ones((300, 300))), DimensionError,
     "tensor product of shapes (300, 300) and (300, 300) needs 8,100,000,000 complex entries (120.7 GiB), "
     "over the dense size limit of 67,108,864"),
    # choi
    ("vec-to-op-d0", lambda: vec_to_op(np.ones(4) / 2, 0), DimensionError, _LOCAL_D0),
    ("vec-to-op-float-d", lambda: vec_to_op(np.ones(4) / 2, 2.0), DimensionError, _FLOAT_D),
    ("vec-to-op-length", lambda: vec_to_op(np.ones(5), 2), DimensionError,
     "vector of length 5 is not bipartite for local dimension 2"),
    ("op-to-vec-nonsquare", lambda: op_to_vec(np.ones((2, 3))), DimensionError,
     "expected a square matrix, got shape (2, 3)"),
    ("hs-inner-shapes", lambda: hs_inner(np.eye(2), np.eye(3)), DimensionError, _SHAPES_2_3),
    ("component-overlap-dims", lambda: component_overlap(_LENGTH_3, np.ones(2) / math.sqrt(2), np.eye(3)),
     DimensionError, "state dimensions must match the operator"),
    ("bipartite-length", lambda: BipartiteState.from_vector(_LENGTH_3), DimensionError,
     "vector length 3 is not a perfect square"),
    ("bipartite-unnormalized", lambda: BipartiteState.from_vector(np.array([1.0, 0, 0, 1.0])),
     NormalizationError, "bipartite state must be normalized: |norm - 1| = 4.142e-01"),
    ("maxent-d0", lambda: maximally_entangled_state(0), DimensionError, _LOCAL_D0),
    ("maxent-float-d", lambda: maximally_entangled_state(2.0), DimensionError, _FLOAT_D),
    ("product-state-dims", lambda: product_state([1.0, 0.0], [1.0, 0.0, 0.0]), DimensionError,
     "both factors must have the same dimension"),
    ("analyze-not-a-state", lambda: analyze_entanglement("x"), TypeError, "expected a BipartiteState"),
    ("reduced-not-a-state", lambda: reduced_states("x"), TypeError, "expected a BipartiteState"),
    # bases
    ("basis-float-d", lambda: OperatorBasis(2.0, bell_basis(2).elements), DimensionError,
     "local dimension must be an integer, got 2.0"),
    ("basis-numpy-float-d", lambda: OperatorBasis(np.float64(2.0), bell_basis(2).elements), DimensionError,
     "local dimension must be an integer, got np.float64(2.0)"),
    ("basis-bool-d", lambda: OperatorBasis(True, np.ones((1, 1, 1))), DimensionError, _BOOL_D),
    ("custom-basis-bool-d", lambda: custom_basis([np.eye(1)], local_dim=True), DimensionError, _BOOL_D),
    ("basis-d0", lambda: OperatorBasis(0, np.zeros((0, 0, 0))), DimensionError, _LOCAL_D0),
    ("basis-element-shape", lambda: OperatorBasis(2, np.zeros((4, 3, 3))), BasisStructureError,
     "a basis for local dimension 2 needs 4 elements of shape 2 x 2, got array of shape (4, 3, 3)"),
    ("custom-basis-count", lambda: custom_basis([np.eye(2)] * 3), BasisStructureError,
     "a basis for local dimension 2 needs 4 elements of shape 2 x 2, got array of shape (3, 2, 2)"),
    ("basis-nan", lambda: OperatorBasis(2, _NAN_BELL), ValueError, _BASIS_NAN),
    ("basis-late-nan-d17", lambda: OperatorBasis(17, _LATE_NAN_BASIS()), ValueError, _BASIS_NAN),
    ("bell-d0", lambda: bell_basis(0), DimensionError, _LOCAL_D0),
    ("bell-float-d", lambda: bell_basis(2.0), DimensionError, _FLOAT_D),
    ("bell-bool-d", lambda: bell_basis(True), DimensionError, _BOOL_D),
    ("product-basis-d0", lambda: product_basis(0), DimensionError, _LOCAL_D0),
    ("product-basis-bool-d", lambda: product_basis(True), DimensionError, _BOOL_D),
    ("custom-basis-unequal-shapes", lambda: custom_basis([np.eye(2)] * 3 + [np.eye(3)]), BasisStructureError,
     "elements must all have the same shape"),
    ("custom-basis-empty", lambda: custom_basis([]), BasisStructureError,
     "elements must be a sequence of square matrices"),
    ("rotation-shape", lambda: rotated_basis(bell_basis(2), np.eye(9)), DimensionError,
     "rotation must be 4 x 4 for this basis"),
    ("rotation-ones", lambda: rotated_basis(bell_basis(2), np.ones((4, 4))), ValueError, _NOT_UNITARY),
    # Entries this large overflow the Gram matrix to inf and nan.
    ("rotation-overflows-d1", lambda: rotated_basis(bell_basis(1), (1e200 + 1e200j) * np.eye(1)), ValueError,
     _NOT_UNITARY),
    ("rotation-overflows-d2", lambda: rotated_basis(bell_basis(2), (1e200 + 1e200j) * np.eye(4)), ValueError,
     _NOT_UNITARY),
    ("rotation-defect-in-partial-block", lambda: rotated_basis(bell_basis(24), _defective_rotation()),
     ValueError, _NOT_UNITARY),
    # teleport
    ("setup-dims", lambda: TeleportSetup(_MAXENT_2, bell_basis(3)), DimensionError, _SETUP_DIMS),
    ("build-setup-dims", lambda: build_setup(_MAXENT_2, bell_basis(3)), DimensionError, _SETUP_DIMS),
    # The message carries no prefix.
    ("build-setup-invalid-basis", lambda: build_setup(_MAXENT_2, OperatorBasis(2, _STRETCHED_BELL)),
     BasisStructureError, "basis is not orthonormal and complete (residual 2.010e-02)"),
    ("verify-nan", lambda: verify_identity(np.array([[1.0, 0.0], [np.nan, 0.0]]), _ideal()), ValueError,
     _VECTOR_NAN),
    ("verify-late-nan-d1", lambda: verify_identity(_LATE_NAN_STATES(), _ideal(1)), ValueError, _VECTOR_NAN),
    ("verify-length-3", lambda: verify_identity(_LENGTH_3, _ideal()), DimensionError, _INPUT_D),
    ("verify-rows-of-3", lambda: verify_identity(np.ones((4, 3)), _ideal()), DimensionError, _INPUT_D),
    ("verify-rank-3", lambda: verify_identity(np.ones((1, 1, 2)), _ideal()), DimensionError, _INPUT_D),
    ("probabilities-length-3", lambda: outcome_probabilities(_LENGTH_3, _ideal()), DimensionError, _INPUT_D),
    ("fidelity-length-3", lambda: state_fidelity(_LENGTH_3, _ideal()), DimensionError, _INPUT_D),
    ("realize-length-3", lambda: realize_outcome(_LENGTH_3, _ideal(), 0), DimensionError, _INPUT_D),
    ("probabilities-unnormalized", lambda: outcome_probabilities(np.array([1.0, 1.0]), _ideal()),
     NormalizationError, "input state must be normalized: |norm - 1| = 4.142e-01"),
    ("fidelity-unnormalized", lambda: state_fidelity(np.array([2.0, 0.0]), _ideal()), NormalizationError,
     "input state must be normalized: |norm - 1| = 1.000e+00"),
    ("correction-nonsquare", lambda: optimal_correction(np.ones((3, 2))), DimensionError,
     "expected a square matrix, got shape (3, 2)"),
    ("correction-nan", lambda: optimal_correction(_NAN), ValueError, _MATRIX_NAN),
    ("realize-xi-4", lambda: realize_outcome(_KET_0, _ideal(), 4), DimensionError,
     "outcome index 4 out of range"),
    ("realize-xi-negative", lambda: realize_outcome(_KET_0, _ideal(), -1), DimensionError,
     "outcome index -1 out of range"),
    ("realize-xi-bool", lambda: realize_outcome(_KET_0, _ideal(), True), DimensionError,
     "outcome index must be an integer, got True"),
    ("realize-xi-float", lambda: realize_outcome(_KET_0, _ideal(), 1.5), DimensionError,
     "outcome index must be an integer, got 1.5"),
    ("sample-vanishing-probabilities", lambda: sample_outcome(_KET_0, _vanishing_setup(), _rng()),
     AssertionError, "probability vector vanished for a normalized input"),
    ("sample-float-size", lambda: sample_outcome(_KET_0, _ideal(), _rng(), size=2.5), DimensionError,
     "size must be an integer, got 2.5"),
    ("sample-negative-size", lambda: sample_outcome(_KET_0, _ideal(), _rng(), size=-1), ValueError,
     "size must be nonnegative"),
    ("batch-one-state", lambda: state_fidelity_batch(_KET_0, _ideal()), DimensionError,
     "expected shape (n, 2)"),
    ("batch-rows-of-4", lambda: state_fidelity_batch(np.ones((2, 4)), _ideal(3)), DimensionError,
     "expected shape (n, 3)"),
    # haar
    ("haar-state-d0", lambda: haar_state(0, _rng()), DimensionError, _D0),
    ("haar-state-bool-d", lambda: haar_state(True, _rng()), DimensionError, "dimension must be an integer, got True"),
    ("trial-states-d0", lambda: haar_trial_states(0, 3, _rng()), DimensionError, _D0),
    ("trial-states-float-d", lambda: haar_trial_states(2.0, 3, _rng()), DimensionError, _FLOAT_DIM),
    ("trial-states-negative-count", lambda: haar_trial_states(2, -1, _rng()), ValueError, _COUNT),
    ("trial-states-bool-count", lambda: haar_trial_states(2, True, _rng()), DimensionError,
     "count must be an integer, got True"),
    ("haar-states-d0", lambda: haar_states(0, 3, _rng()), DimensionError, _D0),
    ("haar-states-float-d", lambda: haar_states(2.0, 3, _rng()), DimensionError, _FLOAT_DIM),
    ("haar-states-negative-count", lambda: haar_states(2, -1, _rng()), ValueError, _COUNT),
    ("haar-states-float-count", lambda: haar_states(2, 2.5, _rng()), DimensionError,
     "count must be an integer, got 2.5"),
    ("haar-unitary-d0", lambda: haar_unitary(0, _rng()), DimensionError, _D0),
    ("haar-unitary-float-d", lambda: haar_unitary(2.0, _rng()), DimensionError, _FLOAT_DIM),
    ("shared-state-float-d", lambda: random_shared_state(2.0, _rng()), DimensionError, _FLOAT_D),
    ("baseline-float-d", lambda: classical_baseline(2.0, 1000, _rng()), DimensionError, _FLOAT_DIM),
    ("baseline-str-d", lambda: classical_baseline("3", 10, _rng()), DimensionError,
     "dimension must be an integer, got '3'"),
    ("baseline-bool-d", lambda: classical_baseline(True, 10, _rng()), DimensionError,
     "dimension must be an integer, got True"),
    ("pair-average-shapes", lambda: pair_average_analytic(np.eye(2), np.eye(3)), DimensionError, _SHAPES_2_3),
    ("monte-carlo-99-samples", lambda: monte_carlo_fidelity(_ideal(), 99, _rng()), ConfigurationError,
     "need at least 100 samples, got 99"),
    ("monte-carlo-float-samples", lambda: monte_carlo_fidelity(_ideal(), 150.5, _rng()), DimensionError,
     "samples must be an integer, got 150.5"),
    ("baseline-d1", lambda: classical_baseline(1, 1000, _rng()), DimensionError,
     "the baseline needs dimension at least 2"),
    ("baseline-no-samples", lambda: classical_baseline(2, 0, _rng()), ConfigurationError,
     "need at least one sample"),
    ("baseline-float-samples", lambda: classical_baseline(2, 10.5, _rng()), DimensionError,
     "samples must be an integer, got 10.5"),
    ("baseline-bool-samples", lambda: classical_baseline(2, True, _rng()), DimensionError,
     "samples must be an integer, got True"),
]


@pytest.mark.parametrize("call, kind, text", [row[1:] for row in _REFUSALS], ids=[row[0] for row in _REFUSALS])
def test_each_refusal_raises_its_exact_type_and_message(call, kind, text):
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, text)
