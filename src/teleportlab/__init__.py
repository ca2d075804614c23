"""Numerical laboratory for qudit quantum teleportation.

The package takes the algebraic road: a bipartite pure state is a
matrix of amplitudes, a joint measurement is an orthonormal family of
such matrices, and teleportation is an exact linear-algebra identity
relating the two through transfer operators.  Everything else (outcome
probabilities, optimal unitary correction, analytic and Monte-Carlo
average fidelity) falls out of singular value decompositions of those
transfer operators.

Layout:

    linalg    dense complex |M|, polar factor and tensor substrate
    choi      operator form of bipartite states, entanglement reports
    bases     generalized Bell and product operator bases, validation
    teleport  transfer operators, identity check, protocol sampling
    haar      random states, average fidelity (closed form and MC)
    cli       the ``teleportlab`` command-line front end
"""

__version__ = "0.1.0"

from .errors import (
    BasisStructureError,
    ConfigurationError,
    DimensionError,
    NormalizationError,
)
from .linalg import (
    basis_state,
    dagger,
    normalize_state,
    operator_abs,
    polar_decompose,
    tensor_product,
)
from .choi import (
    BipartiteState,
    EntanglementClass,
    EntanglementReport,
    analyze_entanglement,
    component_overlap,
    hs_inner,
    maximally_entangled_state,
    op_to_vec,
    product_state,
    reduced_states,
    schmidt_shape,
    vec_to_op,
)
from .bases import (
    BasisValidationReport,
    OperatorBasis,
    bell_basis,
    custom_basis,
    product_basis,
    rotated_basis,
    validate_basis,
)
from .teleport import (
    TeleportOutcome,
    TeleportSetup,
    build_setup,
    enumerate_outcomes,
    optimal_correction,
    outcome_probabilities,
    realize_outcome,
    sample_outcome,
    state_fidelity,
    state_fidelity_batch,
    verify_identity,
)
from .haar import (
    AverageFidelityResult,
    SpecialCase,
    average_fidelity_analytic,
    classical_baseline,
    closed_form_gap_bound,
    haar_state,
    haar_states,
    haar_unitary,
    monte_carlo_fidelity,
    pair_average_analytic,
    random_shared_state,
    special_case_fidelity,
    transfer_trace_norms,
)

__all__ = [
    "__version__",
    # errors
    "BasisStructureError", "ConfigurationError", "DimensionError", "NormalizationError",
    # linalg
    "basis_state", "dagger", "normalize_state", "operator_abs", "polar_decompose",
    "tensor_product",
    # choi
    "BipartiteState", "EntanglementClass", "EntanglementReport", "analyze_entanglement",
    "component_overlap", "hs_inner", "maximally_entangled_state", "op_to_vec",
    "product_state", "reduced_states", "schmidt_shape", "vec_to_op",
    # bases
    "BasisValidationReport", "OperatorBasis", "bell_basis", "custom_basis", "product_basis",
    "rotated_basis", "validate_basis",
    # teleport
    "TeleportOutcome", "TeleportSetup", "build_setup", "enumerate_outcomes",
    "optimal_correction", "outcome_probabilities", "realize_outcome", "sample_outcome",
    "state_fidelity", "state_fidelity_batch", "verify_identity",
    # haar
    "AverageFidelityResult", "SpecialCase", "average_fidelity_analytic",
    "classical_baseline", "closed_form_gap_bound", "haar_state", "haar_states", "haar_unitary",
    "monte_carlo_fidelity", "pair_average_analytic", "random_shared_state",
    "special_case_fidelity", "transfer_trace_norms",
]
