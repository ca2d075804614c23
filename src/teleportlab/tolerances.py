"""Default numerical tolerances.

Chosen with double precision headroom for local dimensions up to a few
dozen.  Library checks read these directly and take no overrides, so
that every check and classification agrees; only the CLI's gates
accept ``--tolerance``.
"""

# State vectors must have unit Euclidean norm within this bound.
NORMALIZATION_TOL = 1e-12

# Singular values at or below this threshold count as zero for ranks, and
# a spectrum whose spread is at most this fraction of its largest value
# counts as flat (choi.schmidt_shape).
RANK_TOL = 1e-10

# Closed-form gap per unit of d that RANK_TOL admits (haar.closed_form_gap_bound).
CLOSED_FORM_GAP_PER_DIM = 2 * RANK_TOL

# Monte-Carlo mean's rounding against the analytic value per unit of d^2,
# 64 machine epsilons (haar.monte_carlo_rounding_bound).
MC_ROUNDING_PER_DIM_SQ = 64 * 2.0**-52

# Rounding slack above 1 that a probability or conditional fidelity may
# show before the teleport command reports a failure (exit 1); the command
# allows --tolerance instead when that is larger.
PROBABILITY_TOL = 1e-12

# Bound on the residual ||V V^dag - I||_F of an operator basis (its vectorized
# elements as the rows of V), which covers orthonormality and completeness at
# once, and of a rotation's rows (bases.validate_basis, bases.rotated_basis).
BASIS_TOL = 1e-10

# Conditional states for outcomes with ||T psi|| at or below this norm
# are reported as zero-vector sentinels (the event has no weight).
ZERO_OUTCOME_TOL = 1e-12
