"""Default numerical tolerances.

Chosen with double precision headroom for local dimensions up to a few
dozen.  Library checks read these directly and take no overrides, so
that every check and classification agrees; only the CLI's gates
accept ``--tolerance``.  The gates' floors are not stored here: each is
computed in the function whose docstring derives it,
``haar.closed_form_gap_bound`` from RANK_TOL and
``haar.monte_carlo_rounding_bound`` from the machine epsilon.
"""

# State vectors must have unit Euclidean norm within this bound.
NORMALIZATION_TOL = 1e-12

# Singular values at or below this threshold count as zero for ranks, and
# a spectrum whose spread is at most this fraction of its largest value
# counts as flat (choi.schmidt_shape).
RANK_TOL = 1e-10

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
