#!/usr/bin/env python3
"""Running the protocol: measurement, correction, conditional fidelity.

A measurement outcome xi leaves the receiver holding T_xi|psi>
(normalized).  Undoing the unitary polar factor of T_xi is the best
input-independent correction and yields |T_xi||psi> (normalized).  With
an ideal resource and Bell measurement every branch recovers the input
perfectly, and the outcome distribution is uniform: the sender learns
nothing about what was teleported.
"""

from collections import Counter

import numpy as np

from teleportlab import (
    basis_state,
    bell_basis,
    build_setup,
    enumerate_outcomes,
    haar_state,
    maximally_entangled_state,
    outcome_probabilities,
    product_basis,
    product_state,
    random_shared_state,
    sample_outcome,
    state_fidelity,
)

rng = np.random.default_rng(42)
d = 2

ideal = build_setup(maximally_entangled_state(d), bell_basis(d))
psi = haar_state(d, rng)

print("ideal setup, random input:")
print("  outcome probabilities:", np.round(outcome_probabilities(psi, ideal), 12))
shots = Counter(o.xi for o in sample_outcome(psi, ideal, rng, size=4000))
print("  4000 sampled shots   :", dict(sorted(shots.items())))
outcome = sample_outcome(psi, ideal, rng)
print(f"  one shot: xi={outcome.xi}, p={outcome.probability:.6f}, "
      f"conditional fidelity={outcome.conditional_fidelity:.12f}")
print(f"  fidelity before correction would be "
      f"{abs(np.vdot(psi, outcome.raw_conditional_state))**2:.6f}, "
      f"after correction {abs(np.vdot(psi, outcome.corrected_state))**2:.12f}")

# A degraded resource makes some branches lossy; the fidelity averaged
# over branches (probability-weighted) is what the receiver keeps.
worse = build_setup(random_shared_state(d, rng), bell_basis(d))
print("\nrandom resource, same input:")
for o in enumerate_outcomes(psi, worse):
    print(f"  xi={o.xi}: p={o.probability:.4f}, conditional fidelity={o.conditional_fidelity:.4f}")
print(f"  branch-weighted fidelity F(psi) = {state_fidelity(psi, worse):.6f}")

# The classical extreme: measure-and-reprepare.  Basis states survive,
# superpositions do not.
classical = build_setup(product_state([1, 0], [1, 0]), product_basis(d))
plus = np.array([1.0, 1.0]) / np.sqrt(2)
print("\nclassical (measure and re-prepare) setup:")
print(f"  F(|0>)  = {state_fidelity(basis_state(d, 0), classical):.6f}")
print(f"  F(|+>)  = {state_fidelity(plus, classical):.6f}  (superposition degraded)")
