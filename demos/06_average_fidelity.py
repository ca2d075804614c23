#!/usr/bin/env python3
"""Average fidelity: closed forms against Monte Carlo.

Averaging over uniformly random inputs reduces the fidelity of a setup
to its transfer-operator trace norms:

    E(F) = (d + sum_xi (Tr|T_xi|)^2) / (d (d + 1))

Structured setups collapse further: an ideal pair gives 1, a product
resource or a product measurement basis gives the classical 2/(d+1),
and a Bell measurement with any resource interpolates between the two
through (1 + (Tr|C|)^2)/(d+1).
"""

import numpy as np

from teleportlab import (
    basis_state,
    bell_basis,
    build_setup,
    classical_baseline,
    maximally_entangled_state,
    monte_carlo_fidelity,
    monte_carlo_rounding_bound,
    product_basis,
    product_state,
    random_shared_state,
    special_case_fidelity,
)

rng = np.random.default_rng(2)
d = 3

setups = {
    "ideal (maxent resource, bell basis)": build_setup(
        maximally_entangled_state(d), bell_basis(d)
    ),
    "product resource, bell basis": build_setup(
        product_state(basis_state(d, 0), basis_state(d, 0)), bell_basis(d)
    ),
    "maxent resource, product basis": build_setup(
        maximally_entangled_state(d), product_basis(d)
    ),
    "random resource, bell basis": build_setup(random_shared_state(d, rng), bell_basis(d)),
}

print(f"d = {d}, classical bar 2/(d+1) = {2 / (d + 1):.6f}\n")
for name, setup in setups.items():
    case, closed = special_case_fidelity(setup)
    result = monte_carlo_fidelity(setup, 20000, rng)
    print(f"{name}")
    print(f"  detected structure : {case.value}")
    print(f"  analytic E(F)      : {result.analytic:.6f} (closed form {closed:.6f})")
    print(f"  monte carlo        : {result.monte_carlo_mean:.6f} "
          f"+- {result.monte_carlo_stderr:.6f} ({result.samples} samples)")
    print(f"  within 4 std errs  : {result.sigma_excess() <= monte_carlo_rounding_bound(d)}\n")

# The classical strategy simulated directly lands on the same 2/(d+1).
for dim in (2, 3, 9):
    estimate = classical_baseline(dim, 50000, rng)
    print(f"measure-and-reprepare at d={dim}: {estimate:.4f} (target {2 / (dim + 1):.4f})")
