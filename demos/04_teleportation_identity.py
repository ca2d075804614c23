#!/usr/bin/env python3
"""The teleportation identity, numerically.

On three d-level systems (sender's input, sender's half of the
resource, receiver's half):

    |psi> ⊗ |C>  =  sum_xi |B_xi> ⊗ T_xi |psi>,   T_xi = C^t B_xi^dag

The left side never mentions the measurement; the right side never
mentions the input on the far factor except through T_xi.  The identity
is exact for every orthonormal basis and every resource state, which is
what makes teleportation basis-independent.
"""

import numpy as np

from teleportlab import (
    OperatorBasis,
    TeleportSetup,
    bell_basis,
    build_setup,
    haar_state,
    haar_unitary,
    maximally_entangled_state,
    product_basis,
    random_shared_state,
    rotated_basis,
    verify_identity,
)

rng = np.random.default_rng(11)

print("residuals of |psi>⊗|C> - sum_xi |B_xi>⊗T_xi|psi| (Euclidean norm):\n")
for d in (2, 3, 5, 8):
    shared = random_shared_state(d, rng)
    bases = {
        "bell": bell_basis(d),
        "product": product_basis(d),
        "random custom": rotated_basis(bell_basis(d), haar_unitary(d * d, rng)),
    }
    line = []
    for name, basis in bases.items():
        setup = build_setup(shared, basis)
        residual = max(verify_identity(haar_state(d, rng), setup) for _ in range(10))
        line.append(f"{name}: {residual:.2e}")
    print(f"  d={d}  " + "   ".join(line))

# The identity needs a genuinely orthonormal basis.  Stretch one element
# by 1% and the reconstruction misses by a comparable amount.  The
# constructor, unlike build_setup, does not check the basis, so the broken
# one goes through.
d = 2
elements = bell_basis(d).elements.copy()
elements[0] = 1.01 * elements[0]
skewed = TeleportSetup(maximally_entangled_state(d), OperatorBasis(local_dim=d, elements=elements))
psi = np.array([1.0, 0.0])
print(f"\nwith one element scaled by 1.01 the residual jumps to "
      f"{verify_identity(psi, skewed):.3e}")
