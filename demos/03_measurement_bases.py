#!/usr/bin/env python3
"""Orthonormal operator bases: construction, validation, corruption.

A joint measurement on two d-level systems is a family of d^2 operators
that is orthonormal under Tr(B_xi^dag B_eta) and complete in the sense
sum_xi B_xi^dag A B_xi = Tr(A) 1.  With the vectorized elements as the rows
of a square matrix V the two relations are V V^dag = I and V^dag V = I,
which share one residual ||V V^dag - I||_F.  The generalized Bell family consists
of maximally entangled elements; the product family of rank-one ones.
"""

import numpy as np

from teleportlab import (
    OperatorBasis,
    analyze_entanglement,
    BipartiteState,
    bell_basis,
    haar_unitary,
    product_basis,
    rotated_basis,
    validate_basis,
)

d = 3
rng = np.random.default_rng(5)

for name, basis in (("bell", bell_basis(d)), ("product", product_basis(d))):
    report = validate_basis(basis)
    kinds = {
        analyze_entanglement(BipartiteState.from_operator(el)).classification.value
        for el in basis.elements
    }
    print(f"{name} basis: {len(basis)} elements, classes {sorted(kinds)}")
    print(f"  residual ||V V^dag - I||_F {report.residual:.2e}, passed={report.passed}")

# Element (j, k) of the Bell family is (1/sqrt d) Z^k X^j; the first one
# is the uniform diagonal, the generalized phi+.
print("\nbell element (0,0) * sqrt(d):\n", np.round(bell_basis(d).elements[0] * np.sqrt(d), 6))

# Any unitary on the d^2-dimensional bipartite space rotates one valid
# basis into another; this is how arbitrary custom bases are made.
custom = rotated_basis(bell_basis(d), haar_unitary(d * d, rng))
print("\nrotated custom basis passes:", validate_basis(custom).passed)

# Corrupt a single element and the one residual, which covers both
# relations, catches it.
elements = bell_basis(d).elements.copy()
elements[4] = 1.02 * elements[4]
bad = validate_basis(OperatorBasis(local_dim=d, elements=elements))
print(f"corrupted basis: passed={bad.passed}, {bad.failure}")
