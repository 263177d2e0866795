"""Structural checks on the assembled discrete spaces.

Verifies at desk scale the properties the weak formulation rests on: the
coercivity constant of the gradient form over the full norm on zero-mean
pairs, certified by one inertia count and the residual of its eigenvector;
the symmetry and constant kernels of the stiffness matrices, which make the
weak Laplacian pair adjoint; the lumped mass totals; and the duality
roundtrip through the Riesz map of the gradient form.
"""

import numpy as np

from chbs import (FieldPair, appendix_checks, apply_F, build_unit_square,
                  poincare_constant, project_zero_mean, solve_F_inverse)

for n in (8, 16):
    dom = build_unit_square(n)
    print(f"n = {n:2d}: coercivity constant c_p = {poincare_constant(dom):.6f}")

dom = build_unit_square(8)
report = appendix_checks(dom)
print()
for line in report.summary_lines():
    print(line)

rng = np.random.Generator(np.random.Philox(1))
z = project_zero_mean(FieldPair.from_bulk(dom, rng.standard_normal(dom.n_bulk)))
back = solve_F_inverse(apply_F(z))
print(f"\nduality roundtrip error: {np.abs(back.bulk - z.bulk).max():.2e}")
