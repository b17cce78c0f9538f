"""Anatomy of the summation-by-parts operators.

Builds the second- and fourth-order operator pairs, checks the discrete
integration-by-parts identity that everything else rests on, and shows how
absorbing the initial-value penalty lifts the null space.
"""

import numpy as np
from scipy.linalg import svdvals

import worldline as wl

n, dgamma = 16, 1.0 / 15

for order in ("sbp21", "sbp42"):
    op = wl.build_operator(order, n, dgamma)
    q = op.q
    boundary = np.zeros((n, n))
    boundary[0, 0], boundary[-1, -1] = -1.0, 1.0

    print(f"== {order}: interior order {op.interior_order}, "
          f"boundary order {op.boundary_order}")
    print(f"   ||Q + Q^T - (E_N - E_0)||_max = {np.max(np.abs(q + q.T - boundary)):.2e}")

    # the mimetic property: u^T H (D v) + (D u)^T H v telescopes to the
    # boundary values, exactly as integration by parts would
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    lhs = (u * op.h) @ (op.d @ v) + ((op.d @ u) * op.h) @ v
    print(f"   IBP mimicry error = {abs(lhs - (u[-1]*v[-1] - u[0]*v[0])):.2e}")

    # the classical operator annihilates constants, so its transpose has a
    # null mode; the regularized affine operator does not
    sv_plain = svdvals(op.d)
    reg = wl.regularize(op, init_value=0.3)
    sv_reg = svdvals(reg.dbar)
    print(f"   smallest singular value: D = {sv_plain[-1]:.2e}  "
          f"regularized = {sv_reg[-1]:.2e} (ratio to largest {sv_reg[-1]/sv_reg[0]:.1e})")

print()
print("Regularized first row absorbs the penalty: D[0,:] gains 2/dgamma on the")
print("diagonal and the shift column carries -2*init/dgamma (trapezoidal norm):")
reg = wl.regularize(wl.build_operator("sbp21", 5, 0.5), init_value=1.0)
print(np.array_str(reg.dbar, precision=3, suppress_small=True))
