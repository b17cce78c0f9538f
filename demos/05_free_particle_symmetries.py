"""The free particle keeps every flat-spacetime symmetry after discretization.

Without a potential the metric is constant, so besides time translations
the action stays invariant under space translations and boosts.  Each
symmetry direction yields a conserved charge, and all three come out
constant across the whole grid, endpoints included.
"""

import numpy as np

import worldline as wl

cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=32)
sol = wl.solve(cfg)

print(f"solved in {sol.iterations} iterations (the free problem is quadratic), "
      f"|grad| = {sol.grad_norm:.1e}")

report = wl.diagnose(sol.state, cfg)
q_t, q_x, q_eta = report.q_t, report.q_x, report.q_boost

print()
print("charge                      value      spread over the grid")
for label, q in (
    ("time translation  K=(1,0)", q_t),
    ("space translation K=(0,1)", q_x),
    ("boost             K=(x,t)", q_eta),
):
    print(f"  {label}   {q[0]:+.6f}   {np.max(np.abs(q - q[0])):.2e}")

print()
print("initial data fix the values: Q_t = tdot_i, Q_x = -xdot_i, "
      "Q_eta = x_i*tdot_i - t_i*xdot_i")
print(f"expected: {cfg.tdot_i:+.6f}  {-cfg.xdot_i:+.6f}  "
      f"{cfg.x_i*cfg.tdot_i - cfg.t_i*cfg.xdot_i:+.6f}")
