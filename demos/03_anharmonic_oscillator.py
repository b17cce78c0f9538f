"""Strongly anharmonic motion in a quartic well.

With V = x^4/2 the dynamics is far from harmonic, the emergent time mesh
stretches visibly (dt/dgamma doubles over the run), and the interior
charge conservation still holds to machine precision.  Refining the grid
at fixed initial data shrinks the single deviating endpoint monotonically.
"""

from dataclasses import replace

import worldline as wl

cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32)
sol = wl.solve(cfg)
report = wl.diagnose(sol.state, cfg)

print(f"final time reached: t[N] = {report.t[-1]:.4f} "
      f"(tdot_i = 1, yet the window stretches well past 1)")
print(f"final mesh velocity: (Dt)[N] = {report.time_mesh_velocity[-1]:.4f} "
      f"(started at 1.0 -> automatic refinement near t = 0)")
print(f"max interior |Delta E| = {report.max_interior_delta_e:.2e}")
print(f"endpoint |Delta E[N]|  = {report.delta_e_end:.2e}")
print()

print("grid refinement at fixed tdot_i: the endpoint deviation falls monotonically")
for n in (16, 32, 64):
    cfg_n = replace(cfg, n_gamma=n)
    sol_n = wl.solve(cfg_n)
    rep_n = wl.diagnose(sol_n.state, cfg_n)
    print(f"  n = {n:3d}: |Delta E[N]| = {rep_n.delta_e_end:.4e}   "
          f"interior {rep_n.max_interior_delta_e:.1e}")
print()

print("longer trajectories via larger tdot_i (cold solves from a geodesic seed):")
table = wl.scaled_tdot_study(cfg, [16, 32, 64], [1.0, 4.0, 8.0])
for row, tdot in zip(table.rows, (1, 4, 8)):
    print(f"  tdot_i = {tdot}, n = {row.n_gamma:3d}: "
          f"endpoint |Delta E| = {row.delta_e_end:.3e}, "
          f"interior {row.max_interior_delta_e:.1e}")
print("  (interior conservation is untouched however far the window stretches)")
