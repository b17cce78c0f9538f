"""A point mass falling in a constant-force field, solved variationally.

The potential V = x/4 modifies the temporal metric component, the doubled
world-line action is minimized-in-gradient-norm, and the conserved charge
of time translations comes out exactly constant in the interior of the
simulated window; only the very last point deviates, at the per-mille
level for the second-order operator.
"""

import numpy as np

import worldline as wl

cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=32)
sol = wl.solve(cfg)
oracle = wl.solve_geodesic_ode(cfg)
report = wl.diagnose(sol.state, cfg, reference=oracle)

print(f"converged in {sol.iterations} Newton iterations, "
      f"|grad| = {sol.grad_norm:.2e}")
print(f"simulated time window: [{report.t[0]:.4f}, {report.t[-1]:.4f}] "
      f"(tdot_i = {cfg.tdot_i} makes it land near 1)")
print(f"connecting multiplier lam_5 = {sol.state.lam[0]:.6f} "
      f"(minus the conserved charge below)")
print()

print("conserved charge of time translations, Q_t = (Dt) o g00(x):")
print(f"  continuum value from initial data: {report.q_t[0]:.6f}")
print(f"  max interior |deviation|:          {report.max_interior_delta_e:.2e}")
print(f"  deviation at the final point:      {report.delta_e_end:.2e}  (< 2e-3)")
print()

print("geodesic-equation residuals stay at solver level except the last two points:")
print(f"  max |dG_t|, |dG_x| elsewhere: {np.max(np.abs(report.delta_g_t[:-2])):.1e}, "
      f"{np.max(np.abs(report.delta_g_x[:-2])):.1e}")
print()

print("the time mesh adapts on its own: dt/dgamma dips where x(gamma) peaks")
k_peak = int(np.argmax(report.x))
k_mesh = int(np.argmin(report.time_mesh_velocity))
print(f"  x peaks at gamma = {report.gamma[k_peak]:.3f}, "
      f"dt/dgamma bottoms at gamma = {report.gamma[k_mesh]:.3f}")
print()

print(f"accuracy against the high-order geodesic integrator:")
print(f"  endpoint |dx| = {report.eps_final_x:.2e}, weighted L2 = {report.eps_l2_x:.2e}")
print(f"stability: quadrature of the energy-like profile {report.h_bvp_total:.4f} "
      f"<= linear-growth bound {report.h_bvp_bound:.4f}")
