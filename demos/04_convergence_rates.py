"""Grid-refinement convergence of the variational solver.

Errors are measured against an adaptive Runge-Kutta integration of the
geodesic system at tolerance 1e-14, both at the final point (the least
favorable place, right where the charge deviates) and globally in the
quadrature-weighted L2 norm.  The second-order operator converges at
rate ~2, the fourth-order one at rate ~3 and better.
"""

import worldline as wl

POTENTIALS = {
    "linear (alpha = 1/4)": wl.linear_potential(0.25),
    "quartic (kappa = 1/2)": wl.quartic_potential(0.5),
}

for name, pot in POTENTIALS.items():
    print(f"== {name}")
    for order in ("sbp21", "sbp42"):
        cfg = wl.ProblemConfig(potential=pot, order=order)
        table = wl.convergence_study(cfg, [16, 32, 64, 128])
        print(f"   {order}:")
        print("      n     dgamma      eps_x(end)   eps_t(end)   eps_x(L2)    eps_t(L2)")
        for r in table.rows:
            print(f"   {r.n_gamma:4d}   {r.dgamma:.5f}   {r.eps_final_x:.3e}"
                  f"   {r.eps_final_t:.3e}   {r.eps_l2_x:.3e}   {r.eps_l2_t:.3e}")
        fits = table.fit_exponents()
        print("      fitted exponents: "
              + ", ".join(f"{k.removeprefix('eps_')}: {v['beta']:.2f}"
                          for k, v in fits.items()))
    print()
