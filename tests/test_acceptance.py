"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they execute.  Session-scoped fixtures share the expensive solves
and refinement sweeps between criteria.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import svdvals

import worldline as wl
from worldline.diagnostics import interior_slice
from conftest import (
    doubled_gradient,
    doubled_hessian,
    fd_gradient,
    fd_hessian,
    lift,
    pack,
    scaled_max_err,
    unpack,
)


def check(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ fixtures

BASE_CASES = {
    ("linear", "sbp21"): (wl.linear_potential(0.25), "sbp21"),
    ("linear", "sbp42"): (wl.linear_potential(0.25), "sbp42"),
    ("quartic", "sbp21"): (wl.quartic_potential(0.5), "sbp21"),
    ("quartic", "sbp42"): (wl.quartic_potential(0.5), "sbp42"),
}


@pytest.fixture(scope="session")
def base_solutions():
    out = {}
    for key, (pot, order) in BASE_CASES.items():
        cfg = wl.ProblemConfig(potential=pot, n_gamma=32, order=order)
        out[key] = (cfg, wl.solve(cfg))
    return out


@pytest.fixture(scope="session")
def sweep_tables():
    tables = {}
    for pot_name, order, n_list in (
        ("linear", "sbp21", [16, 32, 64, 128]),
        ("linear", "sbp42", [16, 32, 64, 128]),
        ("quartic", "sbp21", [16, 32, 64, 128]),
        # the fourth-order endpoint fit needs the asymptotic regime
        # (n >= 64) and three points within it
        ("quartic", "sbp42", [16, 32, 64, 128, 256]),
    ):
        pot = (
            wl.linear_potential(0.25)
            if pot_name == "linear"
            else wl.quartic_potential(0.5)
        )
        cfg = wl.ProblemConfig(potential=pot, order=order)
        tables[(pot_name, order)] = wl.convergence_study(cfg, n_list)
    return tables


# ------------------------------------------------------------------ criteria


def test_criterion_1_sbp_identities():
    worst_identity = 0.0
    worst_sv_ratio = np.inf
    for order, n_set in (("sbp21", (8, 16, 32, 64, 128)), ("sbp42", (16, 32, 64, 128))):
        for n in n_set:
            op = wl.build_operator(order, n, 1.0 / (n - 1))
            q = op.h[:, None] * op.d
            boundary = np.zeros((n, n))
            boundary[0, 0], boundary[-1, -1] = -1.0, 1.0
            worst_identity = max(
                worst_identity, float(np.max(np.abs(q + q.T - boundary)))
            )

            gamma = 1.0 + op.dgamma * np.arange(n)
            closure = 1 if order == "sbp21" else 4
            interior = slice(closure, n - closure)
            for k in range(1, op.interior_order + 1):
                rel = np.abs(op.d @ gamma ** k - k * gamma ** (k - 1)) / np.abs(
                    k * gamma ** (k - 1)
                )
                assert np.max(rel[interior]) <= 1e-12
                if k <= op.boundary_order:
                    assert np.max(rel[:closure]) <= 1e-12
                    assert np.max(rel[n - closure :]) <= 1e-12

            sv = svdvals(wl.regularize(op, 0.7).dbar)
            worst_sv_ratio = min(worst_sv_ratio, float(sv[-1] / sv[0]))

    ok = worst_identity <= 1e-14 and worst_sv_ratio > 1e-10
    check(
        1,
        ok,
        f"max |Q+Q^T-B| = {worst_identity:.2e}, min sv ratio = {worst_sv_ratio:.2e}",
    )


def test_criterion_2_derivative_correctness():
    rng = np.random.default_rng(2024)
    worst_grad = 0.0
    worst_hess = 0.0
    for pot in (wl.linear_potential(0.25), wl.quartic_potential(0.5)):
        cfg = wl.ProblemConfig(potential=pot, n_gamma=8)
        action = wl.DiscreteAction(cfg)
        for _ in range(20):
            z = pack(lift(wl.initial_guess(cfg))) + 0.4 * rng.standard_normal(40)
            s = unpack(z, 8)
            worst_grad = max(
                worst_grad, scaled_max_err(doubled_gradient(action, s), fd_gradient(action, z, 8))
            )
            hess_err = scaled_max_err(doubled_hessian(action, s), fd_hessian(action, z, 8))
            worst_hess = max(worst_hess, hess_err)
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5
    check(2, ok, f"gradient err {worst_grad:.2e}, hessian err {worst_hess:.2e}")


def test_criterion_3_free_particle_exactness(free_cfg, free_solution):
    sol = free_solution
    gamma = free_cfg.gamma_grid
    line_t = gamma * free_cfg.tdot_i
    line_x = free_cfg.x_i + free_cfg.xdot_i * gamma
    traj_err = max(
        float(np.max(np.abs(sol.state.t - line_t))),
        float(np.max(np.abs(sol.state.x - line_x))),
    )
    report = wl.diagnose(sol.state, free_cfg)
    q_t, q_x, q_eta = report.q_t, report.q_x, report.q_boost
    spread = max(
        float(np.max(np.abs(q - q[0]))) for q in (q_t, q_x, q_eta)
    )
    ok = sol.grad_norm <= 1e-12 and traj_err <= 1e-10 and spread <= 1e-10
    check(
        3,
        ok,
        f"grad {sol.grad_norm:.1e}, line dev {traj_err:.1e}, charge spread {spread:.1e}",
    )


def test_criterion_4_physical_limit(base_solutions, free_solution, free_cfg):
    # a solution holds only the physical limit, so at its lift the branch gap
    # and lam_1..lam_4 are 0 by construction; the doubled gradient tests the limit
    gap = lam_14 = grad_ratio = 0.0
    for cfg, sol in list(base_solutions.values()) + [(free_cfg, free_solution)]:
        s = lift(sol.state)
        gap = max(gap, float(np.max(np.abs(s.t1 - s.t2))), float(np.max(np.abs(s.x1 - s.x2))))
        lam_14 = max(lam_14, float(np.max(np.abs(s.lam[:4]))))
        bound = wl.SolveOptions().grad_tol * (1.0 + np.max(np.abs(pack(s))))
        grad = np.linalg.norm(doubled_gradient(wl.DiscreteAction(cfg), s))
        grad_ratio = max(grad_ratio, float(grad / bound))
    ok = gap == 0.0 and lam_14 == 0.0 and grad_ratio <= 1.0
    check(
        4,
        ok,
        f"max branch gap {gap:.2e}, max |lam_1..4| {lam_14:.2e}, "
        f"max |grad E| / solver bound {grad_ratio:.2e}",
    )


def test_criterion_5_interior_noether_conservation(base_solutions):
    details = []
    ok = True
    for (pot_name, order), (cfg, sol) in base_solutions.items():
        delta = wl.diagnose(sol.state, cfg).delta_e
        interior = float(np.max(np.abs(delta[interior_slice])))
        end = float(abs(delta[-1]))
        ok &= interior <= 1e-9
        if (pot_name, order) == ("linear", "sbp21"):
            ok &= end < 2e-3
        if (pot_name, order) == ("linear", "sbp42"):
            ok &= end <= 1e-5
        details.append(f"{pot_name}/{order}: int {interior:.1e} end {end:.1e}")
    check(5, ok, "; ".join(details))


def test_criterion_6_residual_support(base_solutions):
    # the two-point support pattern belongs to the second-order closure
    worst = 0.0
    for pot_name in ("linear", "quartic"):
        cfg, sol = base_solutions[(pot_name, "sbp21")]
        report = wl.diagnose(sol.state, cfg)
        dg_t, dg_x = report.delta_g_t, report.delta_g_x
        worst = max(
            worst, float(np.max(np.abs(dg_t[:-2]))), float(np.max(np.abs(dg_x[:-2])))
        )
    check(6, worst <= 1e-9, f"max residual outside last two points {worst:.2e}")


def test_criterion_7_quartic_observables(base_solutions):
    cfg, sol = base_solutions[("quartic", "sbp21")]
    t_final = float(sol.state.t[-1])
    dt_final = float((cfg.build_operator().d @ sol.state.t)[-1])
    ok = abs(t_final - 1.47) <= 0.01 and abs(dt_final - 2.06) <= 0.03
    check(7, ok, f"t_final {t_final:.4f}, (Dt)[N] {dt_final:.4f}")


def test_criterion_8_convergence_exponents(sweep_tables):
    expectations = [
        ("linear", "sbp21", 0, "eps_final_x", 1.85, 2.35),
        ("linear", "sbp21", 0, "eps_final_t", 1.85, 2.35),
        ("linear", "sbp42", 0, "eps_final_x", 2.7, 3.4),
        ("linear", "sbp42", 0, "eps_final_t", 3.1, 3.8),
        ("quartic", "sbp21", 0, "eps_final_x", 1.85, 2.35),
        ("quartic", "sbp21", 0, "eps_final_t", 1.85, 2.35),
        ("quartic", "sbp42", 64, "eps_final_x", 2.5, 3.2),
        ("quartic", "sbp42", 64, "eps_final_t", 2.8, 3.5),
    ]
    details = []
    ok = True
    for pot_name, order, min_n, column, lo, hi in expectations:
        beta = sweep_tables[(pot_name, order)].fit_exponents(min_n=min_n)[column]["beta"]
        ok &= lo <= beta <= hi
        details.append(f"{pot_name}/{order}/{column}[n>={min_n}]={beta:.2f}")
    # global L2 floors
    for (pot_name, order), table in sweep_tables.items():
        floor = 1.85 if order == "sbp21" else 2.85
        fits = table.fit_exponents()
        for column in ("eps_l2_x", "eps_l2_t"):
            beta = fits[column]["beta"]
            ok &= beta >= floor
            details.append(f"{pot_name}/{order}/{column}={beta:.2f}")
    check(8, ok, "; ".join(details))


def test_criterion_9a_endpoint_deviation_decreases(sweep_tables):
    rows = [
        r
        for r in sweep_tables[("quartic", "sbp21")].rows
        if r.n_gamma in (16, 32, 64)
    ]
    ends = [r.delta_e_end for r in rows]
    ok = ends[0] > ends[1] > ends[2]
    check(
        "9a", ok, "fixed-tdot endpoint |dE|: " + " > ".join(f"{e:.3e}" for e in ends)
    )


def test_criterion_9b_scaled_runs_endpoint_deviation():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5))
    table = wl.scaled_tdot_study(cfg, [16, 32, 64], [1.0, 4.0, 8.0])
    assert all(r.max_interior_delta_e <= 1e-9 for r in table.rows)
    ends = [r.delta_e_end for r in table.rows]
    ratio = max(ends) / min(ends)
    check(
        "9b",
        ratio <= 3.0,
        f"scaled endpoint |dE| = {', '.join(f'{e:.3e}' for e in ends)} "
        f"(spread factor {ratio:.1f})",
    )


def test_criterion_10_stability_bound(base_solutions, free_solution, free_cfg):
    cases = list(base_solutions.values()) + [(free_cfg, free_solution)]
    details = []
    ok = True
    for cfg, sol in cases:
        report = wl.diagnose(sol.state, cfg)
        total, bound = report.h_bvp_total, report.h_bvp_bound
        ok &= total <= bound + 1e-8
        details.append(f"{total:.3f}<={bound:.3f}")
    check(10, ok, "; ".join(details))


def test_criterion_11_oracle_cross_validation():
    details = []
    worst = 0.0
    for pot in (wl.linear_potential(0.25), wl.quartic_potential(0.5)):
        cfg = wl.ProblemConfig(potential=pot)
        geo = wl.solve_geodesic_ode(cfg, 1e-12)
        phys = wl.solve_physical_eom(cfg, 1e-12, t_final=float(geo.t_samples[-1]))
        gamma = np.linspace(cfg.gamma_i, cfg.gamma_f, 400)
        diff = geo.x(gamma) - phys.x(geo.t(gamma))
        weights = np.gradient(gamma)
        l2 = float(np.sqrt(np.sum(weights * diff ** 2)))
        worst = max(worst, l2)
        details.append(f"{pot.label}: L2 {l2:.2e}")
    check(11, worst <= 1e-8, "; ".join(details))
