from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from worldline import reference
from worldline.reference import _ERROR_COLUMNS, _geodesic_seed


def test_geodesic_free_straight_line(free_cfg):
    traj = wl.solve_geodesic_ode(free_cfg, 1e-12)
    gamma = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(traj.t(gamma), gamma, atol=1e-11)
    np.testing.assert_allclose(traj.x(gamma), 1.0 + 0.1 * gamma, atol=1e-11)


def test_geodesic_interpolation_reproduces_samples(linear_cfg):
    traj = wl.solve_geodesic_ode(linear_cfg, 1e-12)
    np.testing.assert_allclose(
        traj.t(traj.gamma_samples), traj.t_samples, rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        traj.x(traj.gamma_samples), traj.x_samples, rtol=0, atol=1e-13
    )
    assert np.all(np.diff(traj.gamma_samples) > 0)


def test_geodesic_charge_drift(linear_cfg):
    tol = 1e-12
    traj = wl.solve_geodesic_ode(linear_cfg, tol)
    q = (1.0 + 0.5 * traj.x_samples) * traj.tdot_samples
    assert np.max(np.abs(q - q[0])) <= 10 * tol


def test_geodesic_quartic_final_time(quartic_cfg):
    traj = wl.solve_geodesic_ode(quartic_cfg, 1e-12)
    assert float(traj.t(1.0)) == pytest.approx(1.47, abs=0.01)


def test_oracle_self_consistency(quartic_cfg):
    a = wl.solve_geodesic_ode(quartic_cfg, 1e-10)
    b = wl.solve_geodesic_ode(quartic_cfg, 5e-11)
    assert abs(float(a.t(1.0)) - float(b.t(1.0))) < 1e-10
    assert abs(float(a.x(1.0)) - float(b.x(1.0))) < 1e-10


def _tight_geodesic(cfg):
    # an independent, much tighter and step-capped run of the same system
    from scipy.integrate import solve_ivp

    from worldline.reference import _geodesic_rhs

    span = (cfg.gamma_i, cfg.gamma_f)
    return solve_ivp(
        _geodesic_rhs(cfg), span, (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i),
        method="DOP853", rtol=2.5e-14, atol=1e-15,
        max_step=(span[1] - span[0]) / 4096, dense_output=True,
    )


@pytest.mark.parametrize(
    "cfg_fixture, tdot",
    [
        ("linear_cfg", 1.0),
        ("linear_cfg", 4.0),
        ("quartic_cfg", 1.0),
        ("quartic_cfg", 4.0),
        ("quartic_cfg", 8.0),
    ],
)
def test_oracle_dense_output_error(cfg_fixture, tdot, request):
    base = request.getfixturevalue(cfg_fixture)
    cfg = replace(base, tdot_i=tdot, xdot_i=base.v_init * tdot)
    gamma = np.linspace(cfg.gamma_i, cfg.gamma_f, 257)
    t_ref, _, x_ref, _ = _tight_geodesic(cfg).sol(gamma)
    # 1e-14 is the tolerance the convergence studies run their oracle at
    for tol, bound in ((1e-12, 5e-11), (1e-14, 1e-12)):
        traj = wl.solve_geodesic_ode(cfg, tol)
        assert np.max(np.abs(traj.t(gamma) - t_ref)) <= bound
        assert np.max(np.abs(traj.x(gamma) - x_ref)) <= bound


def test_oracle_step_count_set_by_tolerance(quartic_cfg):
    # a step cap of span/512 would force at least 512 steps here
    traj = wl.solve_geodesic_ode(quartic_cfg, 1e-12)
    assert len(traj.gamma_samples) < 64


def test_tolerance_range_enforced(free_cfg):
    with pytest.raises(ValueError):
        wl.solve_geodesic_ode(free_cfg, 1e-15)
    with pytest.raises(ValueError):
        wl.solve_geodesic_ode(free_cfg, 1e-5)


def test_physical_eom_free_is_straight(free_cfg):
    traj = wl.solve_physical_eom(free_cfg, 1e-12, t_final=2.0)
    ts = np.linspace(0.0, 2.0, 21)
    np.testing.assert_allclose(traj.x(ts), 1.0 + 0.1 * ts, atol=1e-11)


def test_physical_eom_conserves_relativistic_energy(quartic_cfg):
    # gamma_v * c^2 + V/m is the first integral of the physical-time
    # equation of motion; an independent check of the integrator
    traj = wl.solve_physical_eom(quartic_cfg, 1e-12, t_final=1.5)
    gamma_v = 1.0 / np.sqrt(1.0 - traj.v_samples ** 2)
    energy = gamma_v + 0.5 * traj.x_samples ** 4
    assert np.max(np.abs(energy - energy[0])) <= 1e-11


def test_geodesic_matches_t_parametrized_form(linear_cfg):
    # reduce the geodesic system to physical time analytically:
    # dv/dt = -V'(x) (1 - 2 v^2 / g00); integrating that form independently
    # must agree with the gamma-parametrized integration to oracle accuracy
    from scipy.integrate import solve_ivp

    geo = wl.solve_geodesic_ode(linear_cfg, 1e-12)
    t_end = float(geo.t_samples[-1])

    def rhs(_t, y):
        x, v = y
        g00 = 1.0 + 0.5 * x
        return (v, -0.25 * (1.0 - 2.0 * v ** 2 / g00))

    alt = solve_ivp(
        rhs, (0.0, t_end), (1.0, 0.1), method="RK45", rtol=1e-12, atol=1e-12,
        dense_output=True,
    )
    gamma = np.linspace(0.0, 1.0, 50)
    x_alt = alt.sol(geo.t(gamma))[0]
    assert np.max(np.abs(geo.x(gamma) - x_alt)) <= 1e-9


@pytest.mark.parametrize("cfg_fixture", ["linear_cfg", "quartic_cfg"])
def test_cross_model_gap_is_weak_field_sized(cfg_fixture, request):
    # the conventional relativistic equation of motion and the modified-
    # metric geodesic are distinct models that coincide only in the
    # weak-field, low-velocity limit; their gap is physical and does not
    # shrink with integrator tolerance
    cfg = request.getfixturevalue(cfg_fixture)
    gaps = {}
    for tol in (1e-9, 1e-12):
        geo = wl.solve_geodesic_ode(cfg, tol)
        phys = wl.solve_physical_eom(cfg, tol, t_final=float(geo.t_samples[-1]))
        gamma = np.linspace(cfg.gamma_i, cfg.gamma_f, 200)
        diff = geo.x(gamma) - phys.x(geo.t(gamma))
        gaps[tol] = float(np.sqrt(np.mean(diff ** 2)))
    assert 1e-7 < gaps[1e-12] < 1e-2
    assert gaps[1e-9] == pytest.approx(gaps[1e-12], rel=1e-3)


def test_superluminal_velocity_detected():
    # a strong constant push accelerates dx/dt towards c
    cfg = wl.ProblemConfig(
        potential=wl.linear_potential(-100.0), n_gamma=8, x_i=0.0, xdot_i=0.0
    )
    with pytest.raises(wl.SuperluminalVelocity):
        wl.solve_physical_eom(cfg, 1e-10, t_final=50.0)


def test_step_collapse_reported_as_stiffness():
    # an inverted quartic drives g00 = 1 - 2 x^4 through zero at finite x,
    # where tdot diverges and the step size collapses
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(-1.0),
        n_gamma=8,
        x_i=0.8,
        xdot_i=0.2,
        tdot_i=1.0,
        gamma_f=5.0,
    )
    with pytest.raises(wl.StiffnessSuspected):
        wl.solve_geodesic_ode(cfg, 1e-10)
    with pytest.raises(wl.StepFailure):  # subclass relation
        wl.solve_geodesic_ode(cfg, 1e-10)


def test_convergence_study_requires_three_ascending_grids(linear_cfg):
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [16, 32])
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [32, 16, 64])
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [16, 16, 32])


def test_convergence_study_smoke(linear_cfg):
    table = wl.convergence_study(linear_cfg, [8, 16, 32])
    assert [r.n_gamma for r in table.rows] == [8, 16, 32]
    fits = table.fit_exponents()
    assert fits["eps_final_x"]["beta"] == pytest.approx(2.0, abs=0.4)
    eps = table.column("eps_final_x")
    assert np.all(np.diff(eps) < 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_reports_an_exact_column_as_not_fittable(free_cfg):
    # at zero velocity the free particle's x is exact on every grid
    table = wl.convergence_study(replace(free_cfg, xdot_i=0.0), [16, 32, 64])
    assert np.all(table.column("eps_final_x") == 0.0)
    fits = table.fit_exponents()
    for name in ("eps_final_x", "eps_l2_x"):
        assert fits[name] == {"beta": None, "residual_rms": None}
    assert isinstance(fits["eps_final_t"]["beta"], float)


def test_fit_refused_below_three_points(linear_cfg):
    table = wl.convergence_study(linear_cfg, [8, 16, 32])
    with pytest.raises(ValueError):
        table.fit_exponents(min_n=32)


def test_convergence_study_order_override(linear_cfg):
    table = wl.convergence_study(linear_cfg, [16, 32, 64], order="sbp42")
    fits = table.fit_exponents()
    assert fits["eps_l2_x"]["beta"] > 2.5


def test_scaled_tdot_study_pairs(quartic_cfg):
    table = wl.scaled_tdot_study(quartic_cfg, [16, 32], [1.0, 4.0])
    assert [r.n_gamma for r in table.rows] == [16, 32]
    assert all(r.max_interior_delta_e <= 1e-9 for r in table.rows)
    with pytest.raises(ValueError):
        wl.scaled_tdot_study(quartic_cfg, [16, 32], [1.0])
    with pytest.raises(ValueError):
        wl.scaled_tdot_study(quartic_cfg, [], [])


@pytest.mark.parametrize(
    "potential, s",
    [
        (wl.quartic_potential(0.5), 4.0),
        (wl.quartic_potential(0.5), 8.0),
        (wl.linear_potential(0.25), 4.0),
    ],
    ids=["quartic-4", "quartic-8", "linear-4"],
)
def test_tdot_run_is_the_unit_run_stretched(potential, s):
    # the geodesic equations are invariant under gamma -> s gamma, which is
    # what lets one oracle serve every row of scaled_tdot_study
    cfg = wl.ProblemConfig(potential=potential)
    row = wl.solve_geodesic_ode(replace(cfg, tdot_i=s, xdot_i=cfg.v_init * s), 1e-14)
    unit = wl.solve_geodesic_ode(replace(cfg, gamma_f=s), 1e-14)
    gamma = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(row.t(gamma) - unit.t(s * gamma))) <= 2e-12
    assert np.max(np.abs(row.x(gamma) - unit.x(s * gamma))) <= 2e-12


# criterion 9b's rows as the tdot ladder computed them, each against its own
# oracle: (n, eps_final_x, eps_final_t, eps_l2_x, eps_l2_t, delta_e_end)
LADDER_9B_ROWS = (
    (16, 0.0017320871371094837, 0.0007030870104376419, 0.0033325088397485316,
     0.004351274419575513, 0.12292803332006885),
    (32, 0.012136693368571039, 0.007293238509566535, 0.016411988530303314,
     0.04049904609416333, 4.811156311825664),
    (64, 0.0038083103540951235, 0.0035995942051272323, 0.025015549974073455,
     0.07536800768192237, 14.085437438900179),
)


def test_scaled_tdot_study_matches_the_ladder_rows(quartic_cfg):
    table = wl.scaled_tdot_study(quartic_cfg, [16, 32, 64], [1.0, 4.0, 8.0])
    for row, (n, *errors, delta_e_end) in zip(table.rows, LADDER_9B_ROWS, strict=True):
        assert row.n_gamma == n
        got = [getattr(row, name) for name in _ERROR_COLUMNS]
        np.testing.assert_allclose(got, errors, rtol=0, atol=1e-12)
        assert row.delta_e_end == pytest.approx(delta_e_end, rel=1e-11, abs=0)
        assert row.max_interior_delta_e <= 1e-12


def test_scaled_tdot_study_solves_each_row_once_against_one_oracle(
    quartic_cfg, monkeypatch
):
    calls = {"oracle": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        reference, "solve_geodesic_ode", counted("oracle", wl.solve_geodesic_ode)
    )
    monkeypatch.setattr(reference, "solve", counted("solve", wl.solve))
    wl.scaled_tdot_study(quartic_cfg, [16, 32, 64], [1.0, 4.0, 8.0])
    assert calls == {"oracle": 1, "solve": 3}


@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_geodesic_seed_reaches_large_tdot_cold(order):
    # the straight-line guess lies outside Newton's basin from tdot_i = 4 on
    base = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=256, order=order
    )
    for tdot in (4.0, 8.0, 16.0, 32.0):
        cfg = replace(base, tdot_i=tdot, xdot_i=base.v_init * tdot)
        sol = wl.solve(cfg, guess=_geodesic_seed(cfg))
        assert sol.converged and sol.iterations <= 10, (tdot, sol.iterations)


def test_geodesic_seed_converges_on_a_coarse_grid_at_tdot_8():
    # warm-started continuation in tdot_i raised NonConvergence here
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=32, tdot_i=8.0, xdot_i=0.8
    )
    assert wl.solve(cfg, guess=_geodesic_seed(cfg)).converged
