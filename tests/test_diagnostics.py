from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from worldline.diagnostics import continuum_charge_t, interior_slice


def straight_line_state(cfg):
    return wl.initial_guess(cfg)


def test_charge_on_free_straight_line(free_cfg):
    s = straight_line_state(free_cfg)
    q = wl.noether_charge_t(s.t1, s.x1, free_cfg)
    np.testing.assert_allclose(q, np.ones(free_cfg.n_gamma), atol=1e-12)


def test_continuum_charge_values(linear_cfg, quartic_cfg):
    assert continuum_charge_t(linear_cfg) == pytest.approx(1.5)
    assert continuum_charge_t(quartic_cfg) == pytest.approx(2.0)


def test_charge_deviation_first_entry(linear_cfg, linear_solution):
    delta = wl.charge_deviation(
        linear_solution.state.t1, linear_solution.state.x1, linear_cfg
    )
    # pinned by the initial conditions, so zero at solver tolerance
    assert abs(delta[0]) <= 1e-12


@pytest.mark.parametrize(
    "fixture,cfg_fixture,endpoint_bound",
    [
        ("linear_solution", "linear_cfg", 2e-3),
        ("quartic_solution", "quartic_cfg", None),
    ],
)
def test_interior_conservation(fixture, cfg_fixture, endpoint_bound, request):
    sol = request.getfixturevalue(fixture)
    cfg = request.getfixturevalue(cfg_fixture)
    delta = wl.charge_deviation(sol.state.t1, sol.state.x1, cfg)
    assert np.max(np.abs(delta[interior_slice])) <= 1e-9
    if endpoint_bound is not None:
        assert abs(delta[-1]) < endpoint_bound


def test_linear_sbp42_endpoint_deviation():
    cfg = wl.ProblemConfig(
        potential=wl.linear_potential(0.25), n_gamma=32, order="sbp42"
    )
    sol = wl.solve(cfg)
    delta = wl.charge_deviation(sol.state.t1, sol.state.x1, cfg)
    assert np.max(np.abs(delta[interior_slice])) <= 1e-9
    assert abs(delta[-1]) <= 1e-5


def test_geodesic_residuals_free_line(free_cfg):
    s = straight_line_state(free_cfg)
    dg_t, dg_x = wl.geodesic_residuals(s.t1, s.x1, free_cfg)
    assert np.max(np.abs(dg_t)) <= 1e-12
    assert np.max(np.abs(dg_x)) <= 1e-12


@pytest.mark.parametrize("n", [64, 16], ids=["longer", "shorter"])
@pytest.mark.parametrize(
    "entry",
    [
        "noether_charge_t",
        "charge_deviation",
        "geodesic_residuals",
        "free_case_charges",
        "h_bvp_profile",
        "diagnose",
    ],
)
def test_diagnostics_refuse_a_trajectory_of_another_grid(free_cfg, entry, n):
    # checked with the 32-point operator, a longer trajectory would give
    # meaningless values past point 31, a shorter one an IndexError
    s = straight_line_state(replace(free_cfg, n_gamma=n))
    args = (s,) if entry == "diagnose" else (s.t1, s.x1)
    want = rf"trajectory has \({n},\) and \({n},\) points but the grid has 32$"
    with pytest.raises(ValueError, match=want):
        getattr(wl, entry)(*args, free_cfg)


@pytest.mark.parametrize(
    "fixture,cfg_fixture", [("linear_solution", "linear_cfg"), ("quartic_solution", "quartic_cfg")]
)
def test_residual_support_last_two_points(fixture, cfg_fixture, request):
    sol = request.getfixturevalue(fixture)
    cfg = request.getfixturevalue(cfg_fixture)
    dg_t, dg_x = wl.geodesic_residuals(sol.state.t1, sol.state.x1, cfg)
    assert np.max(np.abs(dg_t[:-2])) <= 1e-9
    assert np.max(np.abs(dg_x[:-2])) <= 1e-9
    # the last two entries genuinely deviate
    assert np.max(np.abs(dg_t[-2:])) > 1e-9 or np.max(np.abs(dg_x[-2:])) > 1e-9


def test_residual_support_widens_with_sbp42_closure():
    # the fourth-order closure spans four rows, so the deviation occupies
    # the last few points instead of the last two; the bulk stays clean
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=32, order="sbp42"
    )
    sol = wl.solve(cfg)
    dg_t, dg_x = wl.geodesic_residuals(sol.state.t1, sol.state.x1, cfg)
    assert np.max(np.abs(dg_t[:-6])) <= 1e-9
    assert np.max(np.abs(dg_x[:-6])) <= 1e-9


def test_free_case_charges_straight_line(free_cfg):
    s = straight_line_state(free_cfg)
    q_x, q_boost = wl.free_case_charges(s.t1, s.x1, free_cfg)
    np.testing.assert_allclose(q_x, -0.1 * np.ones(free_cfg.n_gamma), atol=1e-12)
    # boost charge equals its initial value x_i * tdot_i everywhere
    np.testing.assert_allclose(q_boost, np.ones(free_cfg.n_gamma), atol=1e-12)


def test_free_case_charges_after_solve(free_cfg, free_solution):
    q_x, q_boost = wl.free_case_charges(
        free_solution.state.t1, free_solution.state.x1, free_cfg
    )
    assert np.max(np.abs(q_x - q_x[0])) <= 1e-10
    assert np.max(np.abs(q_boost - q_boost[0])) <= 1e-10


def test_free_case_charges_requires_free_potential(linear_cfg, linear_solution):
    with pytest.raises(wl.NotFreePotential):
        wl.free_case_charges(
            linear_solution.state.t1, linear_solution.state.x1, linear_cfg
        )


def test_h_bvp_free_profile(free_cfg):
    s = straight_line_state(free_cfg)
    hb = wl.h_bvp_profile(s.t1, s.x1, free_cfg)
    expected = 0.5 * (free_cfg.tdot_i ** 2 + free_cfg.xdot_i ** 2)
    np.testing.assert_allclose(hb.profile, expected, rtol=1e-12)
    assert np.all(hb.profile > 0)


@pytest.mark.parametrize(
    "fixture,cfg_fixture",
    [
        ("linear_solution", "linear_cfg"),
        ("quartic_solution", "quartic_cfg"),
        ("free_solution", "free_cfg"),
    ],
)
def test_h_bvp_linear_growth_bound(fixture, cfg_fixture, request):
    sol = request.getfixturevalue(fixture)
    cfg = request.getfixturevalue(cfg_fixture)
    hb = wl.h_bvp_profile(sol.state.t1, sol.state.x1, cfg)
    assert hb.total <= hb.bound + 1e-8


def test_error_norms_zero_for_identical():
    rng = np.random.default_rng(0)
    op = wl.build_operator("sbp21", 9, 1 / 8)
    t = rng.standard_normal(9)
    x = rng.standard_normal(9)
    err = wl.error_norms(t, x, t, x, op.h)
    assert err.eps_final_x == err.eps_final_t == 0.0
    assert err.eps_l2_x == err.eps_l2_t == 0.0


def test_error_norms_constant_offset():
    op = wl.build_operator("sbp21", 17, 1 / 16)
    t = np.linspace(0.0, 1.0, 17)
    x = np.linspace(1.0, 1.1, 17)
    delta = 0.01
    err = wl.error_norms(t, x + delta, t, x, op.h)
    assert err.eps_l2_x == pytest.approx(delta * np.sqrt(1.0), rel=1e-12)
    assert err.eps_l2_t == 0.0
    assert err.eps_final_x == pytest.approx(delta)


def test_error_norms_dimension_mismatch():
    op = wl.build_operator("sbp21", 9, 1 / 8)
    with pytest.raises(ValueError):
        wl.error_norms(np.ones(9), np.ones(9), np.ones(8), np.ones(8), op.h)


def test_diagnose_rejects_split_branches(free_cfg):
    s = straight_line_state(free_cfg)
    nan_at_5 = np.where(np.arange(s.n) == 5, np.nan, 0.0)
    for split in (
        replace(s, t2=s.t2 + 1e-6),
        replace(s, t2=s.t2 + nan_at_5),  # a nan gap is no agreement
        replace(s, x2=s.x2 + nan_at_5),
    ):
        with pytest.raises(wl.PhysicalLimitViolation):
            wl.diagnose(split, free_cfg)


def test_diagnose_report_contents(linear_cfg, linear_solution):
    oracle = wl.solve_geodesic_ode(linear_cfg)
    report = wl.diagnose(linear_solution.state, linear_cfg, reference=oracle)
    assert report.n == linear_cfg.n_gamma
    assert report.q_x is None and report.q_boost is None
    assert report.eps_final_x is not None and report.eps_final_x < 1e-3
    assert report.max_interior_delta_e <= 1e-9


def test_diagnose_with_reference_arrays(free_cfg, free_solution):
    gamma = free_cfg.gamma_grid
    t_ref = free_cfg.t_i + free_cfg.tdot_i * gamma
    x_ref = free_cfg.x_i + free_cfg.xdot_i * gamma
    report = wl.diagnose(free_solution.state, free_cfg, reference=(t_ref, x_ref))
    assert report.eps_l2_x <= 1e-10
    assert report.q_x is not None


def test_solve_and_diagnose_build_the_operator_once(monkeypatch):
    builds = []
    build = wl.action.build_operator

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(wl.action, "build_operator", counted)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=16)
    wl.diagnose(wl.solve(cfg).state, cfg)
    assert builds == [("sbp21", 16, 1 / 15)]
    assert cfg.build_operator() is cfg.build_operator()
    # the cached operator is not a field: a fresh copy builds its own
    assert replace(cfg) == cfg
    assert replace(cfg).build_operator() is not cfg.build_operator()
    assert len(builds) == 2
