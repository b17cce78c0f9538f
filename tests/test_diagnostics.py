from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from worldline.diagnostics import continuum_charge_t, interior_slice


def test_charge_on_free_straight_line(free_cfg):
    q = wl.diagnose(wl.initial_guess(free_cfg), free_cfg).q_t
    np.testing.assert_allclose(q, np.ones(free_cfg.n_gamma), atol=1e-12)


def test_continuum_charge_values(linear_cfg, quartic_cfg):
    assert continuum_charge_t(linear_cfg) == pytest.approx(1.5)
    assert continuum_charge_t(quartic_cfg) == pytest.approx(2.0)


def test_delta_e_first_entry(linear_cfg, linear_solution):
    delta = wl.diagnose(linear_solution.state, linear_cfg).delta_e
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
    delta = wl.diagnose(sol.state, cfg).delta_e
    assert np.max(np.abs(delta[interior_slice])) <= 1e-9
    if endpoint_bound is not None:
        assert abs(delta[-1]) < endpoint_bound


def test_linear_sbp42_endpoint_deviation():
    cfg = wl.ProblemConfig(
        potential=wl.linear_potential(0.25), n_gamma=32, order="sbp42"
    )
    delta = wl.diagnose(wl.solve(cfg).state, cfg).delta_e
    assert np.max(np.abs(delta[interior_slice])) <= 1e-9
    assert abs(delta[-1]) <= 1e-5


def test_residuals_on_free_straight_line(free_cfg):
    report = wl.diagnose(wl.initial_guess(free_cfg), free_cfg)
    dg_t, dg_x = report.delta_g_t, report.delta_g_x
    assert np.max(np.abs(dg_t)) <= 1e-12
    assert np.max(np.abs(dg_x)) <= 1e-12


@pytest.mark.parametrize("n", [64, 16], ids=["longer", "shorter"])
@pytest.mark.parametrize(
    "with_reference", [False, True], ids=["diagnose", "diagnose_with_reference"]
)
def test_diagnostics_refuse_a_trajectory_of_another_grid(free_cfg, with_reference, n):
    # checked with the 32-point operator, a longer trajectory would give
    # meaningless values past point 31, a shorter one an IndexError; the
    # trajectory is refused before a reference of the right grid is read
    s = wl.initial_guess(replace(free_cfg, n_gamma=n))
    good = wl.initial_guess(free_cfg)
    reference = (good.t1, good.x1) if with_reference else None
    want = rf"trajectory has \({n},\) and \({n},\) points but the grid has 32$"
    with pytest.raises(ValueError, match=want):
        wl.diagnose(s, free_cfg, reference=reference)


@pytest.mark.parametrize(
    "fixture,cfg_fixture", [("linear_solution", "linear_cfg"), ("quartic_solution", "quartic_cfg")]
)
def test_residual_support_last_two_points(fixture, cfg_fixture, request):
    sol = request.getfixturevalue(fixture)
    cfg = request.getfixturevalue(cfg_fixture)
    report = wl.diagnose(sol.state, cfg)
    dg_t, dg_x = report.delta_g_t, report.delta_g_x
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
    report = wl.diagnose(wl.solve(cfg).state, cfg)
    dg_t, dg_x = report.delta_g_t, report.delta_g_x
    assert np.max(np.abs(dg_t[:-6])) <= 1e-9
    assert np.max(np.abs(dg_x[:-6])) <= 1e-9


def test_free_charges_on_straight_line(free_cfg):
    report = wl.diagnose(wl.initial_guess(free_cfg), free_cfg)
    q_x, q_boost = report.q_x, report.q_boost
    np.testing.assert_allclose(q_x, -0.1 * np.ones(free_cfg.n_gamma), atol=1e-12)
    # boost charge equals its initial value x_i * tdot_i everywhere
    np.testing.assert_allclose(q_boost, np.ones(free_cfg.n_gamma), atol=1e-12)


def test_free_charges_after_solve(free_cfg, free_solution):
    report = wl.diagnose(free_solution.state, free_cfg)
    q_x, q_boost = report.q_x, report.q_boost
    assert np.max(np.abs(q_x - q_x[0])) <= 1e-10
    assert np.max(np.abs(q_boost - q_boost[0])) <= 1e-10


def test_h_bvp_free_profile(free_cfg):
    profile = wl.diagnose(wl.initial_guess(free_cfg), free_cfg).h_bvp
    expected = 0.5 * (free_cfg.tdot_i ** 2 + free_cfg.xdot_i ** 2)
    np.testing.assert_allclose(profile, expected, rtol=1e-12)
    assert np.all(profile > 0)


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
    report = wl.diagnose(sol.state, cfg)
    assert report.h_bvp_total <= report.h_bvp_bound + 1e-8


def random_state(n, seed):
    # a state at the physical limit with random coordinates
    rng = np.random.default_rng(seed)
    t, x = rng.standard_normal(n), rng.standard_normal(n)
    return wl.StateVector(t, t, x, x, np.zeros(8))


def test_reference_errors_zero_for_identical():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=9)
    s = random_state(9, 0)
    err = wl.diagnose(s, cfg, reference=(s.t1, s.x1))
    assert err.eps_final_x == err.eps_final_t == 0.0
    assert err.eps_l2_x == err.eps_l2_t == 0.0


def test_reference_errors_constant_offset():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=17)
    t = np.linspace(0.0, 1.0, 17)
    x = np.linspace(1.0, 1.1, 17)
    delta = 0.01
    s = wl.StateVector(t, t, x + delta, x + delta, np.zeros(8))
    err = wl.diagnose(s, cfg, reference=(t, x))
    assert err.eps_l2_x == pytest.approx(delta * np.sqrt(1.0), rel=1e-12)
    assert err.eps_l2_t == 0.0
    assert err.eps_final_x == pytest.approx(delta)


@pytest.mark.parametrize("m", [8, 1, 10])
def test_reference_of_another_size_is_refused(m):
    # a length-1 reference would broadcast against the trajectory
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=9)
    with pytest.raises(ValueError, match="reference has"):
        wl.diagnose(random_state(9, 0), cfg, reference=(np.ones(m), np.ones(m)))


def test_diagnose_rejects_split_branches(free_cfg):
    s = wl.initial_guess(free_cfg)
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
