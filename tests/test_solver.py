from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from worldline.diagnostics import interior_slice
from worldline.solver import _SQRT_EPS, _newton_step

FAMILIES = pytest.mark.parametrize("order", ["sbp21", "sbp42"])
POTENTIALS = pytest.mark.parametrize(
    "potential", [wl.linear_potential(0.25), wl.quartic_potential(0.5)], ids=["linear", "quartic"]
)


def test_initial_guess_satisfies_constraints():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=20)
    action = wl.DiscreteAction(cfg)
    res = action.constraints(wl.initial_guess(cfg))
    assert np.max(np.abs(res)) <= 1e-12


def test_initial_guess_linear_potential_has_forcing():
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=32)
    g = wl.DiscreteAction(cfg).gradient(wl.initial_guess(cfg))
    assert np.linalg.norm(g) > 1e-3


def test_free_particle_solve_is_exact(free_cfg, free_solution):
    sol = free_solution
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.grad_norm <= 1e-12
    gamma = free_cfg.gamma_grid
    line_t = free_cfg.t_i + free_cfg.tdot_i * (gamma - free_cfg.gamma_i)
    line_x = free_cfg.x_i + free_cfg.xdot_i * (gamma - free_cfg.gamma_i)
    for v in (sol.state.t1, sol.state.t2):
        assert np.max(np.abs(v - line_t)) <= 1e-10
    for v in (sol.state.x1, sol.state.x2):
        assert np.max(np.abs(v - line_x)) <= 1e-10
    # connecting multipliers carry the discrete boundary term
    assert sol.state.lam[4] == pytest.approx(-free_cfg.tdot_i, abs=1e-9)
    assert sol.state.lam[5] == pytest.approx(free_cfg.xdot_i, abs=1e-9)


def test_linear_final_time_near_one(linear_solution):
    # with tdot_i = 1 the simulated window ends close to t = 1
    assert linear_solution.converged
    assert linear_solution.state.t1[-1] == pytest.approx(1.0, abs=0.05)


def test_quartic_observables(quartic_cfg, quartic_solution):
    state = quartic_solution.state
    assert state.t1[-1] == pytest.approx(1.47, abs=0.01)
    op = quartic_cfg.build_operator()
    assert (op.d @ state.t1)[-1] == pytest.approx(2.06, abs=0.03)


@pytest.mark.parametrize("fixture", ["linear_solution", "quartic_solution"])
def test_physical_limit(fixture, request):
    # every Newton step is lifted from the half-size system
    sol = request.getfixturevalue(fixture)
    assert np.array_equal(sol.state.t1, sol.state.t2)
    assert np.array_equal(sol.state.x1, sol.state.x2)
    assert np.all(sol.state.lam[:4] == 0)


def test_guess_is_projected_onto_the_physical_limit():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32)
    guess = wl.initial_guess(cfg)
    rng = np.random.default_rng(7)
    skewed = replace(
        guess,
        t2=guess.t2 + 0.1 * rng.standard_normal(32),
        x2=guess.x2 - 0.05,
        lam=np.append(rng.standard_normal(4), np.zeros(4)),
    )
    a = wl.solve(cfg, guess=skewed)
    b = wl.solve(cfg, guess=guess)
    np.testing.assert_array_equal(a.state.pack(), b.state.pack())
    assert a.grad_history == b.grad_history


@pytest.mark.parametrize("n", [32, 512])
@FAMILIES
@POTENTIALS
def test_connecting_multiplier_carries_the_noether_charge(n, order, potential):
    # lam_5 = -Q_t with Q_t = g00(x) (D t), constant in the interior
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=order)
    sol = wl.solve(cfg)
    q_t = wl.noether_charge_t(sol.state.t1, sol.state.x1, cfg)
    assert np.max(np.abs(sol.state.lam[4] + q_t[interior_slice])) <= 1e-11


def test_merit_monotonicity(quartic_solution):
    norms = np.asarray(quartic_solution.grad_history)
    assert np.all(np.diff(norms) < 0)


def test_solve_deterministic():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=24)
    a = wl.solve(cfg)
    b = wl.solve(cfg)
    np.testing.assert_array_equal(a.state.pack(), b.state.pack())
    assert a.grad_norm == b.grad_norm
    assert a.iterations == b.iterations


def test_converged_flag_respects_tolerance(quartic_solution):
    assert quartic_solution.termination == "converged"
    z = quartic_solution.state.pack()
    tol = wl.SolveOptions().grad_tol * (1 + np.max(np.abs(z)))
    assert quartic_solution.grad_norm <= tol


def test_non_convergence_carries_best_iterate():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32)
    opts = wl.SolveOptions(max_iter=2)
    with pytest.raises(wl.NonConvergence) as err:
        wl.solve(cfg, opts)
    best = err.value.solution
    assert not best.converged
    assert best.termination == "max_iter"
    assert best.grad_norm > 0
    assert best.state.n == 32


def test_solve_options_validation():
    with pytest.raises(ValueError):
        wl.SolveOptions(grad_tol=0.0)
    # an infinite tolerance would report the initial guess as converged
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            wl.SolveOptions(grad_tol=bad)
        with pytest.raises(ValueError):
            wl.SolveOptions(lm_damping_init=bad)
    with pytest.raises(ValueError):
        wl.SolveOptions(max_iter=0)
    # with ls_shrink >= 1 backtracking never gives up; both factors lie in (0, 1)
    for bad in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(ValueError):
            wl.SolveOptions(ls_shrink=bad)
        with pytest.raises(ValueError):
            wl.SolveOptions(ls_decrease=bad)
    for bad in (-1, 2.5, 20.0):
        with pytest.raises(ValueError):
            wl.SolveOptions(max_iter=bad)
    wl.SolveOptions(ls_shrink=0.9, ls_decrease=0.5, max_iter=1)


def test_non_finite_hessian_raises_without_damping_retries():
    calls = []

    def d2v(x):
        calls.append(1)
        return np.full_like(x, np.nan)

    pot = wl.custom_potential(v=lambda x: 0.1 * x**2, dv=lambda x: 0.2 * x, d2v=d2v)
    cfg = wl.ProblemConfig(potential=pot, n_gamma=16)
    with pytest.raises(wl.SingularSystem, match="non-finite Hessian"):
        wl.solve(cfg)
    # one Hessian, which evaluates d2v on branch 1 only
    assert len(calls) == 1


def test_non_finite_gradient_norm_raises():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(1e300), n_gamma=16)
    with pytest.raises(wl.SingularSystem, match="gradient norm inf"):
        wl.solve(cfg)


def test_zero_pivot_is_a_linalg_error():
    # the damping-retry loop in solve catches this and raises mu
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    action = wl.DiscreteAction(cfg)
    s = wl.initial_guess(cfg)
    hess = action.hessian(s)
    singular = replace(hess, ab=np.zeros_like(hess.ab))
    with pytest.raises(np.linalg.LinAlgError):
        _newton_step(singular, action.gradient(s), 0.0)


@FAMILIES
@POTENTIALS
def test_large_grid_converges_with_charge_at_floor(order, potential):
    # measured max interior dE: 8e-14 to 1.7e-13
    cfg = wl.ProblemConfig(potential=potential, n_gamma=512, order=order)
    sol = wl.solve(cfg, wl.SolveOptions(max_iter=12))
    assert sol.converged
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-12


@pytest.mark.parametrize("n, max_iterations", [(1024, 10), (2048, 10), (4096, 12)])
@FAMILIES
@POTENTIALS
def test_huge_grid_terminates_at_roundoff_floor(n, max_iterations, order, potential):
    # from n = 1024 the gradient floor can lie above grad_tol; the step test stops there
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=order)
    sol = wl.solve(cfg)
    assert sol.converged
    assert sol.termination in ("converged", "roundoff_floor")
    assert sol.iterations <= max_iterations
    assert len(sol.grad_history) == sol.iterations + 1
    # measured max interior dE: <= 3.8e-13, 8.4e-13 and 1.5e-12
    bound = {1024: 1e-12, 2048: 1e-11, 4096: 2e-11}[n]
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= bound


@POTENTIALS
def test_sbp42_16384_grid_reaches_the_floor_in_few_steps(potential):
    # measured: 5-7 iterations, max interior dE 6.1e-12
    cfg = wl.ProblemConfig(potential=potential, n_gamma=16384, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.converged
    assert sol.iterations <= 10
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-10


def test_roundoff_floor_is_a_newton_fixed_point():
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=1024, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.termination == "roundoff_floor"
    # one more undamped Newton step from the returned state moves it by rounding only
    action = wl.DiscreteAction(cfg)
    step = _newton_step(action.hessian(sol.state), action.gradient(sol.state), 0.0)
    z = sol.state.pack()
    assert np.max(np.abs(step)) <= _SQRT_EPS * (1.0 + np.max(np.abs(z)))


def test_roundoff_floor_stops_without_backtracking(monkeypatch):
    # without the floor test every later iteration backtracks ~47 gradients
    # down to the minimum step and the solve runs out of iterations
    calls = []
    gradient = wl.DiscreteAction.gradient

    def counted(self, state):
        calls.append(1)
        return gradient(self, state)

    monkeypatch.setattr(wl.DiscreteAction, "gradient", counted)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=1024, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.termination == "roundoff_floor"
    assert len(calls) <= sol.iterations + 3


def test_guess_dimension_checked():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    bad = wl.initial_guess(replace(cfg, n_gamma=12))
    with pytest.raises(wl.InvalidConfig):
        wl.solve(cfg, guess=bad)


def test_continuation_same_grid_returns_immediately(quartic_cfg, quartic_solution):
    again = wl.continuation_solve(quartic_cfg, None, quartic_solution)
    assert again.iterations == 0
    assert again.converged


def test_continuation_reduces_iterations(quartic_solution):
    cfg64 = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=64)
    cold = wl.solve(cfg64)
    warm = wl.continuation_solve(cfg64, None, quartic_solution)
    assert warm.converged
    assert warm.iterations < cold.iterations


def test_continuation_across_potentials(free_solution):
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=32)
    sol = wl.continuation_solve(cfg, None, free_solution)
    assert sol.converged


def test_continuation_without_previous_solution_is_cold_solve():
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=16)
    sol = wl.continuation_solve(cfg, None, None)
    assert sol.converged
