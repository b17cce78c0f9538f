from dataclasses import replace

import numpy as np
import pytest

import worldline as wl


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
    sol = request.getfixturevalue(fixture)
    assert np.max(np.abs(sol.state.t1 - sol.state.t2)) <= 1e-9
    assert np.max(np.abs(sol.state.x1 - sol.state.x2)) <= 1e-9


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
    assert best.grad_norm > 0
    assert best.state.n == 32


def test_solve_options_validation():
    with pytest.raises(ValueError):
        wl.SolveOptions(grad_tol=0.0)
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
