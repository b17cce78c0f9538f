import weakref
from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from worldline.action import BandedHessian
from worldline.diagnostics import interior_slice
from worldline.solver import _SQRT_EPS, _geodesic_seed, seed_steps
from conftest import (
    STALLING_CONFIG,
    constraints,
    doubled_gradient,
    lift,
    pack,
    physical_limit_indices,
)

FAMILIES = pytest.mark.parametrize("order", ["sbp21", "sbp42"])
POTENTIALS = pytest.mark.parametrize(
    "potential", [wl.linear_potential(0.25), wl.quartic_potential(0.5)], ids=["linear", "quartic"]
)


def test_initial_guess_satisfies_constraints():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=20)
    action = wl.DiscreteAction(cfg)
    res = constraints(action, lift(wl.initial_guess(cfg)))
    assert np.max(np.abs(res)) <= 1e-12


def test_initial_guess_linear_potential_has_forcing():
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=32)
    g = doubled_gradient(wl.DiscreteAction(cfg), lift(wl.initial_guess(cfg)))
    assert np.linalg.norm(g) > 1e-3


def test_free_particle_solve_is_exact(free_cfg, free_solution):
    sol = free_solution
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.grad_norm <= 1e-12
    gamma = free_cfg.gamma_grid
    line_t = free_cfg.t_i + free_cfg.tdot_i * (gamma - free_cfg.gamma_i)
    line_x = free_cfg.x_i + free_cfg.xdot_i * (gamma - free_cfg.gamma_i)
    assert np.max(np.abs(sol.state.t - line_t)) <= 1e-10
    assert np.max(np.abs(sol.state.x - line_x)) <= 1e-10
    # connecting multipliers lam_5 and lam_6 carry the discrete boundary term
    assert sol.state.lam[0] == pytest.approx(-free_cfg.tdot_i, abs=1e-9)
    assert sol.state.lam[1] == pytest.approx(free_cfg.xdot_i, abs=1e-9)


def test_linear_final_time_near_one(linear_solution):
    # with tdot_i = 1 the simulated window ends close to t = 1
    assert linear_solution.converged
    assert linear_solution.state.t[-1] == pytest.approx(1.0, abs=0.05)


def test_quartic_observables(quartic_cfg, quartic_solution):
    state = quartic_solution.state
    assert state.t[-1] == pytest.approx(1.47, abs=0.01)
    op = quartic_cfg.build_operator()
    assert (op.d @ state.t)[-1] == pytest.approx(2.06, abs=0.03)


@pytest.mark.parametrize("fixture", ["linear_solution", "quartic_solution"])
def test_physical_limit(fixture, request):
    # the solution holds only the physical limit, and its gradient norm is
    # the doubled system's at the lift t2 = t1, x2 = x1, lam_1..lam_4 = 0
    sol = request.getfixturevalue(fixture)
    cfg = request.getfixturevalue(fixture.replace("solution", "cfg"))
    assert isinstance(sol.state, wl.State)
    assert sol.state.t.shape == sol.state.x.shape == (cfg.n_gamma,)
    assert sol.state.lam.shape == (4,)
    grad = np.linalg.norm(doubled_gradient(wl.DiscreteAction(cfg), lift(sol.state)))
    assert grad == pytest.approx(sol.grad_norm, rel=1e-6)


@pytest.mark.parametrize("n", [32, 512])
@FAMILIES
@POTENTIALS
def test_connecting_multiplier_carries_the_noether_charge(n, order, potential):
    # lam_5 = -Q_t with Q_t = g00(x) (D t), constant in the interior
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=order)
    sol = wl.solve(cfg)
    q_t = wl.diagnose(sol.state, cfg).q_t
    assert np.max(np.abs(sol.state.lam[0] + q_t[interior_slice])) <= 1e-11


def test_merit_monotonicity(quartic_solution):
    norms = np.asarray(quartic_solution.grad_history)
    assert np.all(np.diff(norms) < 0)


def test_solve_deterministic():
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=24)
    a = wl.solve(cfg)
    b = wl.solve(cfg)
    np.testing.assert_array_equal(pack(lift(a.state)), pack(lift(b.state)))
    assert a.grad_norm == b.grad_norm
    assert a.iterations == b.iterations


def test_converged_flag_respects_tolerance(quartic_solution):
    assert quartic_solution.termination == "converged"
    z = pack(lift(quartic_solution.state))
    tol = wl.SolveOptions().grad_tol * (1 + np.max(np.abs(z)))
    assert quartic_solution.grad_norm <= tol


def test_non_convergence_carries_best_iterate():
    # measured: this solve converges after 2 iterations, so a cap of 1 is hit
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32)
    opts = wl.SolveOptions(max_iter=1)
    with pytest.raises(wl.NonConvergence) as err:
        wl.solve(cfg, opts)
    best = err.value.solution
    assert not best.converged
    assert best.termination == "max_iter"
    assert best.grad_norm > 0
    assert best.state.n == 32
    # the best iterate is a physical-limit state, so diagnose (and the CLI,
    # which writes its files) accepts it
    assert best.state.lam.shape == (4,)
    assert wl.diagnose(best.state, cfg).t.tobytes() == best.state.t.tobytes()


def test_solve_options_validation():
    with pytest.raises(ValueError):
        wl.SolveOptions(grad_tol=0.0)
    # an infinite tolerance would report the initial guess as converged
    # True is 1.0 to Python
    for bad in (np.inf, np.nan, True, np.True_):
        with pytest.raises(ValueError):
            wl.SolveOptions(grad_tol=bad)
    with pytest.raises(ValueError):
        wl.SolveOptions(max_iter=0)
    # True would run one iteration
    for bad in (-1, 2.5, 20.0, True, np.True_):
        with pytest.raises(ValueError):
            wl.SolveOptions(max_iter=bad)
    wl.SolveOptions(max_iter=1)


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
    # solve turns this into SingularSystem at once
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    action = wl.DiscreteAction(cfg)
    s = wl.initial_guess(cfg)
    hess = action.hessian(s.t, s.x)
    singular = replace(hess, ab=np.zeros_like(hess.ab))
    rows, _ = physical_limit_indices(cfg.n_gamma)
    with pytest.raises(np.linalg.LinAlgError):
        singular.solve(doubled_gradient(action, lift(s))[rows])


def test_singular_newton_system_raises_at_the_first_iteration(monkeypatch):
    # an all-zero R H P has no LU; no shift of its diagonal is tried
    hessian = wl.DiscreteAction.hessian
    calls = []

    def zero_band(self, t, x):
        calls.append(1)
        hess = hessian(self, t, x)
        return replace(hess, ab=np.zeros_like(hess.ab))

    monkeypatch.setattr(wl.DiscreteAction, "hessian", zero_band)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=16)
    with pytest.raises(wl.SingularSystem, match="at iteration 0"):
        wl.solve(cfg)
    assert len(calls) == 1


def count_calls(monkeypatch, targets):
    """Count the calls of each ``(owner, name)`` method; returns {name: count}."""
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in targets:
        calls[name] = 0
        count(owner, name)
    return calls


@FAMILIES
def test_solve_iterates_on_branch_one_only(monkeypatch, order):
    # every trial point costs one gradient, each iteration builds one
    # Hessian from branch 1, and the only states built are the seed and
    # the result
    calls = count_calls(
        monkeypatch,
        [(wl.DiscreteAction, name) for name in ("gradient", "hessian")]
        + [(wl.State, "__post_init__"), (BandedHessian, "resolve")],
    )
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=64, order=order)
    sol = wl.solve(cfg)
    assert sol.iterations > 0
    assert calls["__post_init__"] == 2
    assert calls["hessian"] == sol.iterations
    assert len(sol.grad_history) == sol.iterations + 1
    # every trial step is accepted here, and each chord step costs one gradient
    assert calls["gradient"] == sol.iterations + 1 + calls["resolve"]


@FAMILIES
def test_newton_evaluates_the_action_through_gradient_and_hessian_only(monkeypatch, order):
    # every public method of the action is counted, as perfbench binds them
    public = [
        name for name, value in vars(wl.DiscreteAction).items()
        if callable(value) and not name.startswith("_")
    ]
    calls = count_calls(monkeypatch, [(wl.DiscreteAction, name) for name in public])
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32, order=order)
    sol = wl.solve(cfg)
    assert {name for name, count in calls.items() if count} == {"gradient", "hessian"}
    assert calls["hessian"] == sol.iterations
    assert calls["gradient"] >= sol.iterations + 1


# large_solve draws (perfbench, seed 1) whose gradient after the first
# Newton step lies at, or just above, the stop threshold; the two n = 768
# solves took 3 and 4 band LUs before the chord step
_NEAR_FLOOR = {
    "sbp42-linear-n768": (
        dict(x_i=0.8208731720872968, xdot_i=-0.11831481078971283, n_gamma=768, order="sbp42",
             potential={"type": "linear", "alpha": 0.1089315456041266}),
        "roundoff_floor",
    ),
    "sbp42-quartic-n768": (
        dict(x_i=0.6326536420633919, xdot_i=0.152669311641203, n_gamma=768, order="sbp42",
             potential={"type": "quartic", "kappa": 0.3333041234667135}),
        "roundoff_floor",
    ),
    "sbp21-quartic-n512": (
        dict(x_i=0.6754354201594984, xdot_i=-0.12084447149158609, n_gamma=512, order="sbp21",
             potential={"type": "quartic", "kappa": 0.5379440575471952}),
        "converged",
    ),
}


@pytest.mark.parametrize("label", sorted(_NEAR_FLOOR))
def test_one_band_lu_and_one_chord_step_near_the_floor(monkeypatch, label):
    data, termination = _NEAR_FLOOR[label]
    calls = count_calls(monkeypatch, [(wl.DiscreteAction, "hessian"), (BandedHessian, "resolve")])
    cfg = wl.ProblemConfig.from_json_dict(data)
    sol = wl.solve(cfg)
    assert calls["hessian"] == sol.iterations == 1
    assert calls["resolve"] == 1
    assert sol.termination == termination
    assert len(sol.grad_history) == 2 and sol.grad_norm == sol.grad_history[-1]
    z = pack(lift(sol.state))
    grad_norm = np.linalg.norm(doubled_gradient(wl.DiscreteAction(cfg), lift(sol.state)))
    if termination == "converged":
        # the gradient test holds at the state returned, not only at the one before
        assert grad_norm <= wl.SolveOptions().grad_tol * (1.0 + np.max(np.abs(z)))
    assert grad_norm == pytest.approx(sol.grad_norm, rel=1e-6)
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-12


def test_stalled_line_search_raises_non_convergence(monkeypatch):
    # measured: the first line search tries all 47 step lengths down to
    # _MIN_STEP, 48 gradients in all, and ends the solve
    calls = []
    gradient = wl.DiscreteAction.gradient

    def counted(self, *args):
        calls.append(1)
        return gradient(self, *args)

    monkeypatch.setattr(wl.DiscreteAction, "gradient", counted)
    cfg = wl.ProblemConfig.from_json_dict(STALLING_CONFIG)
    with pytest.raises(wl.NonConvergence, match="stalled") as err:
        wl.solve(cfg, guess=wl.initial_guess(cfg))
    last = err.value.solution
    assert last.termination == "stalled"
    assert not last.converged
    assert last.iterations == 0
    assert len(calls) <= 49
    assert last.grad_norm == last.grad_history[-1]


@FAMILIES
@POTENTIALS
def test_large_grid_converges_with_charge_at_floor(order, potential):
    # measured max interior dE: 8.8e-14 to 1.7e-13
    cfg = wl.ProblemConfig(potential=potential, n_gamma=512, order=order)
    sol = wl.solve(cfg, wl.SolveOptions(max_iter=12))
    assert sol.converged
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-12


@FAMILIES
@POTENTIALS
def test_default_solve_starts_from_the_geodesic_seed(order, potential):
    # measured: 1-2 iterations from the seed, against 3-4 from the straight line
    cfg = wl.ProblemConfig(potential=potential, n_gamma=256, order=order)
    sol = wl.solve(cfg)
    assert sol.converged
    assert sol.iterations <= 2


def test_window_overflowing_the_seed_count_is_refused_at_the_cap():
    # 4 tdot_i (gamma_f - gamma_i) is inf: the count must not reach math.ceil
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), tdot_i=1e300, xdot_i=0.0, gamma_f=1e9, n_gamma=16
    )
    studies = (
        lambda: wl.convergence_study(cfg, [16, 32, 64]),
        lambda: wl.scaled_tdot_study(cfg, [16, 32, 64], [1e300] * 3),
    )
    for call in (lambda: seed_steps(cfg), lambda: wl.solve(cfg), *studies):
        with pytest.raises(wl.StepFailure, match="window too long: .* 100000 RK4 sub-steps"):
            call()


def test_seed_reaching_g00_zero_raises_step_failure():
    # V = -c^2 m / 2 makes g00 = 0 everywhere: the seed's first stage divides
    # 0.0 by 0.0, which must end the solve, not yield a nan seed
    horizon = wl.custom_potential(v=lambda x: -0.5 + 0.0 * x, dv=lambda x: 0.0 * x)
    cfg = wl.ProblemConfig(potential=horizon, n_gamma=16)
    with pytest.raises(wl.StepFailure, match="the trajectory reaches g00 <= 0 near gamma"):
        wl.solve(cfg)


def test_seed_overflowing_a_float_is_the_straight_line():
    # 10.0 ** 400 raises OverflowError on the seed's first stage
    steep = wl.custom_potential(v=lambda x: x ** 400, dv=lambda x: 400.0 * x ** 399)
    cfg = wl.ProblemConfig(potential=steep, n_gamma=16, x_i=10.0)
    seed, line = _geodesic_seed(cfg), wl.initial_guess(cfg)
    for name in ("t", "x", "lam"):
        assert np.array_equal(getattr(seed, name), getattr(line, name)), name


def test_each_band_is_freed_before_the_next_assembly(monkeypatch):
    # the last iteration's band and LU factors must not stay alive while the
    # next Hessian is assembled; the straight-line guess takes 3 iterations
    bands, alive = [], []
    hessian = wl.DiscreteAction.hessian

    def tracked(self, *args):
        alive.append(sum(ref() is not None for ref in bands))
        bands.append(weakref.ref(hess := hessian(self, *args)))
        return hess

    monkeypatch.setattr(wl.DiscreteAction, "hessian", tracked)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=64)
    assert wl.solve(cfg, guess=wl.initial_guess(cfg)).iterations == len(bands) == 3
    assert alive == [0, 0, 0]


@pytest.mark.parametrize("n, max_iter", [(1024, 10), (2048, 10), (4096, 12)])
@FAMILIES
@POTENTIALS
def test_huge_grid_terminates_at_roundoff_floor(n, max_iter, order, potential):
    # from n = 1024 the gradient floor can lie above grad_tol; the step tests stop there,
    # far below the cap: measured 1 iteration (linear) or 2 (quartic) at every n
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=order)
    sol = wl.solve(cfg, wl.SolveOptions(max_iter=max_iter))
    assert sol.converged
    assert sol.termination in ("converged", "roundoff_floor")
    assert sol.iterations <= 4
    assert len(sol.grad_history) == sol.iterations + 1
    # measured max interior dE: <= 3.4e-13, 7.9e-13 and 1.7e-12
    bound = {1024: 1e-12, 2048: 1e-11, 4096: 2e-11}[n]
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= bound


@POTENTIALS
def test_sbp42_16384_grid_reaches_the_floor_in_few_steps(potential):
    # measured: 1-2 iterations, max interior dE 6.6e-12
    cfg = wl.ProblemConfig(potential=potential, n_gamma=16384, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.converged
    assert sol.iterations <= 4
    assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-10


def test_roundoff_floor_is_a_newton_fixed_point():
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=1024, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.termination == "roundoff_floor"
    # one more Newton step from the returned state moves it by rounding only
    action = wl.DiscreteAction(cfg)
    hess = action.hessian(sol.state.t, sol.state.x)
    rows, _ = physical_limit_indices(cfg.n_gamma)
    step = pack(lift(hess.solve(doubled_gradient(action, lift(sol.state))[rows])))
    z = pack(lift(sol.state))
    assert np.max(np.abs(step)) <= _SQRT_EPS * (1.0 + np.max(np.abs(z)))


def test_roundoff_floor_stops_without_backtracking(monkeypatch):
    # without the floor test the line search at the floor would backtrack
    # up to 47 gradients toward the minimum step and end the solve stalled
    calls = []
    gradient = wl.DiscreteAction.gradient

    def counted(self, *args):
        calls.append(1)
        return gradient(self, *args)

    monkeypatch.setattr(wl.DiscreteAction, "gradient", counted)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=1024, order="sbp42")
    sol = wl.solve(cfg)
    assert sol.termination == "roundoff_floor"
    assert len(calls) <= sol.iterations + 3


def _seeded_config(rng, k):
    # families alternate, potentials cycle through free, linear and quartic
    order = ("sbp21", "sbp42")[k % 2]
    potential = (
        wl.free_potential,
        lambda: wl.linear_potential(rng.uniform(-0.4, 0.4)),
        lambda: wl.quartic_potential(rng.uniform(0.05, 1.5)),
    )[k % 3]()
    n = int(rng.choice([9, 16, 33, 64, 128, 256]))
    tdot = float(rng.choice([0.5, 1.0, 2.0]))
    return wl.ProblemConfig(
        potential=potential,
        order=order,
        n_gamma=n,
        tdot_i=tdot,
        xdot_i=tdot * rng.uniform(-0.6, 0.6),
        x_i=rng.uniform(-1.0, 1.0),
    )


def test_seeded_random_configs_converge_with_charge_at_floor():
    # Every draw is kept.  A draw whose geodesic reaches the horizon
    # g00 <= 0 inside the window has no critical point: its solve must stop
    # at the geodesic seed, and Newton from the straight line must not find
    # one either.  The other draws must converge.  Measured: 46 converge
    # with max interior dE <= 2.9e-13, and 2 (linear, x_i heading for the
    # horizon) stop at the seed.
    rng = np.random.default_rng(2024)
    converged = 0
    for k in range(48):
        cfg = _seeded_config(rng, k)
        try:
            sol = wl.solve(cfg)
        except wl.StepFailure as exc:
            assert "g00 <= 0" in str(exc), cfg
            with pytest.raises(wl.NonConvergence):
                wl.solve(cfg, guess=wl.initial_guess(cfg))
            continue
        assert sol.converged, cfg
        assert wl.diagnose(sol.state, cfg).max_interior_delta_e <= 1e-11, cfg
        converged += 1
    assert converged == 46


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
    # against the straight line: the default geodesic seed needs fewer still
    cfg64 = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=64)
    cold = wl.solve(cfg64, guess=wl.initial_guess(cfg64))
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
