import contextlib
import gc
import math
import os
import subprocess
import sys
import textwrap
from array import array
from dataclasses import replace
from functools import reduce
from itertools import chain
from operator import add, mul
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

import worldline as wl
from worldline import reference
from worldline.action import geodesic_rhs
from worldline.reference import _ERROR_COLUMNS


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
    span = (cfg.gamma_i, cfg.gamma_f)
    y0 = (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i)
    return solve_ivp(
        lambda _g, y: geodesic_rhs(y, cfg), span, y0, method="DOP853",
        rtol=2.5e-14, atol=1e-15, max_step=(span[1] - span[0]) / 4096, dense_output=True,
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


def _probe_points(samples, lo, hi):
    # every step boundary, both ends and interior points, in shuffled order
    rng = np.random.default_rng(7)
    points = np.concatenate([samples, [lo, hi], np.linspace(lo, hi, 101)])
    return rng.permutation(points)


def _assert_follows_scipy(ours, samples, rhs, span, y0, tol, rows):
    # scipy's solve_ivp at the oracle's own tolerances: the same steps and,
    # up to rounding in the stage sums, the same dense output
    sol = solve_ivp(
        rhs, span, y0, method="DOP853", rtol=max(tol, reference._RTOL_FLOOR),
        atol=tol, dense_output=True,
    )
    assert len(samples) == len(sol.t)
    probes = _probe_points(samples, *span)
    for row, i in enumerate(rows):
        want = sol.sol(probes)[i]
        assert np.all(np.abs(ours[row](probes) - want) <= 1e-14 * (1 + np.abs(want)))
    for p in (span[0], 0.37 * span[0] + 0.63 * span[1], span[1]):
        for row, i in enumerate(rows):
            got, want = ours[row](p), sol.sol(p)[i]
            assert np.shape(got) == () and abs(got - want) <= 1e-14 * (1 + abs(want))


@pytest.mark.parametrize("cfg_fixture", ["linear_cfg", "quartic_cfg"])
def test_oracles_follow_scipys_dop853(cfg_fixture, request):
    cfg = request.getfixturevalue(cfg_fixture)
    pot, tol = cfg.potential, 1e-12
    cases = [(cfg, tol)]
    if cfg_fixture == "quartic_cfg":  # the stretched oracle of scaled_tdot_study
        cases.append((replace(cfg, gamma_f=8.0), reference._STUDY_TOL))
    for c, c_tol in cases:
        geo = wl.solve_geodesic_ode(c, c_tol)
        y0 = (c.t_i, c.tdot_i, c.x_i, c.xdot_i)
        _assert_follows_scipy(
            (geo.t, geo.x), geo.gamma_samples, lambda _g, y: geodesic_rhs(y, c),
            (c.gamma_i, c.gamma_f), y0, c_tol, (0, 2),
        )

    def eom(_t, y):
        return (y[1], -(pot.dv(y[0]) / cfg.m) * (1.0 - (y[1] / cfg.c) ** 2) ** 1.5)

    t_end = float(wl.solve_geodesic_ode(cfg, tol).t_samples[-1])
    phys = wl.solve_physical_eom(cfg, tol, t_final=t_end)
    _assert_follows_scipy(
        (phys.x,), phys.t_samples, eom, (cfg.t_i, t_end), (cfg.x_i, cfg.v_init), tol,
        (0,),
    )


# scipy's DOP853 tableau as Python floats: stages 2..12, weights, error estimators
_A = tuple(tuple(row[:s]) for s, row in enumerate(DOP853.A.tolist()))[1:]
_B, _E3, _E5 = (tuple(c.tolist()) for c in (DOP853.B, DOP853.E3, DOP853.E5))


def _left_sum(terms):
    # sum() up to Python 3.11; from 3.12 on, sum() compensates float rounding
    return reduce(add, terms, 0)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _loop_dop853(rhs, span, y0, tol, event=None):
    """The reference stepper: reference._dop853 with a loop over the tableau."""
    (t, t_end), rtol, atol = span, max(tol, reference._RTOL_FLOOR), tol
    y, f = list(y0), rhs(y0)
    if not all(map(math.isfinite, f)):
        raise wl.StepFailure("the right-hand side is not finite at the initial point")
    h_abs = reference._initial_step(rhs, y, f, t_end - t, rtol, atol)
    ts, ys, stages, crossed = [t], [y], array("d"), False
    g = event(y) if event else None
    while t < t_end and not crossed:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:
                raise wl.StiffnessSuspected(
                    "Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            ks = [f]
            for a in _A:  # u + (sum_j a_j k_j) h per component, as scipy sums
                stage = [u + _left_sum(map(mul, a, k)) * h for u, k in zip(y, zip(*ks))]
                ks.append(rhs(stage))
            y_new = [u + h * _left_sum(map(mul, _B, k)) for u, k in zip(y, zip(*ks))]
            ks.append(rhs(y_new))
            e5 = e3 = 0.0
            for u, v, k in zip(y, y_new, zip(*ks)):
                scale = atol + max(abs(u), abs(v)) * rtol
                r5 = _left_sum(map(mul, _E5, k)) / scale
                r3 = _left_sum(map(mul, _E3, k)) / scale
                e5, e3 = e5 + r5 * r5, e3 + r3 * r3
            error = e5 and abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * len(y))
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs = abs(h) * (min(1, factor) if rejected else factor)
                break
            h_abs, rejected = abs(h) * max(0.2, 0.9 * error ** -0.125), True
        t, y, f = t_new, y_new, ks[-1]
        ts.append(t)
        ys.append(y)
        stages.extend(chain.from_iterable(ks))
        if event is not None:
            g, g_old = event(y), g
            crossed = g_old <= 0 <= g or g_old >= 0 >= g
    dense = reference._dense_output(rhs, ts, ys, stages)
    return np.array(ts), np.array(ys).T, dense, crossed


# the systems of test_step_collapse_reported_as_stiffness and
# test_superluminal_velocity_detected
_INVERTED_QUARTIC = wl.ProblemConfig(
    potential=wl.quartic_potential(-1.0), n_gamma=8, x_i=0.8, xdot_i=0.2, gamma_f=5.0
)
_LIGHT_SPEED = wl.ProblemConfig(
    potential=wl.linear_potential(-100.0), n_gamma=8, x_i=0.0, xdot_i=0.0
)

# one oracle run each, of the quartic setup unless named otherwise
_ORACLE_RUNS = {
    "geodesic-1e-12": lambda cfg: wl.solve_geodesic_ode(cfg, 1e-12),
    "geodesic-1e-14": lambda cfg: wl.solve_geodesic_ode(cfg, 1e-14),
    "stretched": lambda cfg: wl.solve_geodesic_ode(replace(cfg, gamma_f=8.0), 1e-14),
    "physical": lambda cfg: wl.solve_physical_eom(cfg, 1e-12, t_final=1.47),
    "physical-light-speed-stop": lambda _: wl.solve_physical_eom(
        _LIGHT_SPEED, 1e-12, t_final=50.0
    ),
    "physical-nan-stages": lambda _: wl.solve_physical_eom(
        replace(_LIGHT_SPEED, potential=wl.linear_potential(100.0), xdot_i=0.9),
        1e-6, t_final=1.0,
    ),
    "collapse": lambda _: wl.solve_geodesic_ode(_INVERTED_QUARTIC, 1e-10),
    "collapse-numpy-fallback": lambda cfg: wl.solve_geodesic_ode(
        replace(cfg, n_gamma=8, x_i=1e78), 1e-10
    ),
}


def _run_recorded(stepper, rhs, args):
    """Run a stepper, recording every state the right-hand side is given."""
    calls = []

    def recorded(y):
        calls.append(np.array(y, dtype=float))
        return rhs(y)

    try:
        ts, ys, dense, crossed = stepper(recorded, *args)
    except wl.StiffnessSuspected as exc:
        return str(exc), calls
    return (ts, ys, dense(np.linspace(*args[0], 301)), crossed), calls


def _bits(arrays):
    return [(np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in arrays]


@pytest.mark.parametrize("case", list(_ORACLE_RUNS))
def test_generated_sums_step_as_the_tableau_loop(case, quartic_cfg, monkeypatch):
    # the run's one _dop853 call is repeated by both steppers
    captured, generated = [], reference._dop853

    def spy(*args):
        captured.append(args)
        return generated(*args)

    monkeypatch.setattr(reference, "_dop853", spy)
    with contextlib.suppress(wl.StepFailure, wl.SuperluminalVelocity):
        _ORACLE_RUNS[case](quartic_cfg)
    assert len(captured) == 1
    rhs, *args = captured[0]
    got, got_calls = _run_recorded(generated, rhs, args)
    want, want_calls = _run_recorded(_loop_dop853, rhs, args)
    # the same trial steps, so the same rejections, on the same states: bit
    # for bit, down to the sign of zeros and the nans of overshooting stages
    assert _bits(got_calls) == _bits(want_calls)
    if case.startswith("collapse"):
        assert got == want and want.startswith("Required step size")
        return
    assert _bits(got[:3]) == _bits(want[:3])  # step points, states, dense values
    assert got[3] == want[3] == (case == "physical-light-speed-stop")
    if case in ("stretched", "physical-nan-stages"):  # runs that reject steps
        # 2 calls before the first step, 12 a trial step, 3 for the dense output
        assert (len(got_calls) - 5) // 12 > len(got[0]) - 1


def _exactly(got, want):
    # == on floats, and the same sign bit, so that 0.0 and -0.0 differ too
    got, want = np.asarray(got, dtype=float), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


def test_oracle_tableau_is_scipys_dop853():
    # every coefficient the oracle reads from scipy's coefficient file
    tab = reference._tableau()
    assert not np.triu(DOP853.A).any()  # row 0 too
    for s in range(1, 12):
        assert _exactly(tab.A[s, :s], DOP853.A[s, :s]), f"A row {s}"
    for name in ("B", "E5", "E3", "D"):
        assert _exactly(getattr(tab, name), getattr(DOP853, name)), name
    assert len(DOP853.A_EXTRA) == 3
    for s, full in enumerate(DOP853.A_EXTRA, start=13):
        assert _exactly(tab.A[s, :s], full[:s]) and not full[s:].any(), f"A_EXTRA row {s}"


@pytest.mark.parametrize("scipy_found", [False, True], ids=["no-scipy", "no-file"])
def test_oracle_without_scipys_coefficient_file_names_where_it_looked(
    tmp_path, monkeypatch, scipy_found
):
    (tmp_path / "integrate" / "_ivp").mkdir(parents=True)  # with no coefficient file
    spec = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(reference, "find_spec", lambda name: spec if scipy_found else None)
    monkeypatch.chdir(tmp_path)
    where = tmp_path if scipy_found else Path("scipy")
    reference._tableau.cache_clear()
    try:
        path = where / "integrate" / "_ivp" / "dop853_coefficients.py"
        with pytest.raises(ImportError) as refused:
            reference._tableau()
        assert str(refused.value) == f"no DOP853 coefficients at {path}"
        cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=16)
        with pytest.raises(ImportError):  # an oracle meets it too: nothing was kept
            reference.solve_geodesic_ode(cfg)
    finally:
        reference._tableau.cache_clear()


# y' = rhs(y) from y0, with its exact solution: a decay, and a rotation and a decay
_LINEAR_SYSTEMS = {
    1: (lambda y: (-0.5 * y[0],), (2.0,), lambda t: [2.0 * np.exp(-0.5 * t)]),
    3: (
        lambda y: (y[1], -y[0], -0.5 * y[2]),
        (1.0, 0.0, 2.0),
        lambda t: [np.cos(t), -np.sin(t), 2.0 * np.exp(-0.5 * t)],
    ),
}


@pytest.mark.parametrize("dim", sorted(_LINEAR_SYSTEMS))
def test_generated_sums_serve_any_dimension_built_once(dim):
    rhs, y0, exact = _LINEAR_SYSTEMS[dim]
    span, tol = (0.0, 5.0), 1e-10
    ts, ys, dense, _ = reference._dop853(rhs, span, y0, tol)
    built = reference._trial_step.cache_info().misses
    again = reference._dop853(rhs, span, y0, tol)
    assert reference._trial_step.cache_info().misses == built
    assert np.array_equal(again[1], ys) and ys.shape == (dim, len(ts))
    t = np.linspace(*span, 101)
    np.testing.assert_allclose(dense(t), exact(t), rtol=0, atol=1e-8)
    np.testing.assert_allclose(ys, exact(ts), rtol=0, atol=1e-8)
    sol = solve_ivp(
        lambda _t, y: rhs(y), span, y0, method="DOP853",
        rtol=max(tol, reference._RTOL_FLOOR), atol=tol,
    )
    assert len(ts) == len(sol.t)


def test_generated_sums_are_not_built_at_import(tmp_path):
    # solves that never call the oracle must not pay for generating its code,
    # and no command imports a scipy package
    src = str(Path(reference.__file__).resolve().parents[1])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"potential": {"type": "quartic", "kappa": 0.5}, "n_gamma": 16}')
    bad.write_text('{"potential": "quartic"}')
    probe = textwrap.dedent("""
        import contextlib, io, sys
        import worldline, worldline.cli
        from worldline import reference
        from worldline.cli import main

        good, bad, out = sys.argv[1:]
        def loaded(code=None):
            scipy = [m for m in sys.modules if m.startswith("scipy")]
            print(code, scipy, reference._tableau.cache_info().currsize)

        loaded()
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["dump-operator", "--order", "sbp42", "--n", "16", "--dgamma", "0.1"])
        loaded(code)
        loaded(main(["solve", "--config", bad, "--out", out]))
        loaded(main(["solve", "--config", good, "--out", out]))
        print(reference._trial_step.cache_info().currsize)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["sweep", "--config", good, "--out", out, "--n-list", "16,32,64"])
        loaded(code)
        print(reference._trial_step.cache_info().currsize)
    """)
    argv = [sys.executable, "-c", probe, str(good), str(bad), str(tmp_path / "out")]
    out = subprocess.run(
        argv, env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.splitlines() == [
        "None [] 0",
        "0 [] 0",
        "1 [] 0",
        "0 [] 0",  # LAPACK's band solver is loaded from its file
        "0",
        "0 [] 1",  # and the oracle's tableau is run from its file
        "1",
    ]


@pytest.mark.parametrize("field", ["tdot_i", "m"])
def test_oracle_of_a_float32_field_is_the_float_oracle(field):
    # a float32 field must not turn the Python-float stepper into float32
    # arithmetic, which took seconds here instead of milliseconds
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), tdot_i=2.0)
    as_float32 = replace(cfg, **{field: np.float32(getattr(cfg, field))})
    want, got = wl.solve_geodesic_ode(cfg), wl.solve_geodesic_ode(as_float32)
    names = ("gamma_samples", "t_samples", "x_samples", "tdot_samples", "xdot_samples")
    assert _bits(getattr(got, n) for n in names) == _bits(getattr(want, n) for n in names)


def test_oracle_step_count_set_by_tolerance(quartic_cfg):
    # a step cap of span/512 would force at least 512 steps here
    traj = wl.solve_geodesic_ode(quartic_cfg, 1e-12)
    assert len(traj.gamma_samples) < 64


@pytest.mark.parametrize("oracle", ["geodesic", "physical"])
def test_oracle_releases_its_memory(oracle):
    # the scaled-tdot study's oracle, and the physical oracle over its window,
    # run as often as a long benchmark would; a stepper keeping one reference
    # per call grows by ~500 live blocks here, one array per run by ~100 and
    # one float per step by ~27000
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), gamma_f=8.0)
    t_end = float(wl.solve_geodesic_ode(cfg, 1e-14).t_samples[-1])
    run = {
        "geodesic": lambda: wl.solve_geodesic_ode(cfg, 1e-14),
        "physical": lambda: wl.solve_physical_eom(cfg, 1e-14, t_final=t_end),
    }[oracle]
    for _ in range(3):
        run()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(100):
        run()
    gc.collect()
    assert sys.getallocatedblocks() - before < 50


def test_tolerance_range_enforced(free_cfg):
    with pytest.raises(ValueError):
        wl.solve_geodesic_ode(free_cfg, 1e-15)
    with pytest.raises(ValueError):
        wl.solve_geodesic_ode(free_cfg, 1e-5)


def test_physical_eom_free_is_straight(free_cfg):
    traj = wl.solve_physical_eom(free_cfg, 1e-12, t_final=2.0)
    ts = np.linspace(0.0, 2.0, 21)
    np.testing.assert_allclose(traj.x(ts), 1.0 + 0.1 * ts, atol=1e-11)


@pytest.mark.parametrize("t_final", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_physical_eom_refuses_a_window_not_ending_after_t_i(quartic_cfg, t_final):
    # an infinite t_final would step through a bounded motion forever
    want = "t_final must be finite and exceed t_i = 0.0"
    with pytest.raises(ValueError, match=want):
        wl.solve_physical_eom(quartic_cfg, 1e-12, t_final=t_final)


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
    # v = a t / sqrt(1 + (a t)^2) with a = 100 reaches c (1 - 1e-6) at t = 7.07106
    for tol in (1e-10, 1e-12):
        with pytest.raises(wl.SuperluminalVelocity, match="reached c at t = 7.07106"):
            wl.solve_physical_eom(cfg, tol, t_final=50.0)
    # a fast particle pushed back: trial stages of this run overshoot c, where
    # (1 - (u/c)^2)^1.5 of a Python float is complex and numpy's is nan
    pushed = replace(cfg, potential=wl.linear_potential(100.0), xdot_i=0.9)
    traj = wl.solve_physical_eom(pushed, 1e-6, t_final=1.0)
    dense = traj.x(traj.t_samples)
    for samples in (traj.t_samples, traj.x_samples, traj.v_samples, dense):
        assert samples.dtype == np.float64 and np.all(np.isfinite(samples))


def test_step_collapse_reported_as_stiffness():
    # an inverted quartic drives g00 = 1 - 2 x^4 through zero at finite x,
    # where tdot diverges and the step size collapses
    inverted = wl.ProblemConfig(
        potential=wl.quartic_potential(-1.0),
        n_gamma=8,
        x_i=0.8,
        xdot_i=0.2,
        tdot_i=1.0,
        gamma_f=5.0,
    )
    # x_i^4 overflows a Python float, which raises where numpy returns inf:
    # the right-hand side must fall back to numpy and let the step collapse
    overflowing = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=8, x_i=1e78
    )
    for cfg in (inverted, overflowing):
        with pytest.raises(wl.StiffnessSuspected, match="^Required step size"):
            wl.solve_geodesic_ode(cfg, 1e-10)
        with pytest.raises(wl.StepFailure):  # subclass relation
            wl.solve_geodesic_ode(cfg, 1e-10)


def test_geodesic_oracle_refuses_a_window_too_long_to_seed_at_once():
    # integrated, this window takes about 15 s and 367016 steps; a fresh
    # process and a timeout keep a regression from stalling the suite
    probe = textwrap.dedent("""
        import worldline as wl

        cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), gamma_f=30000.0)
        try:
            wl.solve_geodesic_ode(cfg, 1e-10)
        except wl.StepFailure as exc:
            print(exc)
    """)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(Path(reference.__file__).resolve().parents[1])},
        capture_output=True, text=True, check=True, timeout=10,
    )
    assert out.stdout.startswith("window too long: the geodesic seed needs more than 100000")


def test_convergence_study_requires_three_ascending_grids(linear_cfg):
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [16, 32])
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [32, 16, 64])
    with pytest.raises(ValueError):
        wl.convergence_study(linear_cfg, [16, 16, 32])


@pytest.mark.parametrize("study", ["convergence", "scaled-tdot"])
def test_studies_refuse_a_fractional_grid_size_before_any_work(
    study, linear_cfg, monkeypatch
):
    # a size is never truncated: the bad row fails before the oracle and any solve
    calls = []
    for name in ("solve_geodesic_ode", "solve"):
        monkeypatch.setattr(reference, name, lambda *_, n=name, **__: calls.append(n))

    def scaled(n_list, tdot):
        return lambda: wl.scaled_tdot_study(linear_cfg, n_list, [1.0, tdot])

    cases = [("n_gamma", lambda: wl.convergence_study(linear_cfg, [16, 32.7, 64]))]
    if study == "scaled-tdot":  # nor is a tdot converted: True ran as 1.0, "2" as 2.0
        cases = [("n_gamma", scaled([16, 32.5], 2.0))]
        cases += [("tdot_i", scaled([16, 32], tdot)) for tdot in (True, "2", None)]
    for name, run in cases:
        with pytest.raises(wl.InvalidConfig, match=name):
            run()
    assert calls == []


def test_studies_accept_numpy_grid_sizes(linear_cfg):
    # and numpy tdot values
    for run in (
        lambda n, _: wl.convergence_study(linear_cfg, n),
        lambda n, tdots: wl.scaled_tdot_study(linear_cfg, n, tdots),
    ):
        got = run(np.array([8, 16, 32]), np.array([1.0, 2.0, 2.0])).rows
        want = run([8, 16, 32], [1.0, 2.0, 2.0]).rows
        assert got == want and all(type(r.n_gamma) is int for r in got)


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
    table = wl.convergence_study(replace(linear_cfg, order="sbp42"), [16, 32, 64])
    fits = table.fit_exponents()
    assert fits["eps_l2_x"]["beta"] > 2.5


@pytest.mark.parametrize("cfg_fixture", ["linear_cfg", "quartic_cfg"])
def test_sbp21_local_orders_stay_two_up_to_n_8192(cfg_fixture, request):
    # each of the seven doublings from n = 64 on, not one fit that could average a drift away
    cfg = replace(request.getfixturevalue(cfg_fixture), order="sbp21")
    n_list = [64 << k for k in range(8)]
    table = wl.convergence_study(cfg, n_list, opts=wl.SolveOptions(max_iter=30))
    log_dg = np.log(table.column("dgamma"))
    for name in ("eps_l2_x", "eps_l2_t"):
        orders = np.diff(np.log(table.column(name))) / np.diff(log_dg)
        assert np.all((1.95 <= orders) & (orders <= 2.05)), (name, orders)


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
    # a default solve starts from the geodesic seed; the straight-line guess
    # lies outside Newton's basin from tdot_i = 4 on
    base = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=256, order=order
    )
    for tdot in (4.0, 8.0, 16.0, 32.0):
        cfg = replace(base, tdot_i=tdot, xdot_i=base.v_init * tdot)
        sol = wl.solve(cfg)
        assert sol.converged and sol.iterations <= 10, (tdot, sol.iterations)


def test_geodesic_seed_converges_on_a_coarse_grid_at_tdot_8():
    # warm-started continuation in tdot_i raised NonConvergence here
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=32, tdot_i=8.0, xdot_i=0.8
    )
    assert wl.solve(cfg).converged
