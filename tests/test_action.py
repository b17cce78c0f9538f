import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import worldline as wl
from conftest import (
    StateVector,
    constraints,
    dense,
    doubled_gradient,
    doubled_hessian,
    doubled_value,
    fd_gradient,
    fd_hessian,
    lift,
    multiplier_block,
    pack,
    scaled_max_err,
    unpack,
)


def random_state(cfg, rng, scale=0.3):
    z = pack(lift(wl.initial_guess(cfg)))
    z += scale * rng.standard_normal(z.size)
    return unpack(z, cfg.n_gamma)


# ---------------------------------------------------------------- potentials


def test_metric_values():
    free = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=8)
    np.testing.assert_allclose(wl.metric_g00(np.zeros(5), free), np.ones(5))
    lin = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=8)
    assert float(wl.metric_g00(1.0, lin)) == pytest.approx(1.5)
    qrt = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=8)
    assert float(wl.metric_g00(1.0, qrt)) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "pot",
    [wl.linear_potential(0.25), wl.quartic_potential(0.5), wl.free_potential()],
    ids=["linear", "quartic", "free"],
)
def test_potential_derivatives_consistent(pot):
    xs = np.linspace(-1.4, 1.7, 9)
    h = 1e-6
    dv_fd = (pot.v(xs + h) - pot.v(xs - h)) / (2 * h)
    d2v_fd = (pot.dv(xs + h) - pot.dv(xs - h)) / (2 * h)
    assert scaled_max_err(pot.dv(xs), dv_fd) <= 1e-6
    assert scaled_max_err(pot.d2v(xs), d2v_fd) <= 1e-6


def test_custom_potential_d2v_fallback():
    pot = wl.custom_potential(
        v=lambda x: np.cosh(np.asarray(x, dtype=float)),
        dv=lambda x: np.sinh(np.asarray(x, dtype=float)),
    )
    xs = np.linspace(-1.0, 1.0, 7)
    assert scaled_max_err(pot.d2v(xs), np.cosh(xs)) <= 1e-6


# ---------------------------------------------------------------- config


def test_config_validation():
    pot = wl.free_potential()
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, tdot_i=0.0)
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, tdot_i=-1.0)
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, xdot_i=1.0, tdot_i=1.0)  # v = c
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, n_gamma=2)
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, n_gamma=8, order="sbp42")
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, order="sbp99")
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig(potential=pot, gamma_i=1.0, gamma_f=0.0)
    # both ends finite, but gamma_f - gamma_i and so dgamma overflow to inf
    with pytest.raises(wl.InvalidConfig, match="finite span"):
        wl.ProblemConfig(potential=pot, gamma_i=-1e308, gamma_f=1e308)


def test_config_json_round_trip():
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5),
        n_gamma=48,
        tdot_i=2.0,
        xdot_i=0.2,
        order="sbp42",
    )
    data = json.loads(cfg.to_json())
    assert data["potential"] == {"type": "quartic", "kappa": 0.5}
    back = wl.ProblemConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()
    assert back.n_gamma == 48 and back.order == "sbp42"


_FLOAT_FIELDS = ("m", "c", "t_i", "x_i", "tdot_i", "xdot_i", "gamma_i", "gamma_f")


def test_config_stores_plain_python_numbers():
    # numpy scalars, as numpy grids and float32 data give them, and ints
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5),
        n_gamma=np.int64(16),
        tdot_i=np.float32(2.0),
        m=np.float32(1.0),
        xdot_i=np.float64(0.2),
        c=2,
    )
    assert type(cfg.n_gamma) is int
    assert all(type(getattr(cfg, name)) is float for name in _FLOAT_FIELDS)
    back = wl.ProblemConfig.from_json(cfg.to_json())
    assert back.to_json() == cfg.to_json()
    assert replace(back, potential=cfg.potential) == cfg
    assert '"c": 2.0' in cfg.to_json()  # an int-valued field is written as a float


def test_config_json_rejects_unknown_potential():
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig.from_json('{"potential": {"type": "morse"}}')


@pytest.mark.parametrize("pot", [wl.linear_potential(0.25), wl.free_potential()])
def test_config_is_not_hashable(pot):
    # a potential's params are a dict; the band-pattern cache keys on the grid
    with pytest.raises(TypeError, match="unhashable type: 'ProblemConfig'"):
        hash(wl.ProblemConfig(potential=pot))


# ---------------------------------------------------------------- state


def test_state_validation():
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        wl.State(t=np.ones(4), x=np.ones(5), lam=np.zeros(4))
    with pytest.raises(ValueError, match="1-D arrays of one length"):
        wl.State(t=np.ones((2, 4)), x=np.ones((2, 4)), lam=np.zeros(4))
    for lam in (np.zeros(3), np.zeros(8)):
        with pytest.raises(ValueError, match="exactly four Lagrange multipliers"):
            wl.State(t=np.ones(4), x=np.ones(4), lam=lam)


# ---------------------------------------------------------------- action value


def test_value_zero_when_branches_coincide():
    rng = np.random.default_rng(1)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=10)
    t = rng.standard_normal(10)
    x = rng.standard_normal(10)
    s = StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=np.zeros(8))
    assert doubled_value(wl.DiscreteAction(cfg), s) == 0.0


def test_value_zero_on_free_exact_line():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    s = lift(wl.initial_guess(cfg))
    s = StateVector(
        t1=s.t1, t2=s.t2, x1=s.x1, x2=s.x2, lam=np.arange(8.0)
    )  # multipliers see exactly satisfied constraints
    assert abs(doubled_value(wl.DiscreteAction(cfg), s)) <= 1e-12


def test_gradient_and_hessian_refuse_a_wrong_length():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    action = wl.DiscreteAction(cfg)
    s = wl.initial_guess(cfg)
    for t, x, n in ((s.t[:15], s.x, 15), (s.t, np.append(s.x, 1.0), 17)):
        with pytest.raises(ValueError, match=f"has {n} grid points but the action expects 16"):
            action.gradient(t, x, s.lam)
        with pytest.raises(ValueError, match=f"has {n} grid points but the action expects 16"):
            action.hessian(t, x)
    for lam in (np.zeros(3), np.zeros(8)):
        with pytest.raises(ValueError, match="exactly four Lagrange multipliers"):
            action.gradient(s.t, s.x, lam)


# ---------------------------------------------------------------- derivatives


@pytest.mark.parametrize(
    "pot,order,n",
    [
        (wl.linear_potential(0.25), "sbp21", 8),
        (wl.quartic_potential(0.5), "sbp21", 8),
        (wl.quartic_potential(0.5), "sbp42", 12),
        (wl.free_potential(), "sbp21", 8),
    ],
    ids=["linear", "quartic", "quartic42", "free"],
)
def test_gradient_matches_finite_differences(pot, order, n):
    rng = np.random.default_rng(2)
    cfg = wl.ProblemConfig(potential=pot, n_gamma=n, order=order)
    action = wl.DiscreteAction(cfg)
    for _ in range(3):
        s = random_state(cfg, rng)
        err = scaled_max_err(doubled_gradient(action, s), fd_gradient(action, pack(s), n))
        assert err <= 1e-6


def test_gradient_value_consistency_under_perturbation():
    rng = np.random.default_rng(8)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=10)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    z = pack(s)
    dz = rng.standard_normal(z.size)
    dz /= np.linalg.norm(dz)
    eps = 1e-6
    predicted = float(doubled_gradient(action, s) @ dz)
    measured = (
        doubled_value(action, unpack(z + eps * dz, 10))
        - doubled_value(action, unpack(z - eps * dz, 10))
    ) / (2 * eps)
    assert abs(predicted - measured) / (1 + abs(measured)) <= 1e-6


def test_lambda_block_equals_residuals():
    rng = np.random.default_rng(3)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=9)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    np.testing.assert_array_equal(
        doubled_gradient(action, s)[4 * 9 :], constraints(action, s)
    )


def test_hessian_symmetric_and_matches_fd():
    rng = np.random.default_rng(4)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=8)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    hess = doubled_hessian(action, s)
    assert np.max(np.abs(hess - hess.T)) <= 1e-12
    assert scaled_max_err(hess, fd_hessian(action, pack(s), 8)) <= 1e-5


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("wrong", ["t", "x"])
def test_hessian_rejects_a_wrong_grid_length(delta, wrong):
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=16)
    s = wl.initial_guess(cfg)
    coords = {"t": s.t, "x": s.x}
    coords[wrong] = np.linspace(0.0, 1.0, 16 + delta)
    with pytest.raises(ValueError, match=f"has {16 + delta} grid points .* expects 16"):
        wl.DiscreteAction(cfg).hessian(coords["t"], coords["x"])


def test_free_hessian_cross_blocks_vanish():
    rng = np.random.default_rng(6)
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=8)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    for t, x in ((s.t1, s.x1), (s.t2, s.x2)):
        # rows t1, x1 and columns t1, x1 of R H P, point by point
        coords = dense(action.hessian(t, x))[4:, :-4]
        assert np.all(coords[0::2, 1::2] == 0.0)  # t rows, x columns
        assert np.all(coords[1::2, 0::2] == 0.0)  # x rows, t columns
        assert np.all(np.diag(coords) != 0.0)


def test_free_line_gradient_structure():
    # on the exact straight line the coordinate gradient vanishes everywhere
    # except the final-node entries, which carry the discrete boundary term;
    # the connecting multipliers lam_5 = -c^2 tdot_i and lam_6 = xdot_i
    # cancel them exactly
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    action = wl.DiscreteAction(cfg)
    n = 16
    s0 = lift(wl.initial_guess(cfg))
    g0 = doubled_gradient(action, s0)[: 4 * n].reshape(4, n)
    assert np.max(np.abs(g0[:, :-1])) <= 1e-12
    np.testing.assert_allclose(
        g0[:, -1],
        [cfg.tdot_i, -cfg.tdot_i, -cfg.xdot_i, cfg.xdot_i],
        atol=1e-12,
    )
    lam = np.zeros(8)
    lam[4] = -cfg.c ** 2 * cfg.tdot_i
    lam[5] = cfg.xdot_i
    s1 = StateVector(t1=s0.t1, t2=s0.t2, x1=s0.x1, x2=s0.x2, lam=lam)
    assert np.max(np.abs(doubled_gradient(action, s1)[: 4 * n])) <= 1e-12


# ---------------------------------------------------------------- symmetries


def test_time_translation_invariance():
    rng = np.random.default_rng(9)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=14)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    shift = 0.37
    shifted = StateVector(
        t1=s.t1 + shift, t2=s.t2 + shift, x1=s.x1, x2=s.x2, lam=s.lam
    )
    # shifting the trajectory together with the absorbed initial value and
    # the constraint target leaves the action exactly invariant
    consistent = wl.DiscreteAction(replace(cfg, t_i=cfg.t_i + shift))
    assert abs(doubled_value(consistent, shifted) - doubled_value(action, s)) <= 1e-12

    # shifting only the operator's absorbed value exposes the lam_1 term
    operator_only = wl.DiscreteAction(cfg)
    operator_only.reg_t = wl.regularize(operator_only.op, cfg.t_i + shift)
    delta = doubled_value(operator_only, shifted) - doubled_value(action, s)
    assert abs(delta - s.lam[0] * shift) <= 1e-12


def test_space_translation_invariance_free():
    rng = np.random.default_rng(10)
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=14)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    shift = -0.58
    shifted = StateVector(
        t1=s.t1, t2=s.t2, x1=s.x1 + shift, x2=s.x2 + shift, lam=s.lam
    )
    consistent = wl.DiscreteAction(replace(cfg, x_i=cfg.x_i + shift))
    assert abs(doubled_value(consistent, shifted) - doubled_value(action, s)) <= 1e-12


def test_exchange_antisymmetry():
    rng = np.random.default_rng(12)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=11)
    s = random_state(cfg, rng)
    plain = StateVector(t1=s.t1, t2=s.t2, x1=s.x1, x2=s.x2, lam=np.zeros(8))
    swapped = StateVector(t1=s.t2, t2=s.t1, x1=s.x2, x2=s.x1, lam=np.zeros(8))
    action = wl.DiscreteAction(cfg)
    assert doubled_value(action, swapped) == pytest.approx(
        -doubled_value(action, plain), abs=1e-13
    )


@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_large_grid_stores_only_linear_size_arrays(order):
    n = 4096
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=n, order=order)
    action = wl.DiscreteAction(cfg)
    s = wl.initial_guess(cfg)
    assert np.all(np.isfinite(doubled_gradient(action, lift(s))))
    hess = action.hessian(s.t, s.x)
    assert np.all(np.isfinite(hess.ab))
    assert (hess.kl, hess.ku) == {"sbp21": (8, 2), "sbp42": (14, 6)}[order]
    # the largest are R H P's per-term arrays, 40.99 n entries for sbp42 (the
    # branch-1 constraint Jacobian holds 16 n); an n x n operator would hold 4096 n
    held = [action, action.op, action.reg_t, action.reg_x]
    sizes = [a.size for obj in held for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert max(sizes) <= 41 * n


@pytest.mark.parametrize("n", ["min", 16, 257])
@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_branch_one_constraint_rows_are_the_dense_multiplier_block(order, n):
    # the constraint rows on (t1, x1) point by point, read from D's end rows;
    # exact, so a moved row, sign or column fails
    n = wl.sbp.MIN_POINTS[order] if n == "min" else n
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=n, order=order, gamma_f=2.5
    )
    action = wl.DiscreteAction(cfg)
    block = multiplier_block(action.op).reshape(8, 4, n)[:, ::2]
    assert np.array_equal(action._jac1, block.transpose(0, 2, 1).reshape(8, 2 * n))


# ---------------------------------------------------------------- pattern cache

PATTERN = ("_jac1", "_slot", "_coef", "_weight")


def held_bytes():
    return sum(a.nbytes for p in wl.action._PATTERNS.values() for a in p[:4])


def test_configs_on_one_grid_share_one_read_only_pattern():
    cfg = wl.ProblemConfig(
        potential=wl.linear_potential(0.25), n_gamma=24, order="sbp42"
    )
    other = replace(
        cfg, potential=wl.quartic_potential(0.5), t_i=0.3, x_i=-0.4, xdot_i=0.2
    )
    first, second = wl.DiscreteAction(cfg), wl.DiscreteAction(other)
    assert list(wl.action._PATTERNS) == [("sbp42", 24, 1 / 23)]
    for name in PATTERN:
        assert getattr(second, name) is getattr(first, name)
        assert not getattr(first, name).flags.writeable
    assert (second.kl, second.ku, second._ldab) == (first.kl, first.ku, first._ldab)


@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_cached_pattern_gives_the_hessian_of_a_fresh_build(order):
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=20, order=order)
    s = random_state(cfg, np.random.default_rng(4))
    filler = wl.DiscreteAction(replace(cfg, potential=wl.free_potential(), x_i=0.6))
    cached = wl.DiscreteAction(cfg)
    assert cached._slot is filler._slot
    wl.action._PATTERNS.clear()
    fresh = wl.DiscreteAction(cfg)
    assert fresh._slot is not cached._slot
    band = cached.hessian(s.t1, s.x1).ab
    assert band.tobytes() == fresh.hessian(s.t1, s.x1).ab.tobytes()


def test_another_grid_spacing_gets_its_own_pattern():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    first = wl.DiscreteAction(cfg)
    wider = wl.DiscreteAction(replace(cfg, gamma_f=2.0))
    assert list(wl.action._PATTERNS) == [("sbp21", 16, 1 / 15), ("sbp21", 16, 2 / 15)]
    assert wider._coef is not first._coef
    assert not np.array_equal(wider._coef, first._coef)


def test_pattern_cache_stays_within_its_byte_budget(monkeypatch):
    cfgs = [
        wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=n)
        for n in (32, 48, 64, 128)
    ]
    actions = [wl.DiscreteAction(c) for c in cfgs]
    sizes = [sum(getattr(a, f).nbytes for f in PATTERN) for a in actions]
    wl.action._PATTERNS.clear()
    budget = sizes[1] + sizes[2]
    monkeypatch.setattr(wl.action, "_BUDGET", budget)
    for cfg in [cfgs[0], cfgs[1], cfgs[0], cfgs[2]]:
        wl.solve(cfg)
        assert held_bytes() <= budget
    # n = 48, the least recently used grid, went first
    assert [key[1] for key in wl.action._PATTERNS] == [32, 64]
    # a pattern over the budget is built, used and dropped, and evicts nothing
    assert sizes[3] > budget
    wl.solve(cfgs[3])
    assert [key[1] for key in wl.action._PATTERNS] == [32, 64]


def test_each_action_builds_one_operator_and_regularizes_it_twice(monkeypatch):
    calls = []
    for name in ("build_operator", "regularize"):

        def counted(*args, _name=name, _call=getattr(wl.action, name)):
            calls.append(_name)
            return _call(*args)

        monkeypatch.setattr(wl.action, name, counted)
    once = ["build_operator", "regularize", "regularize"]
    cfg = wl.ProblemConfig(
        potential=wl.quartic_potential(0.5), n_gamma=24, order="sbp42"
    )
    wl.DiscreteAction(cfg)  # a miss builds the pattern from the action's operator
    assert calls == once and len(wl.action._PATTERNS) == 1
    del calls[:]
    wl.DiscreteAction(replace(cfg, x_i=0.4))  # a hit; a new config builds its operator
    assert calls == once and len(wl.action._PATTERNS) == 1


# ---------------------------------------------------------------- LAPACK

_SRC = str(Path(wl.__file__).resolve().parents[1])


def _run(script, *args):
    """Run ``script`` in a fresh interpreter, so that its import order is real."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


_SOLVE = textwrap.dedent("""
    import hashlib, json, sys
    import numpy as np
    import worldline as wl
    from worldline.action import _flapack

    if sys.argv[1] == "scipy.linalg first":
        import scipy.linalg
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=64, order="sbp42")
    sol = wl.solve(cfg)
    state = np.concatenate([sol.state.t, sol.state.x, sol.state.lam])
    got = {"state": hashlib.sha256(state.tobytes()).hexdigest()}
    got["scipy"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
""")


def test_scipy_linalg_imported_after_a_solve_shares_its_band_solver():
    got = _run(_SOLVE + textwrap.dedent("""
        import scipy.linalg
        from scipy.linalg import lapack, solve_banded, svdvals

        got["has_flapack"] = hasattr(scipy.linalg, "_flapack")
        got["same_function"] = lapack.dgbsv is _flapack().dgbsv
        band = wl.DiscreteAction(cfg).hessian(sol.state.t, sol.state.x)
        r = np.random.default_rng(5).standard_normal(band.ab.shape[1])
        ours, scipys = (
            f(band.kl, band.ku, band.ab.copy(order="F"), r.copy())
            for f in (_flapack().dgbsv, lapack.dgbsv)
        )
        got["dgbsv_bits"] = [
            np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(ours, scipys)
        ]
        a = np.diag([4.0, 5.0, 6.0]) + np.diag([1.0, 1.0], 1) + np.diag([2.0, 2.0], -1)
        ab = np.array([[0.0, 1.0, 1.0], [4.0, 5.0, 6.0], [2.0, 2.0, 0.0]])
        b = np.array([1.0, -2.0, 3.0])
        err = solve_banded((1, 1), ab, b) - np.linalg.solve(a, b)
        got["solve_banded"] = float(np.max(np.abs(err)))
        m = np.random.default_rng(6).standard_normal((5, 3))
        err = svdvals(m) - np.linalg.svd(m, compute_uv=False)
        got["svdvals"] = float(np.max(np.abs(err)))
        print(json.dumps(got))
    """), "solve first")
    assert got["scipy"] == []  # the solve itself imported no scipy package
    assert got["has_flapack"] and got["same_function"]
    assert got["dgbsv_bits"] == [True] * 4
    assert got["solve_banded"] <= 1e-14 and got["svdvals"] <= 1e-14


def test_band_solver_gives_one_state_whatever_was_imported_first():
    script = _SOLVE + textwrap.dedent("""
        got["loaded_by_scipy"] = _flapack() is sys.modules.get("scipy.linalg._flapack")
        print(json.dumps(got))
    """)
    first, after = (_run(script, order) for order in ("solve first", "scipy.linalg first"))
    assert first["state"] == after["state"]
    assert not first["loaded_by_scipy"] and after["loaded_by_scipy"]


@pytest.mark.parametrize("files", [[], ["_flapack.so", "_flapack.abi3.so"]])
def test_band_solver_without_one_flapack_file_names_where_it_looked(tmp_path, monkeypatch, files):
    (tmp_path / "linalg").mkdir()
    for name in files:
        (tmp_path / "linalg" / name).touch()
    spec = SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(wl.action, "find_spec", lambda name: spec)
    monkeypatch.setattr(wl.action, "_FLAPACK", [])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match=f"found {len(files)} .* in {tmp_path / 'linalg'}"):
        wl.action._flapack()
    with pytest.raises(ImportError):  # a solve meets it too: nothing half-loaded was kept
        wl.solve(wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=16))


def test_first_solves_from_four_threads_load_the_band_solver_once():
    got = _run("""
        import json, sys, threading
        import worldline as wl
        from worldline import action

        cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=48, order="sbp42")
        start, states = threading.Barrier(4), []

        def first_solve():
            start.wait()
            s = wl.solve(cfg).state
            states.append(s.t.tobytes() + s.x.tobytes() + s.lam.tobytes())

        sys.setswitchinterval(1e-6)  # switch threads often inside the loader
        threads = [threading.Thread(target=first_solve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        print(json.dumps({
            "running": sum(thread.is_alive() for thread in threads),
            "solves": len(states),
            "states": len(set(states)),
            "loaded": len(action._FLAPACK),
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
    """)
    assert got == {"running": 0, "solves": 4, "states": 1, "loaded": 1, "scipy": []}
