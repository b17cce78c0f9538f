import json
from dataclasses import replace

import numpy as np
import pytest

import worldline as wl
from conftest import doubled_hessian, fd_gradient, fd_hessian, scaled_max_err


def random_state(cfg, rng, scale=0.3):
    z = wl.initial_guess(cfg).pack()
    z += scale * rng.standard_normal(z.size)
    return wl.StateVector.unpack(z, cfg.n_gamma)


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


def test_config_json_rejects_unknown_potential():
    with pytest.raises(wl.InvalidConfig):
        wl.ProblemConfig.from_json('{"potential": {"type": "morse"}}')


# ---------------------------------------------------------------- state


def test_state_pack_round_trip():
    rng = np.random.default_rng(0)
    n = 13
    z = rng.standard_normal(4 * n + 8)
    s = wl.StateVector.unpack(z, n)
    assert s.pack().shape == (4 * n + 8,)
    np.testing.assert_array_equal(s.pack(), z)


def test_state_validation():
    with pytest.raises(ValueError):
        wl.StateVector(
            t1=np.ones(4), t2=np.ones(5), x1=np.ones(4), x2=np.ones(4), lam=np.zeros(8)
        )
    with pytest.raises(ValueError):
        wl.StateVector(
            t1=np.ones(4), t2=np.ones(4), x1=np.ones(4), x2=np.ones(4), lam=np.zeros(7)
        )


# ---------------------------------------------------------------- action value


def test_value_zero_when_branches_coincide():
    rng = np.random.default_rng(1)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=10)
    t = rng.standard_normal(10)
    x = rng.standard_normal(10)
    s = wl.StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=np.zeros(8))
    assert wl.DiscreteAction(cfg).value(s) == 0.0


def test_value_zero_on_free_exact_line():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    s = wl.initial_guess(cfg)
    s = wl.StateVector(
        t1=s.t1, t2=s.t2, x1=s.x1, x2=s.x2, lam=np.arange(8.0)
    )  # multipliers see exactly satisfied constraints
    assert abs(wl.DiscreteAction(cfg).value(s)) <= 1e-12


def test_value_dimension_mismatch():
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=16)
    s = wl.initial_guess(replace(cfg, n_gamma=12))
    with pytest.raises(ValueError):
        wl.DiscreteAction(cfg).value(s)


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
        err = scaled_max_err(action.gradient(s), fd_gradient(action, s.pack(), n))
        assert err <= 1e-6


def test_gradient_value_consistency_under_perturbation():
    rng = np.random.default_rng(8)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=10)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    z = s.pack()
    dz = rng.standard_normal(z.size)
    dz /= np.linalg.norm(dz)
    eps = 1e-6
    predicted = float(action.gradient(s) @ dz)
    measured = (
        action.value(wl.StateVector.unpack(z + eps * dz, 10))
        - action.value(wl.StateVector.unpack(z - eps * dz, 10))
    ) / (2 * eps)
    assert abs(predicted - measured) / (1 + abs(measured)) <= 1e-6


def test_lambda_block_equals_residuals():
    rng = np.random.default_rng(3)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=9)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    np.testing.assert_array_equal(
        action.gradient(s)[4 * 9 :], action.constraints(s)
    )


def test_hessian_symmetric_and_matches_fd():
    rng = np.random.default_rng(4)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=8)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    hess = doubled_hessian(action, s)
    assert np.max(np.abs(hess - hess.T)) <= 1e-12
    assert scaled_max_err(hess, fd_hessian(action, s.pack(), 8)) <= 1e-5


def test_free_hessian_cross_blocks_vanish():
    rng = np.random.default_rng(6)
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=8)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    swapped = wl.StateVector(t1=s.t2, t2=s.t1, x1=s.x2, x2=s.x1, lam=s.lam)
    for state in (s, swapped):
        # rows t1, x1 and columns t1, x1 of R H P, point by point
        coords = np.asarray(action.hessian(state))[4:, :-4]
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
    s0 = wl.initial_guess(cfg)
    g0 = action.gradient(s0)[: 4 * n].reshape(4, n)
    assert np.max(np.abs(g0[:, :-1])) <= 1e-12
    np.testing.assert_allclose(
        g0[:, -1],
        [cfg.tdot_i, -cfg.tdot_i, -cfg.xdot_i, cfg.xdot_i],
        atol=1e-12,
    )
    lam = np.zeros(8)
    lam[4] = -cfg.c ** 2 * cfg.tdot_i
    lam[5] = cfg.xdot_i
    s1 = wl.StateVector(t1=s0.t1, t2=s0.t2, x1=s0.x1, x2=s0.x2, lam=lam)
    assert np.max(np.abs(action.gradient(s1)[: 4 * n])) <= 1e-12


# ---------------------------------------------------------------- symmetries


def test_time_translation_invariance():
    rng = np.random.default_rng(9)
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=14)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    shift = 0.37
    shifted = wl.StateVector(
        t1=s.t1 + shift, t2=s.t2 + shift, x1=s.x1, x2=s.x2, lam=s.lam
    )
    # shifting the trajectory together with the absorbed initial value and
    # the constraint target leaves the action exactly invariant
    consistent = wl.DiscreteAction(replace(cfg, t_i=cfg.t_i + shift))
    assert abs(consistent.value(shifted) - action.value(s)) <= 1e-12

    # shifting only the operator's absorbed value exposes the lam_1 term
    operator_only = wl.DiscreteAction(replace(cfg, t_i=cfg.t_i + shift))
    operator_only.t_init = cfg.t_i
    delta = operator_only.value(shifted) - action.value(s)
    assert abs(delta - s.lam[0] * shift) <= 1e-12


def test_space_translation_invariance_free():
    rng = np.random.default_rng(10)
    cfg = wl.ProblemConfig(potential=wl.free_potential(), n_gamma=14)
    action = wl.DiscreteAction(cfg)
    s = random_state(cfg, rng)
    shift = -0.58
    shifted = wl.StateVector(
        t1=s.t1, t2=s.t2, x1=s.x1 + shift, x2=s.x2 + shift, lam=s.lam
    )
    consistent = wl.DiscreteAction(replace(cfg, x_i=cfg.x_i + shift))
    assert abs(consistent.value(shifted) - action.value(s)) <= 1e-12


def test_exchange_antisymmetry():
    rng = np.random.default_rng(12)
    cfg = wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=11)
    s = random_state(cfg, rng)
    plain = wl.StateVector(t1=s.t1, t2=s.t2, x1=s.x1, x2=s.x2, lam=np.zeros(8))
    swapped = wl.StateVector(t1=s.t2, t2=s.t1, x1=s.x2, x2=s.x1, lam=np.zeros(8))
    action = wl.DiscreteAction(cfg)
    assert action.value(swapped) == pytest.approx(-action.value(plain), abs=1e-13)


@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_large_grid_stores_only_linear_size_arrays(order):
    n = 4096
    cfg = wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=n, order=order)
    action = wl.DiscreteAction(cfg)
    s = wl.initial_guess(cfg)
    assert np.all(np.isfinite(action.gradient(s)))
    hess = action.hessian(s)
    assert np.all(np.isfinite(hess.ab))
    assert (hess.kl, hess.ku) == {"sbp21": (8, 2), "sbp42": (14, 6)}[order]
    # the largest are R H P's per-term arrays, about 41 n entries for sbp42,
    # and the 8 x 4n constraint Jacobian; an n x n operator would hold 4096 n
    held = [action, action.op, action.reg_t, action.reg_x]
    sizes = [a.size for obj in held for a in vars(obj).values() if isinstance(a, np.ndarray)]
    assert max(sizes) <= 64 * n
