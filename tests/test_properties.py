"""Property tests over random grids, spacings, potentials and states."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import worldline as wl
from worldline.action import metric_g00, metric_g00_prime, metric_g00_second
from worldline.sbp import MIN_POINTS
from worldline.solver import _lift
from conftest import (
    dense,
    doubled_gradient,
    doubled_value,
    multiplier_block,
    pack,
    physical_limit_indices,
    unpack,
)

families = st.sampled_from(sorted(MIN_POINTS))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(
    family=families,
    n_offset=st.integers(min_value=0, max_value=64 - MIN_POINTS["sbp42"]),
    dgamma=st.floats(min_value=1e-3, max_value=10.0),
    seed=seeds,
)
def test_summation_by_parts_identity(family, n_offset, dgamma, seed):
    n = MIN_POINTS[family] + n_offset
    op = wl.build_operator(family, n, dgamma)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    lhs = (u * op.h) @ (op.d @ v) + ((op.d @ u) * op.h) @ v
    assert abs(lhs - (u[-1] * v[-1] - u[0] * v[0])) <= 1e-12


potentials = st.one_of(
    st.just(wl.free_potential()),
    st.floats(min_value=-0.4, max_value=0.4).map(wl.linear_potential),
    st.floats(min_value=0.0, max_value=0.6).map(wl.quartic_potential),
)


@given(
    family=families,
    n_offset=st.integers(min_value=0, max_value=40 - MIN_POINTS["sbp42"]),
    potential=potentials,
    shift=st.floats(min_value=-2.0, max_value=2.0),
    seed=seeds,
)
def test_action_invariant_under_time_shift(family, n_offset, potential, shift, seed):
    # shifting every time coordinate together with t_i, which both the
    # regularized operator and the lam_1 constraint carry, is an exact
    # symmetry of the discrete action
    cfg = wl.ProblemConfig(
        potential=potential, n_gamma=MIN_POINTS[family] + n_offset, order=family
    )
    rng = np.random.default_rng(seed)
    z = pack(wl.initial_guess(cfg)) + 0.3 * rng.standard_normal(4 * cfg.n_gamma + 8)
    s = unpack(z, cfg.n_gamma)
    shifted = replace(s, t1=s.t1 + shift, t2=s.t2 + shift)
    e = doubled_value(wl.DiscreteAction(cfg), s)
    e_shifted = doubled_value(wl.DiscreteAction(replace(cfg, t_i=cfg.t_i + shift)), shifted)
    assert abs(e_shifted - e) <= 1e-12 * (1.0 + abs(e))


def dense_hessian(action, s):
    """The Hessian in pack order, written out block by block."""
    n, h, cfg = action.n, action.h, action.cfg
    dbar = action.reg_t.dbar
    m, shift = dbar[:n, :n], dbar[:n, n]
    hess = np.zeros((4 * n + 8, 4 * n + 8))
    branches = ((1.0, s.t1, s.x1, 0, 2 * n), (-1.0, s.t2, s.x2, n, 3 * n))
    for sign, t, x, t_off, x_off in branches:
        wt = m @ t + shift
        g00 = metric_g00(x, cfg)
        gp = metric_g00_prime(x, cfg)
        gpp = metric_g00_second(x, cfg)
        h_tx = sign * (m.T * (gp * h * wt))
        hess[t_off : t_off + n, t_off : t_off + n] = sign * ((m.T * (g00 * h)) @ m)
        hess[x_off : x_off + n, x_off : x_off + n] = sign * (
            np.diag(0.5 * gpp * h * wt * wt) - (m.T * h) @ m
        )
        hess[t_off : t_off + n, x_off : x_off + n] = h_tx
        hess[x_off : x_off + n, t_off : t_off + n] = h_tx.T
    jac = multiplier_block(action.op)
    hess[4 * n :, : 4 * n] = jac
    hess[: 4 * n, 4 * n :] = jac.T
    return hess


grids = families.flatmap(
    lambda f: st.tuples(st.just(f), st.integers(min_value=MIN_POINTS[f], max_value=64))
)


@given(
    grid=grids,
    dgamma=st.floats(min_value=1e-3, max_value=10.0),
    init_value=st.floats(min_value=-10.0, max_value=10.0),
    seed=seeds,
)
def test_stored_entries_match_the_dense_views(grid, dgamma, init_value, seed):
    family, n = grid
    op = wl.build_operator(family, n, dgamma)
    reg = wl.regularize(op, init_value)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    u1 = np.append(u, 1.0)
    d, dbar = op.d, reg.dbar
    m = dbar[:n, :n]
    # one operator type: regularize changes the values and the shift only
    assert isinstance(reg, wl.SbpOperator)
    assert reg.rows is op.rows and reg.cols is op.cols and reg.h is op.h
    # a classical operator has no shift, and the last row of its dbar is e_n
    op_bar = op.dbar
    assert np.all(op_bar[:n, n] == 0.0)
    assert np.array_equal(op_bar[n], np.eye(1, n + 1, n)[0])

    # each product sums a few terms; compare against the size of those terms
    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    close(op.apply(u), d @ u, np.abs(d) @ np.abs(u))
    close(op.apply(u), (op_bar @ u1)[:-1], (np.abs(op_bar) @ np.abs(u1))[:-1])
    close(op.apply_t(v), d.T @ v, np.abs(d.T) @ np.abs(v))
    close(reg.apply(u), (dbar @ u1)[:-1], (np.abs(dbar) @ np.abs(u1))[:-1])
    close(reg.apply_t(v), m.T @ v, np.abs(m.T) @ np.abs(v))


@given(grid=grids, potential=potentials, seed=seeds)
def test_banded_hessian_matches_dense_reference(grid, potential, seed):
    family, n = grid
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=family)
    action = wl.DiscreteAction(cfg)
    rng = np.random.default_rng(seed)
    z = pack(wl.initial_guess(cfg)) + 0.3 * rng.standard_normal(4 * n + 8)
    s = unpack(z, n)
    hess = action.hessian(s.t1, s.x1)
    assert (hess.kl, hess.ku) == {"sbp21": (8, 2), "sbp42": (14, 6)}[family]

    # R H P: rows lam_1..lam_4, t1, x1; columns t1 = t2, x1 = x2, lam_5..lam_8
    rows, cols = physical_limit_indices(n)
    full = dense(hess)
    reference = dense_hessian(action, s)[rows][:, cols]
    assert np.all(np.abs(full - reference) <= 1e-12 * (1.0 + np.abs(reference)))

    grad = doubled_gradient(action, s)
    step = pack(_lift(hess.solve(grad[rows])))
    assert np.array_equal(step[n : 2 * n], step[:n])
    assert np.array_equal(step[3 * n : 4 * n], step[2 * n : 3 * n])
    assert np.all(step[4 * n : 4 * n + 4] == 0)
    y = step[cols]
    residual = np.max(np.abs(full @ y + grad[rows]))
    scale = np.max(np.sum(np.abs(full), axis=1)) * np.max(np.abs(y))
    assert residual <= 1e-14 * (scale + np.max(np.abs(grad[rows])))
    # Two backward-stable solves agree to about eps * cond; a random state
    # can be nearly singular (1 in 1500 seeded draws had cond 2.5e9), and
    # there only the residual check above is meaningful.
    expected = np.linalg.solve(full, -grad[rows])
    if np.linalg.norm(y - expected) > 1e-10 * np.linalg.norm(expected):
        assert np.linalg.cond(full) > 1e8


@given(grid=grids, potential=potentials, seed=seeds)
def test_half_size_step_solves_the_doubled_system_at_the_limit(grid, potential, seed):
    # on the physical limit branch 2's gradient rows are -(branch 1's) and
    # the connecting residuals vanish, so the lifted half-size Newton step
    # is the doubled Newton step
    family, n = grid
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=family)
    action = wl.DiscreteAction(cfg)
    rng = np.random.default_rng(seed)
    z = pack(wl.initial_guess(cfg)) + 0.3 * rng.standard_normal(4 * n + 8)
    s = unpack(z, n)
    s = replace(s, t2=s.t1, x2=s.x1, lam=np.append(np.zeros(4), s.lam[4:]))
    grad = doubled_gradient(action, s)
    assert np.array_equal(grad[n : 2 * n], -grad[:n])
    assert np.array_equal(grad[3 * n : 4 * n], -grad[2 * n : 3 * n])
    assert np.all(grad[-4:] == 0)

    full = dense_hessian(action, s)
    rows, _ = physical_limit_indices(n)
    step = pack(_lift(action.hessian(s.t1, s.x1).solve(grad[rows])))
    residual = np.max(np.abs(full @ step + grad))
    scale = np.max(np.sum(np.abs(full), axis=1)) * np.max(np.abs(step))
    assert residual <= 1e-14 * (scale + np.max(np.abs(grad)))


@given(grid=grids, potential=potentials, seed=seeds)
def test_residual_is_the_restricted_gradient_at_the_lift(grid, potential, seed):
    # the Newton search evaluates only this branch-1 kernel; at a lifted
    # state it must be R grad E, and carry the doubled gradient's norm
    family, n = grid
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=family)
    action = wl.DiscreteAction(cfg)
    rng = np.random.default_rng(seed)
    guess = wl.initial_guess(cfg)
    y = np.empty(2 * n + 4)
    y[:-4:2] = guess.t1 + 0.3 * rng.standard_normal(n)
    y[1:-4:2] = guess.x1 + 0.3 * rng.standard_normal(n)
    y[-4:] = rng.standard_normal(4)
    s = _lift(y)

    r = action.gradient(s.t1, s.x1, s.lam)
    grad = doubled_gradient(action, s)
    want = grad[physical_limit_indices(n)[0]]

    # each row sums a few terms; compare against the size of those terms
    m = np.abs(action.reg_t.dbar[:n, :n])  # |M|, the same for t and x
    wt = m @ np.abs(s.t1) + np.abs(action.reg_t.shift0) * (np.arange(n) == 0)
    wx = m @ np.abs(s.x1) + np.abs(action.reg_x.shift0) * (np.arange(n) == 0)
    jac = np.abs(multiplier_block(action.op).reshape(8, 4, n)[:, ::2])
    lam = np.abs(s.lam)
    scale = np.empty(2 * n + 4)
    scale[:4] = [
        abs(s.t1[0]) + abs(cfg.t_i),
        jac[1, 0] @ np.abs(s.t1) + abs(cfg.tdot_i),
        abs(s.x1[0]) + abs(cfg.x_i),
        jac[3, 1] @ np.abs(s.x1) + abs(cfg.xdot_i),
    ]
    g00 = np.abs(metric_g00(s.x1, cfg))
    gp = np.abs(metric_g00_prime(s.x1, cfg))
    scale[4::2] = m.T @ (g00 * action.h * wt) + lam @ jac[:, 0]
    scale[5::2] = 0.5 * gp * action.h * wt * wt + m.T @ (action.h * wx) + lam @ jac[:, 1]
    assert np.all(np.abs(r - want) <= 1e-14 * scale)

    norm2 = r[:4] @ r[:4] + 2.0 * (r[4:] @ r[4:])
    assert abs(grad @ grad - norm2) <= 1e-14 * norm2
