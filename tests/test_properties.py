"""Property tests over random grids, spacings, potentials and states."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import worldline as wl
from worldline.action import metric_g00, metric_g00_prime, metric_g00_second
from worldline.sbp import MIN_POINTS
from worldline.solver import _newton_step
from conftest import physical_limit_indices

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
    z = wl.initial_guess(cfg).pack() + 0.3 * rng.standard_normal(4 * cfg.n_gamma + 8)
    s = wl.StateVector.unpack(z, cfg.n_gamma)
    shifted = replace(s, t1=s.t1 + shift, t2=s.t2 + shift)
    e = wl.DiscreteAction(cfg).value(s)
    e_shifted = wl.DiscreteAction(replace(cfg, t_i=cfg.t_i + shift)).value(shifted)
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
    jac = action.constraint_jacobian()
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

    # each product sums a few terms; compare against the size of those terms
    def close(got, want, scale):
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    close(op.apply(u), d @ u, np.abs(d) @ np.abs(u))
    close(op.apply_t(v), d.T @ v, np.abs(d.T) @ np.abs(v))
    close(reg.apply(u), (dbar @ u1)[:-1], (np.abs(dbar) @ np.abs(u1))[:-1])
    close(reg.apply_t(v), m.T @ v, np.abs(m.T) @ np.abs(v))


@given(
    grid=grids,
    potential=potentials,
    mu=st.sampled_from([1e-8, 1e-4, 1.0]),
    seed=seeds,
)
def test_banded_hessian_matches_dense_reference(grid, potential, mu, seed):
    family, n = grid
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=family)
    action = wl.DiscreteAction(cfg)
    rng = np.random.default_rng(seed)
    z = wl.initial_guess(cfg).pack() + 0.3 * rng.standard_normal(4 * n + 8)
    s = wl.StateVector.unpack(z, n)
    hess = action.hessian(s)
    assert (hess.kl, hess.ku) == {"sbp21": (8, 2), "sbp42": (14, 6)}[family]

    # R H P: rows lam_1..lam_4, t1, x1; columns t1 = t2, x1 = x2, lam_5..lam_8
    rows, cols = physical_limit_indices(n)
    dense = np.asarray(hess)
    reference = dense_hessian(action, s)[rows][:, cols]
    assert np.all(np.abs(dense - reference) <= 1e-12 * (1.0 + np.abs(reference)))

    grad = action.gradient(s)
    step = _newton_step(hess, grad, mu)
    assert np.array_equal(step[n : 2 * n], step[:n])
    assert np.array_equal(step[3 * n : 4 * n], step[2 * n : 3 * n])
    assert np.all(step[4 * n : 4 * n + 4] == 0)
    y = step[cols]
    damped = dense + mu * np.eye(2 * n + 4)
    residual = np.max(np.abs(damped @ y + grad[rows]))
    scale = np.max(np.sum(np.abs(damped), axis=1)) * np.max(np.abs(y))
    assert residual <= 1e-14 * (scale + np.max(np.abs(grad[rows])))
    # Two backward-stable solves agree to about eps * cond; a random state
    # can be nearly singular (1 in 1500 seeded draws had cond 2.5e9), and
    # there only the residual check above is meaningful.
    expected = np.linalg.solve(damped, -grad[rows])
    if np.linalg.norm(y - expected) > 1e-10 * np.linalg.norm(expected):
        assert np.linalg.cond(damped) > 1e8


@given(grid=grids, potential=potentials, seed=seeds)
def test_half_size_step_solves_the_doubled_system_at_the_limit(grid, potential, seed):
    # on the physical limit branch 2's gradient rows are -(branch 1's) and
    # the connecting residuals vanish, so the lifted half-size Newton step
    # is the doubled Newton step
    family, n = grid
    cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=family)
    action = wl.DiscreteAction(cfg)
    rng = np.random.default_rng(seed)
    z = wl.initial_guess(cfg).pack() + 0.3 * rng.standard_normal(4 * n + 8)
    s = wl.StateVector.unpack(z, n)
    s = replace(s, t2=s.t1, x2=s.x1, lam=np.append(np.zeros(4), s.lam[4:]))
    grad = action.gradient(s)
    assert np.array_equal(grad[n : 2 * n], -grad[:n])
    assert np.array_equal(grad[3 * n : 4 * n], -grad[2 * n : 3 * n])
    assert np.all(grad[-4:] == 0)

    dense = dense_hessian(action, s)
    step = _newton_step(action.hessian(s), grad, 0.0)
    residual = np.max(np.abs(dense @ step + grad))
    scale = np.max(np.sum(np.abs(dense), axis=1)) * np.max(np.abs(step))
    assert residual <= 1e-14 * (scale + np.max(np.abs(grad)))
