"""Property tests over random grids, spacings, potentials and states."""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

import worldline as wl
from worldline.sbp import MIN_POINTS

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
