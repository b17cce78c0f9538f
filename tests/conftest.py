"""Shared fixtures and finite-difference oracles for the test suite."""

from dataclasses import dataclass

import numpy as np
import pytest

import worldline as wl

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself without it
    pass
else:
    # deterministic draws and no example database on disk
    settings.register_profile(
        "worldline", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("worldline")


# the straight-line guess lies so far outside Newton's basin that the first
# line search finds no step length that lowers the merit; from the default
# geodesic seed Newton converges (in 10 iterations), so the stall tests
# start from the straight line
STALLING_CONFIG = {
    "potential": {"type": "quartic", "kappa": 0.4},
    "order": "sbp21",
    "n_gamma": 16,
    "tdot_i": 4.0,
    "xdot_i": -3.0,
    "x_i": 0.0,
    "gamma_f": 2.0,
}


# The doubled action, the test-side reference: the program holds only the
# physical limit (``wl.State``) and evaluates only branch 1 there
# (``DiscreteAction.gradient`` and ``hessian``).  A doubled state packs to
# the flat vector (t1, t2, x1, x2, lam) of length 4n + 8.


@dataclass(frozen=True)
class StateVector:
    """A doubled state: four coordinate vectors of length n plus eight multipliers."""

    t1: np.ndarray
    t2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("t1", "t2", "x1", "x2", "lam"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.t1.shape
        if not (self.t2.shape == self.x1.shape == self.x2.shape == n):
            raise ValueError("coordinate vectors must share one length")
        if self.lam.shape != (8,):
            raise ValueError("exactly eight Lagrange multipliers are required")

    @property
    def n(self) -> int:
        return self.t1.shape[0]


def lift(s):
    """The doubled state t2 = t1, x2 = x1, lam_1..lam_4 = 0 of a ``wl.State``.

    ``s`` may also be Newton's flat unknowns ((t, x) point by point, lam_5..lam_8).
    """
    if not isinstance(s, wl.State):
        s = wl.State(s[:-4:2], s[1:-4:2], s[-4:])
    return StateVector(
        t1=s.t, t2=s.t.copy(), x1=s.x, x2=s.x.copy(), lam=np.append(np.zeros(4), s.lam)
    )


def pack(s):
    """The flat vector of the state ``s``, in pack order."""
    return np.concatenate([s.t1, s.t2, s.x1, s.x2, s.lam])


def unpack(z, n):
    """The state of the flat vector ``z`` on an n-point grid."""
    z = np.asarray(z, dtype=float)
    if z.shape != (4 * n + 8,):
        raise ValueError(f"expected a packed vector of length {4 * n + 8}")
    return StateVector(
        t1=z[:n], t2=z[n : 2 * n], x1=z[2 * n : 3 * n], x2=z[3 * n : 4 * n], lam=z[4 * n :]
    )


def constraints(action, s):
    """The eight multiplier residuals, in order lam_1..lam_8."""
    cfg = action.cfg
    # rows 0 and n-1 of D; each residual takes its own dot products, so
    # (D t1)[-1] - (D t2)[-1] rounds as a difference of two end values
    d_first, d_last = action._jac1[1, ::2], action._jac1[6, ::2]
    return np.array(
        [
            s.t1[0] - cfg.t_i,
            d_first @ s.t1 - cfg.tdot_i,
            s.x1[0] - cfg.x_i,
            d_first @ s.x1 - cfg.xdot_i,
            s.t1[-1] - s.t2[-1],
            s.x1[-1] - s.x2[-1],
            d_last @ s.t1 - d_last @ s.t2,
            d_last @ s.x1 - d_last @ s.x2,
        ]
    )


def doubled_value(action, s):
    """The doubled action E at the state ``s``."""
    total = 0.0
    for sign, t, x in ((1.0, s.t1, s.x1), (-1.0, s.t2, s.x2)):
        wt = action.reg_t.apply(t)
        wx = action.reg_x.apply(x)
        g00 = wl.metric_g00(x, action.cfg)
        total += 0.5 * sign * (np.dot(g00 * action.h, wt * wt) - np.dot(action.h, wx * wx))
    return float(total + np.dot(s.lam, constraints(action, s)))


def doubled_gradient(action, s):
    """grad E in pack order.

    Each branch's coordinate rows are ``gradient`` with lam_5..lam_8, branch
    2's with sign -1; branch 1 adds the lam_1..lam_4 terms, from the dense
    ``multiplier_block``.
    """
    r1 = action.gradient(s.t1, s.x1, s.lam[4:])
    r2 = -action.gradient(s.t2, s.x2, s.lam[4:])
    coord = np.concatenate([r1[4::2], r2[4::2], r1[5::2], r2[5::2]])
    coord += s.lam[:4] @ multiplier_block(action.op)[:4]
    return np.concatenate([coord, constraints(action, s)])


def dense(band):
    """The dense (2n + 4) x (2n + 4) matrix of a ``BandedHessian``."""
    r, j = np.nonzero(band.ab[band.kl :])
    size = band.ab.shape[1]
    out = np.zeros((size, size))
    out[j + r - band.ku, j] = band.ab[band.kl + r, j]
    return out


def fd_gradient(action, z, n):
    """Central-difference gradient of the action value."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for k in range(z.size):
        h = 1e-6 * (1.0 + abs(z[k]))
        zp = z.copy()
        zp[k] += h
        zm = z.copy()
        zm[k] -= h
        out[k] = (
            doubled_value(action, unpack(zp, n)) - doubled_value(action, unpack(zm, n))
        ) / (2.0 * h)
    return out


def fd_hessian(action, z, n):
    """Central-difference Jacobian of the analytic gradient."""
    z = np.asarray(z, dtype=float)
    out = np.zeros((z.size, z.size))
    for k in range(z.size):
        h = 1e-6 * (1.0 + abs(z[k]))
        zp = z.copy()
        zp[k] += h
        zm = z.copy()
        zm[k] -= h
        out[:, k] = (
            doubled_gradient(action, unpack(zp, n)) - doubled_gradient(action, unpack(zm, n))
        ) / (2.0 * h)
    return out


def physical_limit_indices(n):
    """Pack indices of R's rows and of P's columns.

    Rows are lam_1..lam_4, then (t1, x1) point by point; columns are
    (t1, x1) point by point, then lam_5..lam_8.
    """
    points = np.column_stack([np.arange(n), 2 * n + np.arange(n)]).ravel()
    return np.r_[4 * n : 4 * n + 4, points], np.r_[points, 4 * n + 4 : 4 * n + 8]


def multiplier_block(op):
    """The 8 x 4n Jacobian of the constraints, in pack order, from the dense D.

    Row k is the gradient of lam_k+1's residual over (t1, t2, x1, x2):
    t1[0], (D t1)[0], x1[0], (D x1)[0], then t1[-1] - t2[-1],
    x1[-1] - x2[-1], (D t1)[-1] - (D t2)[-1] and (D x1)[-1] - (D x2)[-1].
    """
    n, d = op.n, op.d
    jac = np.zeros((8, 4, n))  # constraint, coordinate block, grid point
    jac[0, 0, 0] = jac[2, 2, 0] = jac[4, 0, -1] = jac[5, 2, -1] = 1.0
    jac[4, 1, -1] = jac[5, 3, -1] = -1.0
    jac[1, 0] = jac[3, 2] = d[0]
    jac[6, 0] = jac[7, 2] = d[-1]
    jac[6, 1] = jac[7, 3] = -d[-1]
    return jac.reshape(8, 4 * n)


def doubled_hessian(action, s):
    """The doubled (4n + 8)^2 Hessian in pack order, from program output.

    Branch 1 and the multiplier entries R H P holds come from
    ``hessian(s.t1, s.x1)``; branch 2 is -(the coordinate block of
    ``hessian(s.t2, s.x2)``), since branch 2 enters the action with opposite
    sign; the other multiplier blocks are ``multiplier_block(action.op)``.
    """
    n = s.n
    rows, cols = physical_limit_indices(n)
    jac = multiplier_block(action.op)
    out = np.zeros((4 * n + 8, 4 * n + 8))
    out[4 * n :, : 4 * n] = jac
    out[: 4 * n, 4 * n :] = jac.T
    out[np.ix_(rows, cols)] = dense(action.hessian(s.t1, s.x1))
    branch2 = cols[:-4] + n  # (t2, x2) point by point
    out[np.ix_(branch2, branch2)] = -dense(action.hessian(s.t2, s.x2))[4:, :-4]
    return out


def scaled_max_err(a, b):
    """Worst entrywise |a - b| / (1 + |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


@pytest.fixture(autouse=True)
def empty_pattern_cache():
    """Start each test with no cached R H P pattern, whatever ran before it."""
    wl.action._PATTERNS.clear()


@pytest.fixture(scope="session")
def linear_cfg():
    """The constant-force setup: alpha = 1/4, unit initial data."""
    return wl.ProblemConfig(potential=wl.linear_potential(0.25), n_gamma=32)


@pytest.fixture(scope="session")
def quartic_cfg():
    """The anharmonic setup: kappa = 1/2."""
    return wl.ProblemConfig(potential=wl.quartic_potential(0.5), n_gamma=32)


@pytest.fixture(scope="session")
def free_cfg():
    return wl.ProblemConfig(potential=wl.free_potential(), n_gamma=32)


@pytest.fixture(scope="session")
def linear_solution(linear_cfg):
    return wl.solve(linear_cfg)


@pytest.fixture(scope="session")
def quartic_solution(quartic_cfg):
    return wl.solve(quartic_cfg)


@pytest.fixture(scope="session")
def free_solution(free_cfg):
    return wl.solve(free_cfg)
