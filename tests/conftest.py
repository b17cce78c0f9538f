"""Shared fixtures and finite-difference oracles for the test suite."""

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
            action.value(wl.StateVector.unpack(zp, n))
            - action.value(wl.StateVector.unpack(zm, n))
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
            action.gradient(wl.StateVector.unpack(zp, n))
            - action.gradient(wl.StateVector.unpack(zm, n))
        ) / (2.0 * h)
    return out


def scaled_max_err(a, b):
    """Worst entrywise |a - b| / (1 + |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


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
