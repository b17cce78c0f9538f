"""Conserved-charge and residual diagnostics for solved trajectories.

Everything here is evaluated with the classical (unregularized) SBP
operator: the conserved quantity of time translations

    Q_t = (D t) o g00(x)        (o = elementwise product)

its deviation from the continuum value fixed by the initial data, the
residuals of the naively discretized geodesic equations, the emergent
time-mesh velocity D t, the positive-definite energy-like profile whose
quadrature total obeys a linear-in-time bound, and error norms against a
reference trajectory.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .action import ProblemConfig, StateVector, metric_g00, metric_g00_prime
from .sbp import SbpOperator

__all__ = [
    "NotFreePotential",
    "PhysicalLimitViolation",
    "HBvpDiagnostic",
    "ErrorNorms",
    "DiagnosticsReport",
    "noether_charge_t",
    "charge_deviation",
    "geodesic_residuals",
    "free_case_charges",
    "h_bvp_profile",
    "error_norms",
    "diagnose",
    "interior_slice",
]

# Endpoints are excluded from "interior": zero-based indices 1 .. n-2.
interior_slice = slice(1, -1)


class NotFreePotential(ValueError):
    """A free-particle-only charge was requested with a potential present."""


class PhysicalLimitViolation(RuntimeError):
    """The two branches of a supposedly converged state do not coincide."""


@dataclass(frozen=True)
class _Trajectory:
    """A trajectory with its operator, D t, D x and g00(x), each computed once."""

    cfg: ProblemConfig
    op: SbpOperator
    t: np.ndarray
    x: np.ndarray
    dt: np.ndarray
    dx: np.ndarray
    g00: np.ndarray

    @classmethod
    def of(cls, t, x, cfg: ProblemConfig) -> "_Trajectory":
        op = cfg.build_operator()
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return cls(cfg, op, t, x, op.apply(t), op.apply(x), metric_g00(x, cfg))

    def charge(self) -> np.ndarray:
        return self.dt * self.g00

    def geodesic_residuals(self):
        dg_t = self.op.apply(self.g00 * self.dt)
        gp = metric_g00_prime(self.x, self.cfg)
        dg_x = self.op.apply(self.dx) + 0.5 * gp * self.dt * self.dt
        return dg_t, dg_x

    def free_case_charges(self):
        return -self.dx, self.cfg.c ** 2 * self.x * self.dt - self.t * self.dx

    def h_bvp(self) -> HBvpDiagnostic:
        profile = 0.5 * (self.g00 * self.dt * self.dt + self.dx * self.dx)
        total = float(self.op.h @ profile)
        span = float(self.t[-1] - self.t[0])
        bound = float(metric_g00(self.cfg.x_i, self.cfg)) * self.cfg.tdot_i * span
        return HBvpDiagnostic(profile=profile, total=total, bound=bound)


def noether_charge_t(t, x, cfg: ProblemConfig) -> np.ndarray:
    """Time-translation charge profile (D t) o g00(x)."""
    return _Trajectory.of(t, x, cfg).charge()


def continuum_charge_t(cfg: ProblemConfig) -> float:
    """The continuum value of the charge, fixed by the initial data."""
    return cfg.tdot_i * float(metric_g00(cfg.x_i, cfg))


def charge_deviation(t, x, cfg: ProblemConfig) -> np.ndarray:
    """Deviation of the charge profile from its continuum value.

    The first entry vanishes by construction whenever the initial
    conditions are met, since there the charge is defined by them.
    """
    return noether_charge_t(t, x, cfg) - continuum_charge_t(cfg)


def geodesic_residuals(t, x, cfg: ProblemConfig):
    """Residuals of the naively discretized geodesic equations.

    Returns (dg_t, dg_x) with

        dg_t = D (g00(x) o (D t))
        dg_x = D D x + (g00'(x)/2) o (D t) o (D t).

    Both vanish in the continuum; discretely they stay at solver level
    everywhere except the last two grid points.
    """
    return _Trajectory.of(t, x, cfg).geodesic_residuals()


def free_case_charges(t, x, cfg: ProblemConfig):
    """Space-translation and boost charges, defined for V = 0 only.

    Returns (q_x, q_boost) with q_x = -(D x) and
    q_boost = c^2 x o (D t) - t o (D x).
    """
    if not cfg.potential.is_free:
        raise NotFreePotential(
            "space-translation and boost charges exist only for V = 0"
        )
    return _Trajectory.of(t, x, cfg).free_case_charges()


@dataclass(frozen=True)
class HBvpDiagnostic:
    """Positive-definite energy-like profile and its growth bound."""

    profile: np.ndarray
    total: float
    bound: float


def h_bvp_profile(t, x, cfg: ProblemConfig) -> HBvpDiagnostic:
    """Profile 1/2 (g00 o (D t)^2 + (D x)^2) with quadrature total and bound.

    The total is bounded by g00(x_i) * tdot_i * (t[-1] - t[0]): the norm of
    the solution derivatives grows at most linearly with simulated time.
    """
    return _Trajectory.of(t, x, cfg).h_bvp()


@dataclass(frozen=True)
class ErrorNorms:
    """Endpoint and quadrature-weighted L2 errors against a reference."""

    eps_final_x: float
    eps_final_t: float
    eps_l2_x: float
    eps_l2_t: float


def error_norms(t, x, t_ref, x_ref, h: np.ndarray) -> ErrorNorms:
    """Absolute endpoint errors and L2 norms weighted by the quadrature ``h``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t_ref = np.asarray(t_ref, dtype=float)
    x_ref = np.asarray(x_ref, dtype=float)
    h = np.asarray(h, dtype=float)
    if not (t.shape == x.shape == t_ref.shape == x_ref.shape == h.shape):
        raise ValueError("trajectory, reference, and quadrature sizes disagree")
    et = t - t_ref
    ex = x - x_ref
    return ErrorNorms(
        eps_final_x=float(abs(ex[-1])),
        eps_final_t=float(abs(et[-1])),
        eps_l2_x=float(np.sqrt((ex * h) @ ex)),
        eps_l2_t=float(np.sqrt((et * h) @ et)),
    )


_CSV_COLUMNS = (
    "gamma",
    "t",
    "x",
    "dt_dgamma",
    "q_t",
    "delta_e",
    "delta_g_t",
    "delta_g_x",
    "h_bvp",
)


# The float format and CSV dialect of every file worldline writes.
def _fmt(value: float) -> str:
    # shortest round-trip decimal keeps output byte-deterministic
    return repr(float(value))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class DiagnosticsReport:
    """Every per-point diagnostic of a solved trajectory plus error scalars."""

    gamma: np.ndarray
    t: np.ndarray
    x: np.ndarray
    q_t: np.ndarray
    delta_e: np.ndarray
    delta_g_t: np.ndarray
    delta_g_x: np.ndarray
    time_mesh_velocity: np.ndarray
    h_bvp: np.ndarray
    h_bvp_total: float
    h_bvp_bound: float
    q_x: np.ndarray | None = None
    q_boost: np.ndarray | None = None
    eps_final_x: float | None = None
    eps_final_t: float | None = None
    eps_l2_x: float | None = None
    eps_l2_t: float | None = None

    @property
    def n(self) -> int:
        return self.gamma.shape[0]

    @property
    def max_interior_delta_e(self) -> float:
        return float(np.max(np.abs(self.delta_e[interior_slice])))

    @property
    def delta_e_end(self) -> float:
        return float(abs(self.delta_e[-1]))

    def write_csv(self, f) -> None:
        """One row per gamma index; columns as in ``_CSV_COLUMNS``."""
        rows = zip(
            self.gamma,
            self.t,
            self.x,
            self.time_mesh_velocity,
            self.q_t,
            self.delta_e,
            self.delta_g_t,
            self.delta_g_x,
            self.h_bvp,
        )
        f.write(_csv_text(_CSV_COLUMNS, ([_fmt(v) for v in row] for row in rows)))

    def summary_dict(self) -> dict:
        return {
            "max_interior_delta_e": self.max_interior_delta_e,
            "delta_e_end": self.delta_e_end,
            "eps_final_x": self.eps_final_x,
            "eps_final_t": self.eps_final_t,
            "eps_l2_x": self.eps_l2_x,
            "eps_l2_t": self.eps_l2_t,
            "h_bvp_total": self.h_bvp_total,
            "h_bvp_bound": self.h_bvp_bound,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary_dict(), sort_keys=True)


def diagnose(
    state: StateVector,
    cfg: ProblemConfig,
    reference: Sequence[np.ndarray] | None = None,
    *,
    limit_tol: float = 1e-9,
) -> DiagnosticsReport:
    """Assemble the full report from a solved state.

    The two branches must agree to ``limit_tol`` (the physical limit);
    all profiles are then computed from branch 1.  ``reference``, when
    given, is a pair (t_ref, x_ref) sampled on the same gamma grid, or any
    object with callables ``t`` and ``x``.
    """
    gap_t = float(np.max(np.abs(state.t1 - state.t2)))
    gap_x = float(np.max(np.abs(state.x1 - state.x2)))
    if max(gap_t, gap_x) > limit_tol:
        raise PhysicalLimitViolation(
            f"branches differ by {max(gap_t, gap_x):.3e} (tolerance {limit_tol:.1e})"
        )

    t, x = state.t1, state.x1
    tr = _Trajectory.of(t, x, cfg)
    dg_t, dg_x = tr.geodesic_residuals()
    hb = tr.h_bvp()
    q_t = tr.charge()

    q_x = q_boost = None
    if cfg.potential.is_free:
        q_x, q_boost = tr.free_case_charges()

    eps = {}
    if reference is not None:
        if hasattr(reference, "t") and callable(reference.t):
            t_ref = reference.t(cfg.gamma_grid)
            x_ref = reference.x(cfg.gamma_grid)
        else:
            t_ref, x_ref = reference
        err = error_norms(t, x, t_ref, x_ref, tr.op.h)
        eps = {
            "eps_final_x": err.eps_final_x,
            "eps_final_t": err.eps_final_t,
            "eps_l2_x": err.eps_l2_x,
            "eps_l2_t": err.eps_l2_t,
        }

    return DiagnosticsReport(
        gamma=cfg.gamma_grid,
        t=t.copy(),
        x=x.copy(),
        q_t=q_t,
        delta_e=q_t - continuum_charge_t(cfg),
        delta_g_t=dg_t,
        delta_g_x=dg_x,
        time_mesh_velocity=tr.dt,
        h_bvp=hb.profile,
        h_bvp_total=hb.total,
        h_bvp_bound=hb.bound,
        q_x=q_x,
        q_boost=q_boost,
        **eps,
    )
