"""Conserved-charge and residual diagnostics for solved trajectories.

``diagnose`` evaluates everything with the classical (unregularized) SBP
operator: the conserved quantity of time translations

    Q_t = (D t) o g00(x)        (o = elementwise product)

its deviation from the continuum value fixed by the initial data, the
residuals of the naively discretized geodesic equations, the emergent
time-mesh velocity D t, the positive-definite energy-like profile whose
quadrature total obeys a linear-in-time bound, and error norms against a
reference trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .action import ProblemConfig, State, metric_g00, metric_g00_prime

__all__ = [
    "PhysicalLimitViolation",
    "DiagnosticsReport",
    "diagnose",
    "interior_slice",
]

# Endpoints are excluded from "interior": zero-based indices 1 .. n-2.
interior_slice = slice(1, -1)


class PhysicalLimitViolation(RuntimeError):
    """Never raised: a ``State`` holds one branch, so no branches can split.

    Its only reader is the benchmark's ``Workload.expected`` in
    ``perfbench/workloads.py``; ROADMAP item 14 removes it.
    """


def continuum_charge_t(cfg: ProblemConfig) -> float:
    """The continuum value of the charge, fixed by the initial data."""
    # g00(x_i) as an array takes numpy's power loop, as the profile g00(x) does
    return cfg.tdot_i * float(metric_g00(np.asarray(cfg.x_i, dtype=float), cfg))


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
    def max_interior_delta_e(self) -> float:
        return float(np.max(np.abs(self.delta_e[interior_slice])))

    @property
    def delta_e_end(self) -> float:
        return float(abs(self.delta_e[-1]))


def diagnose(
    state: State,
    cfg: ProblemConfig,
    reference: Sequence[np.ndarray] | None = None,
) -> DiagnosticsReport:
    """Assemble the full report from a solved state.

    The trajectory must have ``cfg.n_gamma`` points.
    ``delta_g_t`` = D (g00 o (D t)) and ``delta_g_x`` = D D x + (g00'/2) o
    (D t)^2 are the naive geodesic residuals, and ``h_bvp_total`` is bounded
    by ``h_bvp_bound`` = g00(x_i) tdot_i (t[-1] - t[0]).  The charges
    ``q_x`` = -(D x) and ``q_boost`` = c^2 x o (D t) - t o (D x) are ``None``
    unless V = 0, and the ``eps_*`` error norms are ``None`` without a
    ``reference``: a pair (t_ref, x_ref) on the same gamma grid, or any
    object with callables ``t`` and ``x``.
    """
    t, x = state.t, state.x
    if not t.shape == x.shape == (cfg.n_gamma,):
        raise ValueError(
            f"trajectory has {t.shape} and {x.shape} points but the grid has {cfg.n_gamma}"
        )
    op = cfg.build_operator()
    dt, dx, g00 = op.apply(t), op.apply(x), metric_g00(x, cfg)
    q_t = dt * g00
    q0 = continuum_charge_t(cfg)
    h_bvp = 0.5 * (q_t * dt + dx * dx)

    q_x = q_boost = None
    if cfg.potential.is_free:
        q_x, q_boost = -dx, cfg.c ** 2 * x * dt - t * dx

    eps = {}
    if reference is not None:
        if hasattr(reference, "t") and callable(reference.t):
            t_ref = reference.t(cfg.gamma_grid)
            x_ref = reference.x(cfg.gamma_grid)
        else:
            t_ref, x_ref = reference
        t_ref, x_ref = (np.asarray(u, dtype=float) for u in (t_ref, x_ref))
        if not t_ref.shape == x_ref.shape == t.shape:
            raise ValueError(
                f"reference has {t_ref.shape} and {x_ref.shape} points "
                f"but the grid has {cfg.n_gamma}"
            )
        et, ex = t - t_ref, x - x_ref
        eps = dict(
            eps_final_x=float(abs(ex[-1])),
            eps_final_t=float(abs(et[-1])),
            eps_l2_x=float(np.sqrt((ex * op.h) @ ex)),
            eps_l2_t=float(np.sqrt((et * op.h) @ et)),
        )

    return DiagnosticsReport(
        gamma=cfg.gamma_grid,
        t=t.copy(),
        x=x.copy(),
        q_t=q_t,
        delta_e=q_t - q0,
        delta_g_t=op.apply(q_t),
        delta_g_x=op.apply(dx) + 0.5 * metric_g00_prime(x, cfg) * dt * dt,
        time_mesh_velocity=dt,
        h_bvp=h_bvp,
        h_bvp_total=float(op.h @ h_bvp),
        h_bvp_bound=q0 * float(t[-1] - t[0]),
        q_x=q_x,
        q_boost=q_boost,
        **eps,
    )
