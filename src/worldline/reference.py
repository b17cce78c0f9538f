"""Independent high-accuracy oracles and grid-refinement studies.

Two separately derived formulations are integrated with an adaptive
Dormand-Prince pair at tolerances far below the discretization error of
the variational scheme:

* the geodesic system in the world-line parameter,
      d/dgamma (g00 tdot) = 0,    xddot + (g00'(x)/2) tdot^2 = 0,
* the conventional second-order equation of motion in physical time,
      d2x/dt2 = -(V'(x)/m) (1 - (dx/dt)^2 / c^2)^(3/2).

Agreement between the two after reparametrization validates the oracle
itself.  Both run scipy's DOP853 with no step cap, so the tolerance alone
sets the step count, and read positions from its 7th-order dense output
(Hairer, Norsett & Wanner, Solving ODEs I, section II.10).  The per-step
interpolants are stacked into arrays once and evaluated in one vectorised
pass that reproduces scipy's values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .action import ProblemConfig, geodesic_rhs
from .diagnostics import diagnose
from .solver import SolveOptions, Solution, StepFailure, solve

__all__ = [
    "StiffnessSuspected",
    "SuperluminalVelocity",
    "ReferenceTrajectory",
    "PhysicalTrajectory",
    "ConvergenceRow",
    "ConvergenceTable",
    "solve_geodesic_ode",
    "solve_physical_eom",
    "convergence_study",
    "scaled_tdot_study",
]

# scipy refuses relative tolerances below ~100 machine epsilons
_RTOL_FLOOR = 2.5e-14
_STUDY_TOL = 1e-14  # the studies' oracle tolerance, the tightest _check_tol accepts


class StiffnessSuspected(StepFailure):
    """Step size collapsed below the spacing of representable numbers."""


class SuperluminalVelocity(RuntimeError):
    """|dx/dt| approached c during physical-time integration."""


def _check_tol(tol: float) -> None:
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"oracle tolerance must lie in [1e-14, 1e-6], got {tol}")


def _run_ivp(rhs, span, y0, tol, events=None):
    # a blow-up surfaces as sol.success == False, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # DOP853 never leaves a start point with a non-finite derivative: its
        # step size turns into nan and the step loop spins
        if not np.all(np.isfinite(rhs(span[0], np.asarray(y0, dtype=float)))):
            raise StepFailure("the right-hand side is not finite at the initial point")
        sol = solve_ivp(
            rhs,
            span,
            y0,
            method="DOP853",
            rtol=max(tol, _RTOL_FLOOR),
            atol=tol,
            dense_output=True,
            events=events,
        )
    if not sol.success:
        message = sol.message or ""
        if "step size" in message.lower():
            raise StiffnessSuspected(message)
        raise StepFailure(message)
    return sol


def _dense_output(sol):
    """Evaluator of DOP853's per-step interpolants, stacked into arrays once.

    One vectorised pass gives scipy's values bit for bit: the same segment
    (the earlier step at a step boundary, clipped at the ends) and the same
    Horner order.  Shape (dim,) for a scalar t, (dim, len(t)) for an array.
    """
    steps, ts = sol.sol.interpolants, sol.sol.ts
    t_old, h = np.array([s.t_old for s in steps]), np.array([s.h for s in steps])
    coeffs = np.stack([s.F for s in steps])  # (steps, 7, dim)
    y_old = np.stack([s.y_old for s in steps])

    def evaluate(t):
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, len(steps) - 1)
        x = ((t - t_old[seg]) / h[seg])[..., None]
        y = np.zeros_like(y_old[seg])
        for i, f in enumerate(np.moveaxis(coeffs[seg], -2, 0)[::-1]):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        return (y + y_old[seg]).T

    return evaluate


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Geodesic solution samples (t, x, tdot, xdot over gamma), dense in t and x."""

    gamma_samples: np.ndarray
    t_samples: np.ndarray
    x_samples: np.ndarray
    tdot_samples: np.ndarray
    xdot_samples: np.ndarray
    _dense: Callable

    def t(self, gamma):
        return self._dense(gamma)[0]

    def x(self, gamma):
        return self._dense(gamma)[2]


def _geodesic_rhs(cfg: ProblemConfig):
    def rhs(_gamma, y):
        # Python floats are ~5x cheaper than numpy scalars but raise on overflow
        # in ** and on division by zero, where numpy gives inf or nan
        try:
            return geodesic_rhs(y.tolist(), cfg)
        except (OverflowError, ZeroDivisionError):
            return geodesic_rhs(y, cfg)

    return rhs


def solve_geodesic_ode(cfg: ProblemConfig, tol: float = 1e-12) -> ReferenceTrajectory:
    """Integrate the geodesic system over [gamma_i, gamma_f]."""
    _check_tol(tol)
    span, y0 = (cfg.gamma_i, cfg.gamma_f), (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i)
    sol = _run_ivp(_geodesic_rhs(cfg), span, y0, tol)
    t, td, x, xd = sol.y
    return ReferenceTrajectory(sol.t, t, x, td, xd, _dense_output(sol))


@dataclass(frozen=True)
class PhysicalTrajectory:
    """Dense-output solution x(t) of the physical-time equation of motion."""

    t_samples: np.ndarray
    x_samples: np.ndarray
    v_samples: np.ndarray
    _dense: Callable

    def x(self, t):
        return self._dense(t)[0]


def solve_physical_eom(
    cfg: ProblemConfig, tol: float = 1e-12, *, t_final: float
) -> PhysicalTrajectory:
    """Integrate the conventional equation of motion in physical time up to t_final.

    The window emerges from the evolution, so a cross-check against the
    geodesic oracle passes the oracle's final time, not tdot_i * (gamma_f -
    gamma_i).
    """
    _check_tol(tol)
    if abs(cfg.v_init) >= cfg.c:
        raise SuperluminalVelocity("initial velocity is not below c")

    pot, m, c = cfg.potential, cfg.m, cfg.c

    def rhs(_t, y):
        x, u = y
        return (u, -(pot.dv(x) / m) * (1.0 - (u / c) ** 2) ** 1.5)

    def near_lightspeed(_t, y):
        return c * (1.0 - 1e-6) - abs(y[1])

    near_lightspeed.terminal = True

    sol = _run_ivp(
        rhs, (cfg.t_i, t_final), (cfg.x_i, cfg.v_init), tol, events=near_lightspeed
    )
    if sol.status == 1:
        raise SuperluminalVelocity(
            f"|dx/dt| reached c at t = {sol.t_events[0][0]:.6g}"
        )
    x, u = sol.y
    return PhysicalTrajectory(
        t_samples=sol.t, x_samples=x, v_samples=u, _dense=_dense_output(sol)
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n_gamma: int
    dgamma: float
    eps_final_x: float
    eps_final_t: float
    eps_l2_x: float
    eps_l2_t: float
    delta_e_end: float
    max_interior_delta_e: float


_ERROR_COLUMNS = ("eps_final_x", "eps_final_t", "eps_l2_x", "eps_l2_t")


@dataclass(frozen=True)
class ConvergenceTable:
    """Error-vs-spacing rows and least-squares convergence exponents."""

    rows: tuple

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def fit_exponents(self, min_n: int = 0) -> dict:
        """Fit log eps = beta log dgamma + const for each error measure.

        Rows with n_gamma below ``min_n`` are excluded, which is how the
        pre-asymptotic regime of a study can be trimmed.  At least three
        points must remain.  A measure that is 0 on some row has no rate:
        its ``beta`` and ``residual_rms`` are None.
        """
        rows = [r for r in self.rows if r.n_gamma >= min_n]
        if len(rows) < 3:
            raise ValueError(
                f"exponent fit refused: only {len(rows)} rows with n >= {min_n}"
            )
        log_dg = np.log([r.dgamma for r in rows])
        fits = {}
        for name in _ERROR_COLUMNS:
            eps = np.array([getattr(r, name) for r in rows])
            fits[name] = {"beta": None, "residual_rms": None}
            if np.all(eps > 0):
                log_eps = np.log(eps)
                beta, const = np.polyfit(log_dg, log_eps, 1)
                resid = log_eps - (beta * log_dg + const)
                fits[name] = {
                    "beta": float(beta),
                    "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
                }
        return fits


def _row_from_solution(cfg, sol: Solution, oracle, oracle_gamma) -> ConvergenceRow:
    # oracle_gamma: the oracle's parameter at each grid point; one pass over
    # the dense output yields both t and x
    t_ref, _, x_ref, _ = oracle._dense(oracle_gamma)
    report = diagnose(sol.state, cfg, (t_ref, x_ref))
    measures = (*_ERROR_COLUMNS, "delta_e_end", "max_interior_delta_e")
    return ConvergenceRow(
        cfg.n_gamma, cfg.dgamma, *(getattr(report, name) for name in measures)
    )


def convergence_study(
    cfg: ProblemConfig, n_list, *, opts: SolveOptions | None = None
) -> ConvergenceTable:
    """Solve on a sequence of grids and tabulate errors against the oracle.

    Each grid is an independent ``solve``.  The oracle runs at the tightest
    tolerance it accepts: the smallest tabulated errors reach ~1e-10, and
    its own must stay far below them.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("a convergence study needs at least three grids")
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly ascending")

    oracle = solve_geodesic_ode(cfg, _STUDY_TOL)
    rows = []
    for n in n_list:
        c = replace(cfg, n_gamma=n)
        rows.append(_row_from_solution(c, solve(c, opts), oracle, c.gamma_grid))
    return ConvergenceTable(rows=tuple(rows))


def scaled_tdot_study(
    cfg: ProblemConfig, n_list, tdot_list, *, opts: SolveOptions | None = None
) -> ConvergenceTable:
    """One run per (n_gamma, tdot_i) pair, all against one stretched oracle.

    Raising tdot_i extends the simulated time window, so the rows probe
    how the endpoint charge deviation behaves on longer trajectories; no
    common convergence exponent exists across them.  The geodesic
    equations are invariant under gamma -> gamma_i + s (gamma - gamma_i),
    so the row with tdot_i = s is the tdot_i = 1 run stretched by s: one
    tdot_i = 1 oracle over max(tdot_list) windows serves every row.  It
    runs after the solves, so a row that cannot be solved is reported first.
    """
    if not n_list or len(n_list) != len(tdot_list):
        raise ValueError("n_list and tdot_list must be non-empty and of equal length")
    runs = []
    for n, tdot in zip(n_list, tdot_list):
        row_cfg = replace(
            cfg, n_gamma=int(n), tdot_i=float(tdot), xdot_i=cfg.v_init * float(tdot)
        )
        runs.append((row_cfg, solve(row_cfg, opts)))
    span = max(c.tdot_i for c, _ in runs) * (cfg.gamma_f - cfg.gamma_i)
    stretched = replace(cfg, tdot_i=1.0, xdot_i=cfg.v_init, gamma_f=cfg.gamma_i + span)
    oracle = solve_geodesic_ode(stretched, _STUDY_TOL)
    rows = []
    for c, sol in runs:
        gamma = c.gamma_i + c.tdot_i * (c.gamma_grid - c.gamma_i)
        rows.append(_row_from_solution(c, sol, oracle, gamma))
    return ConvergenceTable(rows=tuple(rows))
