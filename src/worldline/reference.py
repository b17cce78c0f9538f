"""Independent high-accuracy oracles and grid-refinement studies.

Two separately derived formulations are integrated with an adaptive
Dormand-Prince pair at tolerances far below the discretization error of
the variational scheme:

* the geodesic system in the world-line parameter,
      d/dgamma (g00 tdot) = 0,    xddot + (g00'(x)/2) tdot^2 = 0,
* the conventional second-order equation of motion in physical time,
      d2x/dt2 = -(V'(x)/m) (1 - (dx/dt)^2 / c^2)^(3/2).

Agreement between the two after reparametrization validates the oracle
itself; dense output of the positions is a cubic Hermite interpolant with
the stored velocity samples as slopes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .action import ProblemConfig, metric_g00, metric_g00_prime
from .diagnostics import diagnose
from .solver import NonConvergence, SolveOptions, Solution, continuation_solve, solve

__all__ = [
    "StepFailure",
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


class StepFailure(RuntimeError):
    """The adaptive integrator could not meet the requested tolerance."""


class StiffnessSuspected(StepFailure):
    """Step size collapsed below the spacing of representable numbers."""


class SuperluminalVelocity(RuntimeError):
    """|dx/dt| approached c during physical-time integration."""


def _check_tol(tol: float) -> None:
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"oracle tolerance must lie in [1e-14, 1e-6], got {tol}")


def _run_ivp(rhs, span, y0, tol, events=None):
    sol = solve_ivp(
        rhs,
        span,
        y0,
        method="RK45",
        rtol=max(tol, _RTOL_FLOOR),
        atol=tol,
        max_step=(span[1] - span[0]) / 512,
        dense_output=False,
        events=events,
    )
    if not sol.success:
        message = sol.message or ""
        if "step size" in message.lower():
            raise StiffnessSuspected(message)
        raise StepFailure(message)
    return sol


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Geodesic solution samples (t, x, tdot, xdot over gamma), dense in t and x."""

    gamma_samples: np.ndarray
    t_samples: np.ndarray
    x_samples: np.ndarray
    tdot_samples: np.ndarray
    xdot_samples: np.ndarray
    _interp_t: CubicHermiteSpline
    _interp_x: CubicHermiteSpline

    def t(self, gamma):
        return self._interp_t(gamma)

    def x(self, gamma):
        return self._interp_x(gamma)


def _geodesic_rhs(cfg: ProblemConfig):
    def rhs(_gamma, y):
        t, td, x, xd = y
        g00 = metric_g00(x, cfg)
        g00p = metric_g00_prime(x, cfg)
        return (td, -(g00p / g00) * xd * td, xd, -0.5 * g00p * td * td)

    return rhs


def solve_geodesic_ode(cfg: ProblemConfig, tol: float = 1e-12) -> ReferenceTrajectory:
    """Integrate the geodesic system over [gamma_i, gamma_f]."""
    _check_tol(tol)
    rhs = _geodesic_rhs(cfg)
    sol = _run_ivp(
        rhs,
        (cfg.gamma_i, cfg.gamma_f),
        (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i),
        tol,
    )
    gamma = sol.t
    t, td, x, xd = sol.y
    return ReferenceTrajectory(
        gamma_samples=gamma,
        t_samples=t,
        x_samples=x,
        tdot_samples=td,
        xdot_samples=xd,
        _interp_t=CubicHermiteSpline(gamma, t, td),
        _interp_x=CubicHermiteSpline(gamma, x, xd),
    )


@dataclass(frozen=True)
class PhysicalTrajectory:
    """Dense-output solution x(t) of the physical-time equation of motion."""

    t_samples: np.ndarray
    x_samples: np.ndarray
    v_samples: np.ndarray
    _interp_x: CubicHermiteSpline

    def x(self, t):
        return self._interp_x(t)


def solve_physical_eom(
    cfg: ProblemConfig, tol: float = 1e-12, t_final: float | None = None
) -> PhysicalTrajectory:
    """Integrate the conventional equation of motion in physical time.

    The integration window defaults to the naive span tdot_i * (gamma_f -
    gamma_i); cross-checks against the geodesic oracle should pass its
    actual final time instead.
    """
    _check_tol(tol)
    if abs(cfg.v_init) >= cfg.c:
        raise SuperluminalVelocity("initial velocity is not below c")
    if t_final is None:
        t_final = cfg.t_i + cfg.tdot_i * (cfg.gamma_f - cfg.gamma_i)

    pot, m, c = cfg.potential, cfg.m, cfg.c

    def rhs(_t, y):
        x, u = y
        return (u, -(pot.dv(x) / m) * (1.0 - (u / c) ** 2) ** 1.5)

    def near_lightspeed(_t, y):
        return c * (1.0 - 1e-6) - abs(y[1])

    near_lightspeed.terminal = True

    sol = _run_ivp(
        rhs,
        (cfg.t_i, t_final),
        (cfg.x_i, cfg.v_init),
        tol,
        events=near_lightspeed,
    )
    if sol.status == 1:
        raise SuperluminalVelocity(
            f"|dx/dt| reached c at t = {sol.t_events[0][0]:.6g}"
        )
    t = sol.t
    x, u = sol.y
    return PhysicalTrajectory(
        t_samples=t,
        x_samples=x,
        v_samples=u,
        _interp_x=CubicHermiteSpline(t, x, u),
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
        points must remain.
        """
        rows = [r for r in self.rows if r.n_gamma >= min_n]
        if len(rows) < 3:
            raise ValueError(
                f"exponent fit refused: only {len(rows)} rows with n >= {min_n}"
            )
        log_dg = np.log([r.dgamma for r in rows])
        fits = {}
        for name in _ERROR_COLUMNS:
            log_eps = np.log([getattr(r, name) for r in rows])
            beta, const = np.polyfit(log_dg, log_eps, 1)
            resid = log_eps - (beta * log_dg + const)
            fits[name] = {
                "beta": float(beta),
                "residual_rms": float(np.sqrt(np.mean(resid ** 2))),
            }
        return fits


def _row_from_solution(cfg, oracle, sol: Solution) -> ConvergenceRow:
    report = diagnose(sol.state, cfg, oracle)
    return ConvergenceRow(
        n_gamma=cfg.n_gamma,
        dgamma=cfg.dgamma,
        eps_final_x=report.eps_final_x,
        eps_final_t=report.eps_final_t,
        eps_l2_x=report.eps_l2_x,
        eps_l2_t=report.eps_l2_t,
        delta_e_end=report.delta_e_end,
        max_interior_delta_e=report.max_interior_delta_e,
    )


def convergence_study(
    cfg: ProblemConfig,
    n_list,
    order: str | None = None,
    *,
    tol: float = 1e-12,
    opts: SolveOptions | None = None,
) -> ConvergenceTable:
    """Solve on a sequence of grids and tabulate errors against the oracle.

    The coarsest grid is solved cold; every finer grid warm-starts from it.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3:
        raise ValueError("a convergence study needs at least three grids")
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly ascending")
    if order is not None:
        cfg = replace(cfg, order=order)

    oracle = solve_geodesic_ode(cfg, tol)
    configs = [replace(cfg, n_gamma=n) for n in n_list]

    base = solve(configs[0], opts)
    rows = [_row_from_solution(configs[0], oracle, base)]

    for c in configs[1:]:
        rows.append(_row_from_solution(c, oracle, continuation_solve(c, opts, base)))
    return ConvergenceTable(rows=tuple(rows))


def _tdot_ladder_solve(cfg: ProblemConfig, opts) -> Solution:
    """Reach a large tdot_i by warm-started continuation from tdot_i = 1.

    Large tdot_i stretches the simulated time window, so the straight-line
    guess is far from the curved solution and cold Newton stalls; ramping
    tdot_i keeps each solve in the previous one's basin.  The physical
    initial velocity xdot_i/tdot_i is held fixed along the ramp.
    """
    v_init = cfg.v_init
    target = cfg.tdot_i
    tdot = min(1.0, target)
    sol = solve(replace(cfg, tdot_i=tdot, xdot_i=v_init * tdot), opts)
    while tdot < target:
        step = 2.0
        while True:
            tdot_next = min(tdot * step, target)
            trial = replace(cfg, tdot_i=tdot_next, xdot_i=v_init * tdot_next)
            try:
                sol = continuation_solve(trial, opts, sol)
                tdot = tdot_next
                break
            except NonConvergence:
                step = np.sqrt(step)
                if step < 1.01:
                    raise
    return sol


def scaled_tdot_study(
    cfg: ProblemConfig,
    n_list,
    tdot_list,
    *,
    opts: SolveOptions | None = None,
    tol: float = 1e-12,
) -> ConvergenceTable:
    """One run per (n_gamma, tdot_i) pair, each against its own oracle.

    Raising tdot_i extends the simulated time window, so the rows probe
    how the endpoint charge deviation behaves on longer trajectories; no
    common convergence exponent exists across them.
    """
    if len(n_list) != len(tdot_list):
        raise ValueError("n_list and tdot_list must pair up one to one")
    rows = []
    for n, tdot in zip(n_list, tdot_list):
        row_cfg = replace(
            cfg, n_gamma=int(n), tdot_i=float(tdot), xdot_i=cfg.v_init * float(tdot)
        )
        sol = _tdot_ladder_solve(row_cfg, opts)
        oracle = solve_geodesic_ode(row_cfg, tol)
        rows.append(_row_from_solution(row_cfg, oracle, sol))
    return ConvergenceTable(rows=tuple(rows))
