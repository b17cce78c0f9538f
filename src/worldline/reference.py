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
(Hairer, Norsett & Wanner, Solving ODEs I, section II.10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .action import ProblemConfig, StateVector, metric_g00, metric_g00_prime
from .diagnostics import diagnose
from .solver import SolveOptions, Solution, continuation_solve, initial_guess, solve

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
    # a blow-up surfaces as sol.success == False, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Geodesic solution samples (t, x, tdot, xdot over gamma), dense in t and x."""

    gamma_samples: np.ndarray
    t_samples: np.ndarray
    x_samples: np.ndarray
    tdot_samples: np.ndarray
    xdot_samples: np.ndarray
    _dense: OdeSolution

    def t(self, gamma):
        return self._dense(gamma)[0]

    def x(self, gamma):
        return self._dense(gamma)[2]


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
        _dense=sol.sol,
    )


@dataclass(frozen=True)
class PhysicalTrajectory:
    """Dense-output solution x(t) of the physical-time equation of motion."""

    t_samples: np.ndarray
    x_samples: np.ndarray
    v_samples: np.ndarray
    _dense: OdeSolution

    def x(self, t):
        return self._dense(t)[0]


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
    x, u = sol.y
    return PhysicalTrajectory(
        t_samples=sol.t, x_samples=x, v_samples=u, _dense=sol.sol
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
    # the dense-output segments yields both t and x
    t_ref, _, x_ref, _ = oracle._dense(oracle_gamma)
    report = diagnose(sol.state, cfg, (t_ref, x_ref))
    measures = (*_ERROR_COLUMNS, "delta_e_end", "max_interior_delta_e")
    return ConvergenceRow(
        cfg.n_gamma, cfg.dgamma, *(getattr(report, name) for name in measures)
    )


def convergence_study(
    cfg: ProblemConfig,
    n_list,
    order: str | None = None,
    *,
    tol: float = 1e-14,
    opts: SolveOptions | None = None,
) -> ConvergenceTable:
    """Solve on a sequence of grids and tabulate errors against the oracle.

    The coarsest grid is solved cold; every finer grid warm-starts from it.
    The oracle runs at the tightest tolerance it accepts: the smallest
    tabulated errors reach ~1e-10, and its own must stay far below them.
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
    rows = [_row_from_solution(configs[0], base, oracle, configs[0].gamma_grid)]

    for c in configs[1:]:
        sol = continuation_solve(c, opts, base)
        rows.append(_row_from_solution(c, sol, oracle, c.gamma_grid))
    return ConvergenceTable(rows=tuple(rows))


def _geodesic_seed(cfg: ProblemConfig) -> StateVector:
    """Newton guess: fixed-step RK4 of the geodesic system on the gamma grid.

    Every cell takes the same whole number of sub-steps, at least
    4 tdot_i (gamma_f - gamma_i) in all, so a sub-step spans at most about
    a quarter time unit however far tdot_i stretches the window.  Reaching
    g00 <= 0 raises StepFailure; an overflowing path falls back to the
    straight line, whose cold solve then reports the failure.
    """
    n, rhs = cfg.n_gamma, _geodesic_rhs(cfg)
    sub = math.ceil(4.0 * cfg.tdot_i * (cfg.gamma_f - cfg.gamma_i) / (n - 1))
    h = cfg.dgamma / sub
    y = np.array((cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i))
    path = np.empty((n, 4))
    path[0] = y
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, n):
            for _ in range(sub):
                k1 = np.array(rhs(None, y))
                k2 = np.array(rhs(None, y + 0.5 * h * k1))
                k3 = np.array(rhs(None, y + 0.5 * h * k2))
                k4 = np.array(rhs(None, y + h * k3))
                y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                if metric_g00(y[2], cfg) <= 0:
                    raise StepFailure(
                        "the trajectory reaches g00 <= 0 near gamma = "
                        f"{cfg.gamma_i + k * cfg.dgamma:.3g}"
                    )
            if not np.all(np.isfinite(y)):
                return initial_guess(cfg)
            path[k] = y
    t, x = path[:, 0], path[:, 2]
    return StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=np.zeros(8))


def scaled_tdot_study(
    cfg: ProblemConfig,
    n_list,
    tdot_list,
    *,
    opts: SolveOptions | None = None,
    tol: float = 1e-14,
) -> ConvergenceTable:
    """One run per (n_gamma, tdot_i) pair, all against one stretched oracle.

    Raising tdot_i extends the simulated time window, so the rows probe
    how the endpoint charge deviation behaves on longer trajectories; no
    common convergence exponent exists across them.  Each row is solved
    cold from its geodesic seed.  The geodesic equations are invariant
    under gamma -> gamma_i + s (gamma - gamma_i), so the row with
    tdot_i = s is the tdot_i = 1 run stretched by s: one tdot_i = 1 oracle
    over max(tdot_list) windows serves every row.  It runs after the
    solves, so a row that cannot be solved is reported first.
    """
    if not n_list or len(n_list) != len(tdot_list):
        raise ValueError("n_list and tdot_list must be non-empty and of equal length")
    runs = []
    for n, tdot in zip(n_list, tdot_list):
        row_cfg = replace(
            cfg, n_gamma=int(n), tdot_i=float(tdot), xdot_i=cfg.v_init * float(tdot)
        )
        runs.append((row_cfg, solve(row_cfg, opts, guess=_geodesic_seed(row_cfg))))
    span = max(c.tdot_i for c, _ in runs) * (cfg.gamma_f - cfg.gamma_i)
    oracle = solve_geodesic_ode(
        replace(cfg, tdot_i=1.0, xdot_i=cfg.v_init, gamma_f=cfg.gamma_i + span), tol
    )
    rows = []
    for c, sol in runs:
        gamma = c.gamma_i + c.tdot_i * (c.gamma_grid - c.gamma_i)
        rows.append(_row_from_solution(c, sol, oracle, gamma))
    return ConvergenceTable(rows=tuple(rows))
