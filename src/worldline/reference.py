"""Independent high-accuracy oracles and grid-refinement studies.

Two separately derived formulations are integrated with an adaptive
Dormand-Prince pair at tolerances far below the discretization error of
the variational scheme:

* the geodesic system in the world-line parameter,
      d/dgamma (g00 tdot) = 0,    xddot + (g00'(x)/2) tdot^2 = 0,
* the conventional second-order equation of motion in physical time,
      d2x/dt2 = -(V'(x)/m) (1 - (dx/dt)^2 / c^2)^(3/2).

Agreement between the two after reparametrization validates the oracle
itself.  Both run one DOP853 stepper on Python floats that takes scipy's
steps (tableau, initial step, error norm, controller; Hairer, Norsett &
Wanner, Solving ODEs I, sections II.5-II.6) with no step cap, so the
tolerance alone sets the step count.  The tableau is read on the first
oracle call from scipy's own coefficient file, run by path, so no scipy
package is imported.  The trial step is straight-line code generated from
it, as a loop over it cost four times the right-hand sides.  A trial step
in which a float raises (overflow in ``**``, division by zero) is taken once
more on numpy scalars, which give inf and nan instead with the same bits
elsewhere.  Positions come from the 7th-order dense output (II.10).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Callable

import numpy as np

from .action import ProblemConfig, geodesic_rhs
from .diagnostics import diagnose
from .solver import SolveOptions, StepFailure, seed_steps, solve

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


@functools.cache
def _tableau():
    """scipy's DOP853 coefficient module, run from its file: no scipy package is imported."""
    scipy = find_spec("scipy")
    where = Path(scipy.submodule_search_locations[0] if scipy else "scipy", "integrate")
    path = where / "_ivp" / "dop853_coefficients.py"
    if not path.is_file():
        raise ImportError(f"no DOP853 coefficients at {path}")
    spec = spec_from_file_location("dop853_coefficients", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)  # enters nothing in sys.modules
    return module


class StiffnessSuspected(StepFailure):
    """Step size collapsed below the spacing of representable numbers."""


class SuperluminalVelocity(RuntimeError):
    """|dx/dt| approached c during physical-time integration."""


def _check_tol(tol: float) -> None:
    if not 1e-14 <= tol <= 1e-6:
        raise ValueError(f"oracle tolerance must lie in [1e-14, 1e-6], got {tol}")


def _initial_step(rhs, y0, f0, length, rtol, atol):
    # scipy's select_initial_step for order 7, on numpy floats: x / 0 is inf
    y0, f0 = np.array(y0), np.array(f0)
    scale, root_n = atol + np.abs(y0) * rtol, len(y0) ** 0.5
    d0, d1 = np.linalg.norm(np.array([y0, f0]) / scale, axis=1) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    d2 = np.linalg.norm((np.array(rhs(y0 + h0 * f0)) - f0) / scale) / root_n / h0
    flat = d1 <= 1e-15 and d2 <= 1e-15
    h1 = max(1e-6, h0 * 1e-3) if flat else (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, length))


@functools.cache
def _trial_step(dim):
    """scipy's DOP853 trial step for states of length dim, as generated code.

    ``step(rhs, y, f, h, rtol, atol)`` returns the solution, the last of its
    13 stages (rhs at the solution), all 13 packed stage by stage as float64
    bytes, and scipy's error norm, every sum written out with literal
    coefficients in the order of a loop over the tableau.
    """
    # A zero coefficient is left out, which changes at most the sign of a zero
    # sum of finite stages.  An inf stage times 0 is nan in a loop; here the sum
    # stays inf.  The oracles' right-hand sides keep such inputs non-finite, so
    # either way the error is nan: the step is rejected and shrinks by 0.2.
    def each(form):  # form for every component i, each followed by a comma
        return "".join(form.format(i=i) + ", " for i in range(dim))

    def terms(coeffs, i="{i}"):  # sum_j c_j k_j for component i; tolist for float reprs
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coeffs.tolist()) if c)

    lines = ["def step(rhs, y, f, h, rtol, atol):", each("y{i}") + "= y"]
    lines.append(each("k0_{i}") + "= f")
    tab = _tableau()
    for s in range(1, 12):  # A below the diagonal
        stage = each(f"y{{i}} + ({terms(tab.A[s, :s])}) * h")
        lines.append(f"{each(f'k{s}_{{i}}')}= rhs(({stage}))")
    lines.append(f"y_new = {each('n{i}')}= {each(f'y{{i}} + h * ({terms(tab.B)})')}")
    lines += [f"{each('k12_{i}')}= rhs(y_new)", "e5 = e3 = 0.0"]
    for i in range(dim):  # scipy's error norm: E5, damped where E3 exceeds it
        lines.append(f"s = atol + max(abs(y{i}), abs(n{i})) * rtol")
        lines.append(f"r5, r3 = ({terms(tab.E5, i)}) / s, ({terms(tab.E3, i)}) / s")
        lines.append("e5, e3 = e5 + r5 * r5, e3 + r3 * r3")
    lines.append(f"error = e5 and abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {dim})")
    stages = "".join(each(f"k{s}_{{i}}") for s in range(13))
    lines.append(f"return y_new, ({each('k12_{i}')}), pack({stages}), error")
    namespace = {"sqrt": math.sqrt, "pack": struct.Struct(f"{13 * dim}d").pack}
    exec("\n    ".join(lines), namespace)
    return namespace["step"]


# the numpy retry of a trial step overflows into inf and nan
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dop853(rhs, span, y0, tol, event=None):
    """scipy's DOP853 steps for y' = rhs(y) at rtol max(tol, _RTOL_FLOOR), atol tol.

    Returns the step points, the states (dim, points), the dense output and
    whether ``event(y)`` changed sign over the last step, which ends the run.
    """
    (t, t_end), rtol, atol = span, max(tol, _RTOL_FLOOR), tol
    y = list(y0)
    try:
        f = rhs(y)
    except (OverflowError, ZeroDivisionError):  # floats raise where numpy gives inf, nan
        f = rhs(np.array(y))
    # a non-finite derivative at the start turns the step size into nan
    if not all(map(math.isfinite, f)):
        raise StepFailure("the right-hand side is not finite at the initial point")
    h_abs = _initial_step(rhs, y, f, t_end - t, rtol, atol)
    step = _trial_step(len(y))
    ts, ys, stages, crossed = [t], [y], bytearray(), False  # 13 stages a step
    g = event(y) if event else None
    while t < t_end and not crossed:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a nan step size ends here too
                raise StiffnessSuspected(
                    "Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            try:
                y_new, f_new, packed, error = step(rhs, y, f, h, rtol, atol)
            except (OverflowError, ZeroDivisionError):  # the same step on numpy scalars
                y_new, f_new, packed, error = step(rhs, np.array(y), f, h, rtol, atol)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs = abs(h) * (min(1, factor) if rejected else factor)
                break
            h_abs, rejected = abs(h) * max(0.2, 0.9 * error ** -0.125), True
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
        stages += packed
        if event is not None:
            g, g_old = event(y), g
            crossed = g_old <= 0 <= g or g_old >= 0 >= g
    return np.array(ts), np.array(ys).T, _dense_output(rhs, ts, ys, stages), crossed


def _dense_output(rhs, ts, ys, stages):
    """scipy's DOP853 interpolants of all steps, built in one vectorised pass.

    ``stages`` is a buffer of each step's 13 stages as float64.  A step
    boundary takes the earlier step; shape (dim,) or (dim, len(t)).
    """
    ts, ys = np.array(ts), np.array(ys)
    t_old, h = ts[:-1], np.diff(ts)
    y_old, delta = ys[:-1], np.diff(ys, axis=0)  # (steps, dim)
    k = np.empty((len(h), 16, ys.shape[1]))  # the 13 stages, then the 3 extra ones
    k[:, :13] = np.frombuffer(stages).reshape(len(h), 13, -1)
    tab = _tableau()
    for s in range(13, 16):  # the 3 extra stages
        k[:, s] = np.array(rhs((y_old + (tab.A[s, :s] @ k[:, :s]) * h[:, None]).T)).T
    coeffs = np.empty((len(h), 7, y_old.shape[1]))  # (steps, 7, dim)
    coeffs[:, 0] = delta
    coeffs[:, 1] = h[:, None] * k[:, 0] - delta
    coeffs[:, 2] = 2 * delta - h[:, None] * (k[:, 12] + k[:, 0])
    coeffs[:, 3:] = h[:, None, None] * (tab.D @ k)

    def evaluate(t):
        t = np.asarray(t)
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, len(h) - 1)
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


def solve_geodesic_ode(cfg: ProblemConfig, tol: float = 1e-12) -> ReferenceTrajectory:
    """Integrate the geodesic system over [gamma_i, gamma_f].

    A window too long to seed (``seed_steps``) raises StepFailure at once.
    """
    _check_tol(tol)
    seed_steps(cfg)
    span, y0 = (cfg.gamma_i, cfg.gamma_f), (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i)
    gamma, (t, td, x, xd), dense, _ = _dop853(geodesic_rhs(cfg), span, y0, tol)
    return ReferenceTrajectory(gamma, t, x, td, xd, dense)


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
    if not cfg.t_i < t_final < math.inf:
        raise ValueError(f"t_final must be finite and exceed t_i = {cfg.t_i}, got {t_final}")
    pot, m, c = cfg.potential, cfg.m, cfg.c

    def eom(y):
        x, u = y
        w = 1.0 - (u / c) * (u / c)
        if not isinstance(w, np.ndarray) and w < 0.0:
            w = math.nan  # numpy's value; a Python float's w ** 1.5 is complex
        return (u, -(pot.dv(x) / m) * w ** 1.5)

    def below_c(y):
        return c * (1.0 - 1e-6) - abs(y[1])

    span, y0 = (cfg.t_i, t_final), (cfg.x_i, cfg.v_init)
    t, (x, u), dense, crossed = _dop853(eom, span, y0, tol, below_c)
    if crossed:  # located on the last step's interpolant, as scipy locates events
        from scipy.optimize import brentq
        t_c = brentq(lambda s: below_c(dense(s)), *t[-2:], xtol=4 * np.finfo(float).eps)
        raise SuperluminalVelocity(f"|dx/dt| reached c at t = {t_c:.6g}")
    return PhysicalTrajectory(t_samples=t, x_samples=x, v_samples=u, _dense=dense)


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


def _table(runs, oracle, gammas) -> ConvergenceTable:
    """The rows of the solved runs (cfg, Solution) against the oracle.

    gammas: the oracle's parameter at each run's grid points.  One pass over
    the dense output, elementwise and so bit for bit the per-row passes,
    yields t and x for every row.
    """
    t_ref, _, x_ref, _ = oracle._dense(np.concatenate(gammas))
    ends = np.cumsum([len(g) for g in gammas])[:-1]
    measures = (*_ERROR_COLUMNS, "delta_e_end", "max_interior_delta_e")
    rows = []
    for (cfg, sol), t, x in zip(runs, np.split(t_ref, ends), np.split(x_ref, ends)):
        report = diagnose(sol.state, cfg, (t, x))
        rows.append(ConvergenceRow(
            int(cfg.n_gamma), cfg.dgamma, *(getattr(report, name) for name in measures)
        ))
    return ConvergenceTable(rows=tuple(rows))


def convergence_study(
    cfg: ProblemConfig, n_list, *, opts: SolveOptions | None = None
) -> ConvergenceTable:
    """Solve on a sequence of grids and tabulate errors against the oracle.

    Each grid is an independent ``solve``.  The oracle runs at the tightest
    tolerance it accepts: the smallest tabulated errors reach ~1e-10, and
    its own must stay far below them; a window too long to seed fails first.
    """
    cfgs = [replace(cfg, n_gamma=n) for n in n_list]  # a bad size fails here
    n_list = [c.n_gamma for c in cfgs]
    if len(n_list) < 3:
        raise ValueError("a convergence study needs at least three grids")
    if sorted(n_list) != n_list or len(set(n_list)) != len(n_list):
        raise ValueError("n_list must be strictly ascending")

    oracle = solve_geodesic_ode(cfg, _STUDY_TOL)
    runs = [(c, solve(c, opts)) for c in cfgs]
    return _table(runs, oracle, [c.gamma_grid for c in cfgs])


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
    if not len(n_list) or len(n_list) != len(tdot_list):
        raise ValueError("n_list and tdot_list must be non-empty and of equal length")
    cfgs = []
    for n, tdot in zip(n_list, tdot_list):  # a bad row fails before the first solve
        row = replace(cfg, n_gamma=n, tdot_i=tdot, xdot_i=0.0)  # checks tdot as given
        tdot = float(tdot)
        cfgs.append(replace(row, tdot_i=tdot, xdot_i=cfg.v_init * tdot))
    runs = [(c, solve(c, opts)) for c in cfgs]
    span = max(c.tdot_i for c in cfgs) * (cfg.gamma_f - cfg.gamma_i)
    stretched = replace(cfg, tdot_i=1.0, xdot_i=cfg.v_init, gamma_f=cfg.gamma_i + span)
    oracle = solve_geodesic_ode(stretched, _STUDY_TOL)
    gammas = [c.gamma_i + c.tdot_i * (c.gamma_grid - c.gamma_i) for c in cfgs]
    return _table(runs, oracle, gammas)
