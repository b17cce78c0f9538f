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
tolerance alone sets the step count.  Its trial step is straight-line code
generated from the tableau (float literals below), as a loop over it cost
four times the right-hand sides.  Positions come from the 7th-order dense
output (II.10).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from array import array
from itertools import islice
from typing import Callable

import numpy as np

from .action import ProblemConfig, geodesic_rhs
from .diagnostics import diagnose
from .solver import SolveOptions, Solution, StepFailure, seed_steps, solve

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


# scipy's DOP853 tableau, each value as its repr (0 for a zero), array after
# array: A below the diagonal, rows 1-11; B; E5; E3; the first 13, 14 and 15
# entries of the rows of A_EXTRA; D, row by row
_DOP853 = """
0.05260015195876773 0.0197250569845379 0.0591751709536137 0.02958758547680685 0
0.08876275643042054 0.2413651341592667 0 -0.8845494793282861 0.924834003261792
0.037037037037037035 0 0 0.17082860872947386 0.12546768756682242 0.037109375 0 0
0.17025221101954405 0.06021653898045596 -0.017578125 0.03709200011850479 0 0
0.17038392571223998 0.10726203044637328 -0.015319437748624402 0.008273789163814023
0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726 27.59209969944671
20.154067550477894 -43.48988418106996 0.47766253643826434 0 0 -2.4881146199716677
-0.590290826836843 21.230051448181193 15.279233632882423 -33.28821096898486
-0.020331201708508627 -0.9371424300859873 0 0 5.186372428844064 1.0914373489967295
-8.149787010746927 -18.52006565999696 22.739487099350505 2.4936055526796523
-3.0467644718982196 2.273310147516538 0 0 -10.53449546673725 -2.0008720582248625
-17.9589318631188 27.94888452941996 -2.8589982771350235 -8.87285693353063
12.360567175794303 0.6433927460157636
0.054293734116568765 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259
0.01312004499419488 0 0 0 0 -1.2251564463762044 -0.4957589496572502 1.6643771824549864
-0.35032884874997366 0.3341791187130175 0.08192320648511571 -0.022355307863886294 0
-0.18980075407240762 0 0 0 0 4.450312892752409 1.8915178993145003 -5.801203960010585
-0.4226823213237919 -0.1521609496625161 0.20136540080403034 0.02265179219836082 0
0.056167502283047954 0 0 0 0 0 0.25350021021662483 -0.2462390374708025
-0.12419142326381637 0.15329179827876568 0.00820105229563469 0.007567897660545699
-0.008298 0.03183464816350214 0 0 0 0 0.028300909672366776 0.053541988307438566
-0.05492374857139099 0 0 -0.00010834732869724932 0.0003825710908356584
-0.00034046500868740456 0.1413124436746325 -0.42889630158379194 0 0 0 0
-4.697621415361164 7.683421196062599 4.06898981839711 0.3567271874552811 0 0 0
-0.0013990241651590145 2.9475147891527724 -9.15095847217987
-8.428938276109013 0 0 0 0 0.5667149535193777 -3.0689499459498917 2.38466765651207
2.117034582445028 -0.871391583777973 2.2404374302607883 0.6315787787694688
-0.08899033645133331 18.148505520854727 -9.194632392478356 -4.436036387594894
10.427508642579134 0 0 0 0 242.28349177525817 165.20045171727028 -374.5467547226902
-22.113666853125306 7.733432668472264 -30.674084731089398 -9.332130526430229
15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408
19.985053242002433 0 0 0 0 -387.0373087493518 -189.17813819516758 527.8081592054236
-11.57390253995963 6.8812326946963 -1.0006050966910838 0.7777137798053443
-2.778205752353508 -60.19669523126412 84.32040550667716 11.99229113618279
-25.69393346270375 0 0 0 0 -154.18974869023643 -231.5293791760455 357.6391179106141
93.40532418362432 -37.45832313645163 104.0996495089623 29.8402934266605
-43.53345659001114 96.32455395918828 -39.17726167561544 -149.72683625798564
"""
_values = map(float, _DOP853.split())
_A = [list(islice(_values, s)) for s in range(1, 12)]
_B, _E5, _E3 = (list(islice(_values, n)) for n in (12, 13, 13))
_A_EXTRA = [np.fromiter(_values, float, s) for s in (13, 14, 15)]
_D = np.fromiter(_values, float, 64).reshape(4, 16)
del _values


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

    ``step(rhs, y, f, h, rtol, atol)`` returns the solution, the 13 stages
    flattened stage by stage (the last is rhs at the solution) and scipy's
    error norm, every sum written out with literal coefficients in the order
    of a loop over the tableau.
    """
    # A zero coefficient is left out, which changes at most the sign of a zero
    # sum of finite stages.  An inf stage times 0 is nan in a loop; here the sum
    # stays inf.  The oracles' right-hand sides keep such inputs non-finite, so
    # either way the error is nan: the step is rejected and shrinks by 0.2.
    def each(form):  # form for every component i, each followed by a comma
        return "".join(form.format(i=i) + ", " for i in range(dim))

    def terms(coeffs, i="{i}"):  # sum_j c_j k_j for component i
        return " + ".join(f"{c!r} * k{j}_{i}" for j, c in enumerate(coeffs) if c)

    lines = ["def step(rhs, y, f, h, rtol, atol):", each("y{i}") + "= y"]
    lines.append(each("k0_{i}") + "= f")
    for s, a in enumerate(_A, start=1):
        stage = each(f"y{{i}} + ({terms(a)}) * h")
        lines.append(f"{each(f'k{s}_{{i}}')}= rhs(({stage}))")
    lines.append(f"y_new = {each('n{i}')}= {each(f'y{{i}} + h * ({terms(_B)})')}")
    lines += [f"{each('k12_{i}')}= rhs(y_new)", "e5 = e3 = 0.0"]
    for i in range(dim):  # scipy's error norm: E5, damped where E3 exceeds it
        lines.append(f"s = atol + max(abs(y{i}), abs(n{i})) * rtol")
        lines.append(f"r5, r3 = ({terms(_E5, i)}) / s, ({terms(_E3, i)}) / s")
        lines.append("e5, e3 = e5 + r5 * r5, e3 + r3 * r3")
    lines.append(f"error = e5 and abs(h) * e5 / sqrt((e5 + 0.01 * e3) * {dim})")
    stages = "".join(each(f"k{s}_{{i}}") for s in range(13))
    lines.append(f"return y_new, ({stages}), error")
    namespace = {"sqrt": math.sqrt}
    exec("\n    ".join(lines), namespace)
    return namespace["step"]


# the numpy fallback of the right-hand sides overflows into inf and nan
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _dop853(rhs, span, y0, tol, event=None):
    """scipy's DOP853 steps for y' = rhs(y) at rtol max(tol, _RTOL_FLOOR), atol tol.

    Returns the step points, the states (dim, points), the dense output and
    whether ``event(y)`` changed sign over the last step, which ends the run.
    """
    (t, t_end), rtol, atol = span, max(tol, _RTOL_FLOOR), tol
    y, f = list(y0), rhs(y0)
    # a non-finite derivative at the start turns the step size into nan
    if not all(map(math.isfinite, f)):
        raise StepFailure("the right-hand side is not finite at the initial point")
    h_abs = _initial_step(rhs, y, f, t_end - t, rtol, atol)
    step = _trial_step(len(y))
    ts, ys, stages, crossed = [t], [y], array("d"), False  # 13 stages a step
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
            y_new, ks, error = step(rhs, y, f, h, rtol, atol)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.125)
                h_abs = abs(h) * (min(1, factor) if rejected else factor)
                break
            h_abs, rejected = abs(h) * max(0.2, 0.9 * error ** -0.125), True
        t, y, f = t_new, y_new, ks[-len(y):]
        ts.append(t)
        ys.append(y)
        stages.extend(ks)
        if event is not None:
            g, g_old = event(y), g
            crossed = g_old <= 0 <= g or g_old >= 0 >= g
    return np.array(ts), np.array(ys).T, _dense_output(rhs, ts, ys, stages), crossed


def _dense_output(rhs, ts, ys, stages):
    """scipy's DOP853 interpolants of all steps, built in one vectorised pass.

    A step boundary takes the earlier step; shape (dim,) or (dim, len(t)).
    """
    ts = np.array(ts)
    t_old, h = ts[:-1], np.diff(ts)
    y_old, delta = np.array(ys[:-1]), np.diff(ys, axis=0)  # (steps, dim)
    k = np.pad(np.reshape(stages, (len(h), 13, -1)), ((0, 0), (0, 3), (0, 0)))
    for s, a in enumerate(_A_EXTRA, start=13):  # the 3 extra stages
        k[:, s] = np.array(rhs((y_old + (a @ k[:, :s]) * h[:, None]).T)).T
    coeffs = np.empty((len(h), 7, y_old.shape[1]))  # (steps, 7, dim)
    coeffs[:, 0] = delta
    coeffs[:, 1] = h[:, None] * k[:, 0] - delta
    coeffs[:, 2] = 2 * delta - h[:, None] * (k[:, 12] + k[:, 0])
    coeffs[:, 3:] = h[:, None, None] * (_D @ k)

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


def _floats_first(f, *args):
    # floats are ~5x cheaper than numpy scalars but raise where numpy gives inf or nan
    def rhs(y):
        try:
            return f(y, *args)
        except (OverflowError, ZeroDivisionError):
            return f(np.array(y), *args)

    return rhs


def solve_geodesic_ode(cfg: ProblemConfig, tol: float = 1e-12) -> ReferenceTrajectory:
    """Integrate the geodesic system over [gamma_i, gamma_f]."""
    _check_tol(tol)
    span, y0 = (cfg.gamma_i, cfg.gamma_f), (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i)
    rhs = _floats_first(geodesic_rhs, cfg)
    gamma, (t, td, x, xd), dense, _ = _dop853(rhs, span, y0, tol)
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
    t, (x, u), dense, crossed = _dop853(_floats_first(eom), span, y0, tol, below_c)
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


def _row_from_solution(cfg, sol: Solution, oracle, oracle_gamma) -> ConvergenceRow:
    # oracle_gamma: the oracle's parameter at each grid point; one pass over
    # the dense output yields both t and x
    t_ref, _, x_ref, _ = oracle._dense(oracle_gamma)
    report = diagnose(sol.state, cfg, (t_ref, x_ref))
    measures = (*_ERROR_COLUMNS, "delta_e_end", "max_interior_delta_e")
    return ConvergenceRow(
        int(cfg.n_gamma), cfg.dgamma, *(getattr(report, name) for name in measures)
    )


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

    seed_steps(cfg)
    oracle = solve_geodesic_ode(cfg, _STUDY_TOL)
    rows = [_row_from_solution(c, solve(c, opts), oracle, c.gamma_grid) for c in cfgs]
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
    rows = []
    for c, sol in runs:
        gamma = c.gamma_i + c.tdot_i * (c.gamma_grid - c.gamma_i)
        rows.append(_row_from_solution(c, sol, oracle, gamma))
    return ConvergenceTable(rows=tuple(rows))
