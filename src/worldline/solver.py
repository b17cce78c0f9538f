"""Newton search for the critical point of the discrete action.

The critical point is a saddle, so the action is never minimized directly.
Instead the stationarity system grad E = 0 is solved by Newton's method
with Armijo backtracking on the merit ||grad E||^2: the saddle becomes the
merit's global minimum, the Newton step descends it with slope
-2 ||grad E||^2 (Nocedal & Wright, ch. 11), and every accepted step lowers it.
Newton starts from the geodesic, the scheme's continuum limit: one coarse RK4
pass over the window, Hermite-interpolated onto the grid.  A seed reaching the
horizon g00 <= 0 ends the solve with ``StepFailure``.

Newton iterates on y = ((t1, x1) point by point, lam_5..lam_8), the 2n + 4
unknowns of the physical limit t2 = t1, x2 = x1, lam_1..lam_4 = 0.  There
branch 2's rows of grad E are -(branch 1's) and the lam_5..lam_8 rows vanish,
so one branch-1 kernel, ``DiscreteAction.gradient``, gives r = R grad E at
each trial point, and ||grad E||^2 = ||r_lam||^2 + 2 ||r_coord||^2.  Each
step solves R H P dy = -r: ``DiscreteAction.hessian`` assembles the one
Hessian from y's (t1, x1), and its ``solve`` runs the band LU in O(n).  y is
lifted to a ``StateVector`` only for the seed and the returned ``Solution``.
A gradient or Hessian that is not finite, or a singular factorisation, ends
the solve with ``SingularSystem``.

The solve stops on one of two tests.  The gradient test passes once
||grad||_2 <= grad_tol * (1 + ||y||_inf) (``termination == "converged"``).
A full step y_k -> y_k+1 that fails it is followed by one chord step
-J(y_k)^-1 r(y_k+1) on the same band LU (Deuflhard 2004, sec. 2.1), kept
if it passes the gradient or the Armijo test.  Where the gradient's rounding
floor lies above the bound, a tiny step, at most sqrt(eps) * (1 +
||y||_inf), that cannot lower the merit ends the solve at the floor
(``termination == "roundoff_floor"``): a chord step that does not halve
the gradient (the better point is returned), or a full Newton step that
fails the Armijo test.  Such a step leaves an error of about eps, so the
gradient is rounding noise (Dennis & Schnabel, ch. 7).  Both count as
converged.  A line search that finds no step length down to
``_MIN_STEP`` raises ``NonConvergence`` (``termination == "stalled"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import (
    DiscreteAction,
    InvalidConfig,
    ProblemConfig,
    StateVector,
    geodesic_rhs,
    metric_g00,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "NonConvergence",
    "SingularSystem",
    "InvalidConfig",
    "StepFailure",
    "initial_guess",
    "seed_steps",
    "solve",
    "continuation_solve",
]

# Backtracking shrinks the step by _LS_SHRINK, down to _MIN_STEP, until
# the Armijo test with slope factor _LS_DECREASE passes.
_LS_SHRINK = 0.5
_LS_DECREASE = 1e-4
_MIN_STEP = 1e-14
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))
# RK4 steps the geodesic seed may take: a window of ~25000 time units, ~1 s
_SEED_MAX_SUBSTEPS = 100_000


class StepFailure(RuntimeError):
    """An integration of the geodesic system (the oracle or the seed) failed."""


class NonConvergence(RuntimeError):
    """Newton stopped short of the tests; ``solution`` holds the last iterate.

    Its ``termination`` is ``"max_iter"`` when the iteration cap was hit and
    ``"stalled"`` when a line search found no step that lowers the merit.
    """

    def __init__(self, solution: "Solution"):
        self.solution = solution
        super().__init__(
            f"no convergence after {solution.iterations} iterations "
            f"({solution.termination}, gradient norm {solution.grad_norm:.3e})"
        )


class SingularSystem(RuntimeError):
    """The Newton system is not finite, or its band LU has a zero pivot."""


@dataclass(frozen=True)
class SolveOptions:
    """Termination parameters.

    ``grad_tol`` is a relative factor: the solve stops once
    ||grad||_2 <= grad_tol * (1 + ||state||_inf), which keeps refinement
    sweeps comparable as operator norms grow with the grid.  A solve whose
    gradient floor lies above that bound stops at the floor instead, with
    ``termination == "roundoff_floor"``: once a chord step (on the last
    Newton step's band LU) below sqrt(eps) * (1 + ||state||_inf) does not
    halve the gradient, or a Newton step that small fails the Armijo test.
    """

    grad_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self):
        # an infinite grad_tol would accept the initial guess as converged, and
        # a bool is a number to Python: True would mean 1.0, or one iteration
        grad_tol, max_iter = self.grad_tol, self.max_iter
        if isinstance(grad_tol, (bool, np.bool_)) or not 0 < grad_tol < np.inf:
            raise ValueError("grad_tol must be positive and finite")
        if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class Solution:
    """Result of a critical-point search.

    ``termination`` says why the solve stopped: ``"converged"`` when the
    gradient test passed, ``"roundoff_floor"`` when the step test at the
    rounding floor did.  An iteration's ``grad_history`` entry is that of
    the point it ends at, its chord point when kept; at the floor the last
    entry need not be below the one before it.  The last iterate carried by
    ``NonConvergence`` has ``"max_iter"`` or ``"stalled"``; since every
    accepted step lowers the merit, it is also the best one.
    """

    state: StateVector
    gamma: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    grad_history: tuple = field(default=(), repr=False)
    termination: str = "converged"


def initial_guess(cfg: ProblemConfig) -> StateVector:
    """Straight-line guess matching the initial data on both branches."""
    gamma = cfg.gamma_grid - cfg.gamma_i
    t = cfg.t_i + cfg.tdot_i * gamma
    x = cfg.x_i + cfg.xdot_i * gamma
    return StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=np.zeros(8))


def seed_steps(cfg: ProblemConfig) -> int:
    """The geodesic seed's RK4 step count; StepFailure if it exceeds _SEED_MAX_SUBSTEPS."""
    span = 4.0 * cfg.tdot_i * (cfg.gamma_f - cfg.gamma_i)  # inf where it overflows
    if span > _SEED_MAX_SUBSTEPS:
        raise StepFailure(
            f"window too long: the geodesic seed needs more than {_SEED_MAX_SUBSTEPS} RK4 sub-steps"
        )
    return max(8, math.ceil(span))


def _geodesic_seed(cfg: ProblemConfig) -> StateVector:
    """Newton guess: a coarse RK4 geodesic, Hermite-interpolated onto the grid.

    K = max(8, ceil(4 tdot_i (gamma_f - gamma_i))) steps (``seed_steps``) on
    Python floats, a quarter time unit at most, whatever n_gamma is.  A step
    reaching g00 <= 0 raises StepFailure; an overflowing step gives the
    straight line, whose solve then reports the failure.
    """
    steps = seed_steps(cfg)
    h = (cfg.gamma_f - cfg.gamma_i) / steps
    nodes = [[float(v) for v in (cfg.t_i, cfg.tdot_i, cfg.x_i, cfg.xdot_i)]]
    for k in range(1, steps + 1):
        y = nodes[-1]
        try:
            k1 = geodesic_rhs(y, cfg)
            k2 = geodesic_rhs([u + 0.5 * h * v for u, v in zip(y, k1)], cfg)
            k3 = geodesic_rhs([u + 0.5 * h * v for u, v in zip(y, k2)], cfg)
            k4 = geodesic_rhs([u + h * v for u, v in zip(y, k3)], cfg)
            y = [
                u + h / 6.0 * (a + 2.0 * (b + c) + d)
                for u, a, b, c, d in zip(y, k1, k2, k3, k4)
            ]
            horizon = metric_g00(y[2], cfg) <= 0
        except OverflowError:
            return initial_guess(cfg)
        except ZeroDivisionError:  # g00 = 0 at a stage
            horizon = True
        if horizon:
            gamma = cfg.gamma_i + k * h
            raise StepFailure(f"the trajectory reaches g00 <= 0 near gamma = {gamma:.3g}")
        if not all(map(math.isfinite, y)):
            return initial_guess(cfg)
        nodes.append(y)
    # cubic Hermite on each step: the chord plus u (1 - u) ((1 - u) a - u b)
    s = np.arange(cfg.n_gamma) * (steps / (cfg.n_gamma - 1))
    j = np.minimum(s.astype(int), steps - 1)
    u = (s - j)[:, None]
    path = np.array(nodes)
    p, q = path[j], path[j + 1]
    chord = q[:, ::2] - p[:, ::2]
    a, b = h * p[:, 1::2] - chord, h * q[:, 1::2] - chord
    tx = p[:, ::2] + u * (chord + (1.0 - u) * ((1.0 - u) * a - u * b))
    return _lift(np.append(tx, np.zeros(4)))


def _lift(y: np.ndarray) -> StateVector:
    """The state t2 = t1, x2 = x1, lam_1..lam_4 = 0 of the unknowns ``y``."""
    t, x, lam = y[:-4:2], y[1:-4:2], np.append(np.zeros(4), y[-4:])
    return StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=lam)


# Overflow and NaN are handled explicitly: the line search rejects a
# non-finite trial and SingularSystem reports a non-finite system.
@np.errstate(over="ignore", invalid="ignore")
def solve(
    cfg: ProblemConfig,
    opts: SolveOptions | None = None,
    *,
    guess: StateVector | None = None,
) -> Solution:
    """Find the critical point of the discrete action for ``cfg``.

    Newton starts from ``guess``, by default the geodesic seed, and reads
    only its t1, x1 and lam_5..lam_8: it returns the same state as the
    guess's projection (t2 := t1, x2 := x1, lam_1..lam_4 := 0).  Raises
    StepFailure when the seed reaches g00 <= 0 or needs too many steps,
    NonConvergence when the iteration cap is hit or a line search stalls
    (the exception carries the last iterate), and SingularSystem when the
    gradient norm or a Hessian entry is not finite, or the system singular.
    """
    opts = opts or SolveOptions()
    n = cfg.n_gamma
    s = guess if guess is not None else _geodesic_seed(cfg)
    if s.n != n:
        raise InvalidConfig("guess does not match the configured grid")
    action = DiscreteAction(cfg)
    y = np.empty(2 * n + 4)
    y[:-4:2], y[1:-4:2], y[-4:] = s.t1, s.x1, s.lam[4:]

    def gradient(y):
        """R grad E at the lift of y, and the doubled system's ||grad E||."""
        r = action.gradient(y[:-4:2], y[1:-4:2], np.append(np.zeros(4), y[-4:]))
        return r, math.sqrt(r[:4] @ r[:4] + 2.0 * (r[4:] @ r[4:]))

    r, grad_norm = gradient(y)
    if not np.isfinite(grad_norm):
        raise SingularSystem(f"gradient norm {grad_norm} at the initial guess")
    history = [grad_norm]

    def result(y, grad_norm, iterations, converged, termination="converged"):
        return Solution(
            state=_lift(y),
            gamma=cfg.gamma_grid,
            grad_norm=grad_norm,
            iterations=iterations,
            converged=converged,
            grad_history=tuple(history),
            termination=termination,
        )

    for iterations in range(opts.max_iter + 1):
        y_scale = 1.0 + float(np.max(np.abs(y)))
        if grad_norm <= opts.grad_tol * y_scale:
            return result(y, grad_norm, iterations, True)
        if iterations == opts.max_iter:
            break

        try:
            hess = action.hessian(y[:-4:2], y[1:-4:2])
            step = hess.solve(r)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"{exc} at iteration {iterations}") from None
        at_floor = float(np.max(np.abs(step))) <= _SQRT_EPS * y_scale

        # backtracking on the squared gradient norm
        merit = grad_norm ** 2
        alpha = 1.0
        while True:
            y_trial = y + alpha * step
            r_trial, norm_trial = gradient(y_trial)
            if norm_trial ** 2 <= (1.0 - _LS_DECREASE * alpha) * merit:
                break
            if at_floor and np.isfinite(norm_trial):
                # a tiny full step that cannot lower the merit: rounding floor
                history.append(norm_trial)
                return result(y_trial, norm_trial, iterations + 1, True, "roundoff_floor")
            alpha *= _LS_SHRINK
            if alpha < _MIN_STEP:
                raise NonConvergence(result(y, grad_norm, iterations, False, "stalled"))
        if alpha == 1.0 and norm_trial > opts.grad_tol * (1.0 + float(np.max(np.abs(y_trial)))):
            # a chord step on the same LU (Deuflhard 2004, sec. 2.1)
            chord = hess.resolve(r_trial)
            y_c = y_trial + chord
            r_c, norm_c = gradient(y_c)
            scale = 1.0 + float(np.max(np.abs(y_c)))
            passed = norm_c <= opts.grad_tol * scale
            tiny = float(np.max(np.abs(chord))) <= _SQRT_EPS * scale
            if not passed and tiny and norm_c >= 0.5 * norm_trial:
                history.append(min(norm_c, norm_trial))
                best = y_c if norm_c < norm_trial else y_trial
                return result(best, history[-1], iterations + 1, True, "roundoff_floor")
            if passed or norm_c ** 2 <= (1.0 - _LS_DECREASE) * norm_trial ** 2:
                y_trial, r_trial, norm_trial = y_c, r_c, norm_c
        y, r, grad_norm = y_trial, r_trial, norm_trial
        history.append(grad_norm)
        del hess  # its band and LU factors go before the next assembly

    raise NonConvergence(result(y, grad_norm, iterations, False, "max_iter"))


def continuation_solve(
    cfg: ProblemConfig,
    opts: SolveOptions | None = None,
    from_solution: Solution | None = None,
) -> Solution:
    """Solve with a warm start interpolated from an earlier solution.

    Branch 1's coordinates are linearly interpolated in gamma onto the new
    grid (``solve`` projects onto the physical limit); the multipliers are
    carried over unchanged.  Without ``from_solution`` it is a cold solve.
    """
    if from_solution is None:
        return solve(cfg, opts)
    prev, old_gamma = from_solution.state, from_solution.gamma
    t = np.interp(cfg.gamma_grid, old_gamma, prev.t1)
    x = np.interp(cfg.gamma_grid, old_gamma, prev.x1)
    return solve(cfg, opts, guess=StateVector(t1=t, t2=t, x1=x, x2=x, lam=prev.lam))
