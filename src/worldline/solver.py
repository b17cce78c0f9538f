"""Damped Newton search for the critical point of the discrete action.

The critical point is a saddle, so the action is never minimized directly.
Instead the stationarity system grad E = 0 is solved by Newton's method
with Levenberg damping, using ||grad E||^2 as the line-search merit: the
saddle becomes the global minimum of the merit, and every accepted step
decreases it.

Each step solves the half-size physical-limit system R H P, the one
Hessian ``DiscreteAction.hessian`` assembles (from branch 1, in band
storage).  Its 2n + 4 unknowns (t1, x1, lam_5..lam_8) lift to t2 = t1,
x2 = x1, lam_1..lam_4 = 0: every iterate lies on that limit, where branch
2's rows of grad E are -(branch 1's) and the lam_5..lam_8 rows vanish, so
the lifted step is the doubled Newton step.  LAPACK's band LU ``dgbsv``
factors it in O(n) (kl/ku = 8/2 for sbp21, 14/6 for sbp42).  A gradient
or Hessian that is not finite ends the solve with ``SingularSystem`` at
once, since no damping can repair it.

The solve stops on one of two tests.  The gradient test passes once
||grad||_2 <= grad_tol * (1 + ||z||_inf) (``termination == "converged"``).
At large n the gradient's rounding floor can lie above that bound, so the
solve also stops at the floor (``termination == "roundoff_floor"``): when
a nearly undamped step (mu <= lm_damping_init) is tiny,
||dz||_inf <= sqrt(eps) * (1 + ||z||_inf), and the full step still fails
the Armijo test, the full-step iterate is returned.  In the quadratic
region such a step leaves an error of about eps, so a full step that
cannot lower the merit means the gradient is rounding noise
(Dennis & Schnabel, ch. 7).  Both count as converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .action import (
    BandedHessian,
    DiscreteAction,
    InvalidConfig,
    ProblemConfig,
    StateVector,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "NonConvergence",
    "SingularSystem",
    "InvalidConfig",
    "initial_guess",
    "solve",
    "continuation_solve",
]

_MAX_DAMPING = 1e12
_MIN_STEP = 1e-14
_SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))


class NonConvergence(RuntimeError):
    """Newton ran out of iterations; ``solution`` holds the best iterate."""

    def __init__(self, solution: "Solution"):
        self.solution = solution
        super().__init__(
            f"no convergence after {solution.iterations} iterations "
            f"(best gradient norm {solution.grad_norm:.3e})"
        )


class SingularSystem(RuntimeError):
    """The Newton system is not finite, or not solvable at maximal damping."""


@dataclass(frozen=True)
class SolveOptions:
    """Termination and globalization parameters.

    ``grad_tol`` is a relative factor: the solve stops once
    ||grad||_2 <= grad_tol * (1 + ||state||_inf), which keeps refinement
    sweeps comparable as operator norms grow with the grid.  A solve whose
    gradient floor lies above that bound stops at the floor instead: once a
    step damped by at most ``lm_damping_init`` is below
    sqrt(eps) * (1 + ||state||_inf) and its full length fails the Armijo
    test, the full-step iterate is returned with
    ``termination == "roundoff_floor"``.
    """

    grad_tol: float = 1e-12
    max_iter: int = 200
    lm_damping_init: float = 1e-8
    ls_shrink: float = 0.5
    ls_decrease: float = 1e-4

    def __post_init__(self):
        # an infinite grad_tol would accept the initial guess as converged
        for name in ("grad_tol", "lm_damping_init"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        # with ls_shrink >= 1 backtracking never falls below _MIN_STEP
        for name in ("ls_shrink", "ls_decrease"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie strictly between 0 and 1")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")


@dataclass(frozen=True)
class Solution:
    """Result of a critical-point search.

    ``termination`` says why a converged solve stopped: ``"converged"``
    when the gradient test passed, ``"roundoff_floor"`` when the step test
    at the rounding floor did.  In the latter case the last entry of
    ``grad_history`` is the floor iterate's gradient norm, which need not
    be below the one before it.  The best iterate carried by
    ``NonConvergence`` has ``"max_iter"`` or ``"max_damping"``.
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


def _newton_step(hess: BandedHessian, grad: np.ndarray, mu: float) -> np.ndarray:
    """Solve the damped half-size system (R H P + mu I) y = -R grad, lifted."""
    ab = hess.ab.copy()
    ab[hess.kl + hess.ku] += mu
    _, _, y, info = scipy.linalg.lapack.dgbsv(
        hess.kl, hess.ku, ab, -hess.restrict(grad), overwrite_ab=True, overwrite_b=True
    )
    if info != 0 or not np.all(np.isfinite(y)):
        raise np.linalg.LinAlgError("singular or non-finite Newton step")
    return hess.lift(y)


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

    The guess is projected onto the physical limit (t2 := t1, x2 := x1,
    lam_1..lam_4 := 0) first, so it returns the same state as its
    projection.  Raises NonConvergence when the iteration cap is hit (the
    exception carries the best iterate) and SingularSystem when the gradient
    norm or a Hessian entry is not finite, or the damped system cannot be
    factorized at any damping level.
    """
    opts = opts or SolveOptions()
    action = DiscreteAction(cfg)
    n = cfg.n_gamma

    s = guess if guess is not None else initial_guess(cfg)
    if s.n != n:
        raise InvalidConfig("guess does not match the configured grid")
    z = replace(s, t2=s.t1, x2=s.x1, lam=np.append(np.zeros(4), s.lam[4:])).pack()

    mu = opts.lm_damping_init
    grad = action.gradient(StateVector.unpack(z, n))
    grad_norm = float(np.linalg.norm(grad))
    if not np.isfinite(grad_norm):
        raise SingularSystem(f"gradient norm {grad_norm} at the initial guess")
    history = [grad_norm]
    best_z, best_norm, iterations = z, grad_norm, 0

    def result(z, grad_norm, iterations, converged, termination="converged"):
        return Solution(
            state=StateVector.unpack(z, n),
            gamma=cfg.gamma_grid,
            grad_norm=grad_norm,
            iterations=iterations,
            converged=converged,
            grad_history=tuple(history),
            termination=termination,
        )

    for iterations in range(opts.max_iter + 1):
        z_scale = 1.0 + float(np.max(np.abs(z)))
        if grad_norm <= opts.grad_tol * z_scale:
            return result(z, grad_norm, iterations, True)
        if iterations == opts.max_iter:
            break

        hess = action.hessian(StateVector.unpack(z, n))
        if not np.all(np.isfinite(hess.ab)):
            raise SingularSystem(f"non-finite Hessian at iteration {iterations}")
        while True:
            try:
                step = _newton_step(hess, grad, mu)
                break
            except np.linalg.LinAlgError:
                mu = max(mu, 1e-10) * 100.0
                if mu > _MAX_DAMPING:
                    raise SingularSystem(
                        f"Newton system singular at damping {mu:.1e}"
                    ) from None
        at_floor = (
            mu <= opts.lm_damping_init
            and float(np.max(np.abs(step))) <= _SQRT_EPS * z_scale
        )

        # backtracking on the squared gradient norm
        merit = grad_norm ** 2
        alpha = 1.0
        accepted = False
        while alpha >= _MIN_STEP:
            z_trial = z + alpha * step
            grad_trial = action.gradient(StateVector.unpack(z_trial, n))
            norm_trial = float(np.linalg.norm(grad_trial))
            if norm_trial ** 2 <= (1.0 - opts.ls_decrease * alpha) * merit:
                accepted = True
                break
            if at_floor and np.isfinite(norm_trial):
                # a tiny full step that cannot lower the merit: rounding floor
                history.append(norm_trial)
                return result(z_trial, norm_trial, iterations + 1, True, "roundoff_floor")
            alpha *= opts.ls_shrink

        if accepted:
            z, grad, grad_norm = z_trial, grad_trial, norm_trial
            history.append(grad_norm)
            mu *= 0.25
            if grad_norm < best_norm:
                best_z, best_norm = z, grad_norm
        else:
            # flat or ascending direction: retry with stronger damping
            mu = max(mu, 1e-10) * 100.0
            if mu > _MAX_DAMPING:
                break

    stop = "max_damping" if mu > _MAX_DAMPING else "max_iter"
    raise NonConvergence(result(best_z, best_norm, iterations, False, stop))


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
