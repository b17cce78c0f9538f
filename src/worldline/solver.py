"""Damped Newton search for the critical point of the discrete action.

The critical point is a saddle, so the action is never minimized directly.
Instead the stationarity system grad E = 0 is solved by Newton's method
with Levenberg damping, using ||grad E||^2 as the line-search merit: the
saddle becomes the global minimum of the merit, and every accepted step
decreases it.

Each Newton system is banded: ``DiscreteAction.hessian`` orders the
unknowns point by point (bandwidths kl = ku = 10 for sbp21, 20 for sbp42),
and LAPACK's band LU with partial pivoting, ``dgbsv``, solves it in O(n)
per factorisation.  A gradient or Hessian that is not finite ends the solve
with ``SingularSystem`` at once, since no damping can repair it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    sweeps comparable as operator norms grow with the grid.
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
    """Result of a critical-point search."""

    state: StateVector
    gamma: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    grad_history: tuple = field(default=(), repr=False)


def initial_guess(cfg: ProblemConfig) -> StateVector:
    """Straight-line guess matching the initial data on both branches."""
    gamma = cfg.gamma_grid - cfg.gamma_i
    t = cfg.t_i + cfg.tdot_i * gamma
    x = cfg.x_i + cfg.xdot_i * gamma
    return StateVector(t1=t, t2=t.copy(), x1=x, x2=x.copy(), lam=np.zeros(8))


def _solve_damped(hess: BandedHessian, grad: np.ndarray, mu: float) -> np.ndarray:
    ab = hess.ab.copy()
    ab[hess.kl + hess.ku] += mu
    _, _, x, info = scipy.linalg.lapack.dgbsv(
        hess.kl, hess.ku, ab, -grad[hess.order], overwrite_ab=True, overwrite_b=True
    )
    if info != 0 or not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("singular or non-finite Newton step")
    step = np.empty_like(x)
    step[hess.order] = x
    return step


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

    Raises NonConvergence when the iteration cap is hit (the exception
    carries the best iterate) and SingularSystem when the gradient norm or
    a Hessian entry is not finite, or the damped Newton system cannot be
    factorized at any damping level.
    """
    opts = opts or SolveOptions()
    action = DiscreteAction(cfg)
    n = cfg.n_gamma

    z = (guess if guess is not None else initial_guess(cfg)).pack()
    if z.shape != (4 * n + 8,):
        raise InvalidConfig("guess does not match the configured grid")

    mu = opts.lm_damping_init
    grad = action.gradient(StateVector.unpack(z, n))
    grad_norm = float(np.linalg.norm(grad))
    if not np.isfinite(grad_norm):
        raise SingularSystem(f"gradient norm {grad_norm} at the initial guess")
    history = [grad_norm]
    best_z, best_norm, iterations = z, grad_norm, 0

    for iterations in range(opts.max_iter + 1):
        tol = opts.grad_tol * (1.0 + float(np.max(np.abs(z))))
        if grad_norm <= tol:
            return Solution(
                state=StateVector.unpack(z, n),
                gamma=cfg.gamma_grid,
                grad_norm=grad_norm,
                iterations=iterations,
                converged=True,
                grad_history=tuple(history),
            )
        if iterations == opts.max_iter:
            break

        hess = action.hessian(StateVector.unpack(z, n))
        if not np.all(np.isfinite(hess.ab)):
            raise SingularSystem(f"non-finite Hessian at iteration {iterations}")
        while True:
            try:
                step = _solve_damped(hess, grad, mu)
                break
            except np.linalg.LinAlgError:
                mu = max(mu, 1e-10) * 100.0
                if mu > _MAX_DAMPING:
                    raise SingularSystem(
                        f"Newton system singular at damping {mu:.1e}"
                    ) from None

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

    raise NonConvergence(
        Solution(
            state=StateVector.unpack(best_z, n),
            gamma=cfg.gamma_grid,
            grad_norm=best_norm,
            iterations=iterations,
            converged=False,
            grad_history=tuple(history),
        )
    )


def continuation_solve(
    cfg: ProblemConfig,
    opts: SolveOptions | None = None,
    from_solution: Solution | None = None,
) -> Solution:
    """Solve with a warm start interpolated from an earlier solution.

    Coordinates are linearly interpolated in gamma onto the new grid; the
    multipliers are carried over unchanged.  With ``from_solution`` absent
    this reduces to a cold solve.
    """
    if from_solution is None:
        return solve(cfg, opts)
    prev = from_solution.state
    old_gamma = from_solution.gamma
    new_gamma = cfg.gamma_grid
    warm = StateVector(
        t1=np.interp(new_gamma, old_gamma, prev.t1),
        t2=np.interp(new_gamma, old_gamma, prev.t2),
        x1=np.interp(new_gamma, old_gamma, prev.x1),
        x2=np.interp(new_gamma, old_gamma, prev.x2),
        lam=prev.lam.copy(),
    )
    return solve(cfg, opts, guess=warm)
