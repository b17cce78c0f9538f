"""Summation-by-parts (SBP) first-derivative operators and quadrature norms.

A diagonal-norm SBP operator is a pair (D, H) with D = H^{-1} Q and
Q + Q^T = diag(-1, 0, ..., 0, 1), so that u^T H (D v) + (D u)^T H v equals
the boundary term u_N v_N - u_0 v_0 for every pair of grid functions.  This
discrete integration-by-parts rule is what lets a variational principle and
its conserved quantities survive discretization.

Two operator families are provided:

* ``build_sbp21`` -- second-order interior stencil, first-order closures,
  trapezoidal quadrature.
* ``build_sbp42`` -- fourth-order interior stencil, second-order four-row
  closures, with the matching boundary quadrature weights.

The norm H is stored as its diagonal, the vector ``h`` of quadrature
weights.  ``regularize`` absorbs an initial-value penalty term into either
family: D u becomes M u + s with an n x n block M and a shift vector s.
The penalty lifts the highly oscillatory left null mode of D, so M is
nonsingular and safe to use inside a quadratic functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SbpOperator",
    "RegularizedOperator",
    "build_sbp21",
    "build_sbp42",
    "build_operator",
    "regularize",
    "MIN_POINTS",
    "SIGMA0",
]

# SAT penalty weight; -1 gives the smallest discretization error and a
# nonsingular regularized operator.
SIGMA0 = -1.0

# Smallest grid on which each family's boundary closures do not overlap.
MIN_POINTS = {"sbp21": 3, "sbp42": 9}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SbpOperator:
    """Classical SBP pair: differentiation matrix ``d`` and norm weights ``h``."""

    n: int
    dgamma: float
    d: np.ndarray
    h: np.ndarray
    interior_order: int
    boundary_order: int

    @property
    def q(self) -> np.ndarray:
        """Almost-skew part Q = H D."""
        return self.h[:, None] * self.d


@dataclass(frozen=True)
class RegularizedOperator:
    """An SBP operator with the initial-value penalty absorbed.

    The regularized derivative of u is ``m_block @ u + shift``: ``m_block``
    is D - sigma0 * H^{-1} E_0 and ``shift`` is sigma0 * H^{-1} E_0 g with
    g = (init_value, 0, ..., 0), for sigma0 = ``SIGMA0``.
    """

    base: SbpOperator
    m_block: np.ndarray
    shift: np.ndarray
    init_value: float

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def dbar(self) -> np.ndarray:
        """The affine (n+1) x (n+1) form acting on (u_0, ..., u_{n-1}, 1)."""
        n = self.n
        dbar = np.zeros((n + 1, n + 1))
        dbar[:n, :n] = self.m_block
        dbar[:n, n] = self.shift
        dbar[n, n] = 1.0
        return dbar


def _validate_grid(n: int, dgamma: float, minimum: int, family: str) -> None:
    if int(n) != n or n < minimum:
        raise ValueError(f"{family} needs at least {minimum} grid points, got {n}")
    if not 0.0 < dgamma < np.inf:
        raise ValueError(f"grid spacing must be positive and finite, got {dgamma}")


def build_sbp21(n: int, dgamma: float) -> SbpOperator:
    """Second-order SBP operator with trapezoidal quadrature."""
    _validate_grid(n, dgamma, MIN_POINTS["sbp21"], "sbp21")
    n = int(n)

    hd = np.ones(n)
    hd[0] = hd[-1] = 0.5

    d = np.zeros((n, n))
    d[0, 0], d[0, 1] = -1.0, 1.0
    d[-1, -2], d[-1, -1] = -1.0, 1.0
    for i in range(1, n - 1):
        d[i, i - 1] = -0.5
        d[i, i + 1] = 0.5

    return SbpOperator(
        n=n,
        dgamma=float(dgamma),
        d=_freeze(d / dgamma),
        h=_freeze(hd * dgamma),
        interior_order=2,
        boundary_order=1,
    )


# Left boundary closure of the fourth-order operator (rows x first six
# columns, in units of 1/dgamma).  The right closure is the mirror image
# with flipped sign, which is the unique completion satisfying the SBP
# identity together with the mirrored quadrature weights.
_SBP42_BOUNDARY_ROWS = np.array(
    [
        [-24 / 17, 59 / 34, -4 / 17, -3 / 34, 0.0, 0.0],
        [-1 / 2, 0.0, 1 / 2, 0.0, 0.0, 0.0],
        [4 / 43, -59 / 86, 0.0, 59 / 86, -4 / 43, 0.0],
        [3 / 98, 0.0, -59 / 98, 0.0, 32 / 49, -4 / 49],
    ]
)

_SBP42_H_BOUNDARY = np.array([17 / 48, 59 / 48, 43 / 48, 49 / 48])

_SBP42_INTERIOR = np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])


def build_sbp42(n: int, dgamma: float) -> SbpOperator:
    """Fourth-order-interior SBP operator with four-row boundary closures."""
    _validate_grid(n, dgamma, MIN_POINTS["sbp42"], "sbp42")
    n = int(n)

    hd = np.ones(n)
    hd[:4] = _SBP42_H_BOUNDARY
    hd[-4:] = _SBP42_H_BOUNDARY[::-1]

    d = np.zeros((n, n))
    d[:4, :6] = _SBP42_BOUNDARY_ROWS
    # mirror-and-negate: D -> -P D P with P the reversal permutation
    d[-4:, -6:] = -_SBP42_BOUNDARY_ROWS[::-1, ::-1]
    for i in range(4, n - 4):
        d[i, i - 2 : i + 3] = _SBP42_INTERIOR

    return SbpOperator(
        n=n,
        dgamma=float(dgamma),
        d=_freeze(d / dgamma),
        h=_freeze(hd * dgamma),
        interior_order=4,
        boundary_order=2,
    )


_BUILDERS = {"sbp21": build_sbp21, "sbp42": build_sbp42}


def build_operator(order: str, n: int, dgamma: float) -> SbpOperator:
    """Dispatch on the operator family name ("sbp21" or "sbp42")."""
    try:
        builder = _BUILDERS[order.lower()]
    except KeyError:
        raise ValueError(f"unknown operator order {order!r}") from None
    return builder(n, dgamma)


def regularize(op: SbpOperator, init_value: float) -> RegularizedOperator:
    """Absorb the initial-value penalty into a block and a shift.

    The block is D - sigma0 * H^{-1} E_0 and the shift sigma0 * H^{-1} E_0 g,
    with g carrying ``init_value`` in its first entry.
    """
    if not np.isfinite(init_value):
        raise ValueError(f"init_value must be finite, got {init_value}")
    h00 = op.h[0]
    m_block = op.d.copy()
    m_block[0, 0] -= SIGMA0 / h00
    shift = np.zeros(op.n)
    shift[0] = SIGMA0 * init_value / h00
    return RegularizedOperator(
        base=op,
        m_block=_freeze(m_block),
        shift=_freeze(shift),
        init_value=float(init_value),
    )
