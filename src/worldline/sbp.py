"""Summation-by-parts (SBP) first-derivative operators and quadrature norms.

A diagonal-norm SBP operator is a pair (D, H) with D = H^{-1} Q and
Q + Q^T = diag(-1, 0, ..., 0, 1), so that u^T H (D v) + (D u)^T H v equals
the boundary term u_N v_N - u_0 v_0 for every pair of grid functions.  This
discrete integration-by-parts rule is what lets a variational principle and
its conserved quantities survive discretization.

Two operator families are provided:

* ``sbp21`` -- second-order interior stencil, first-order closures,
  trapezoidal quadrature.
* ``sbp42`` -- fourth-order interior stencil, second-order four-row
  closures, with the matching boundary quadrature weights.

Each family is a left closure block, its mirrored and negated copy at the
right boundary, and an interior stencil in between.  One builder assembles
either family from its table into the O(n) entries of D, listed row by row
as ``rows``, ``cols`` and ``vals``, from which ``apply`` and ``apply_t``
compute D u and D^T v.  The norm H is stored as its diagonal, the vector
``h`` of quadrature weights.  The dense ``d`` and ``dbar`` are built on
request only.

``regularize`` absorbs an initial-value penalty term into either family.
The result is an operator of the same type: D u becomes M u + s, where M
differs from D in its (0, 0) entry only and s, the operator's ``shift0``,
is zero past its first entry.  A classical operator is the case
``shift0 = 0``.  The penalty lifts the highly oscillatory left null mode of
D, so M is nonsingular and safe to use inside a quadratic functional.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SbpOperator",
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


def _product(rows, cols, vals, u) -> np.ndarray:
    """Sum vals[e] u[cols[e]] into rows[e]: D u, or D^T u with rows and cols swapped."""
    return np.bincount(rows, weights=vals * u[cols], minlength=u.shape[0])


@dataclass(frozen=True)
class SbpOperator:
    """An SBP operator: the entries of its matrix, a shift and the norm weights ``h``.

    Entry e of the matrix is ``vals[e]`` at (``rows[e]``, ``cols[e]``),
    listed row by row, and entry 0 is its (0, 0) entry.  ``apply`` adds
    ``shift0`` to the first entry of the product.  A classical operator is
    D with no shift; a regularized one, made by ``regularize``, is
    M = D - sigma0 H^{-1} E_0 with the shift s = sigma0 H^{-1} E_0 g, where
    g = (init_value, 0, ..., 0) and sigma0 = ``SIGMA0``.
    """

    n: int
    dgamma: float
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    h: np.ndarray
    interior_order: int
    boundary_order: int
    shift0: float = 0.0

    def apply(self, u: np.ndarray) -> np.ndarray:
        """D u + s."""
        w = _product(self.rows, self.cols, self.vals, u)
        w[0] += self.shift0
        return w

    def apply_t(self, v: np.ndarray) -> np.ndarray:
        """D^T v."""
        return _product(self.cols, self.rows, self.vals, v)

    @property
    def d(self) -> np.ndarray:
        """The dense matrix: D, or M for a regularized operator."""
        d = np.zeros((self.n, self.n))
        d[self.rows, self.cols] = self.vals
        return d

    @property
    def dbar(self) -> np.ndarray:
        """The affine (n+1) x (n+1) form acting on (u_0, ..., u_{n-1}, 1)."""
        dbar = np.pad(self.d, (0, 1))
        dbar[0, -1] = self.shift0
        dbar[-1, -1] = 1.0
        return dbar


# Per family: the left closure rows (in units of 1/dgamma), the centred
# interior stencil, the left boundary quadrature weights, and the interior
# and boundary orders.  The right closure is the mirror image of the left
# one with flipped sign, which is the unique completion satisfying the SBP
# identity together with the mirrored quadrature weights.  The closure keeps
# its zeros: mirrored, they are the -0.0 entries `dump-operator` prints.
_FAMILIES = {
    "sbp21": ([[-1.0, 1.0]], [-1 / 2, 0.0, 1 / 2], [1 / 2], 2, 1),
    "sbp42": (
        [
            [-24 / 17, 59 / 34, -4 / 17, -3 / 34, 0.0, 0.0],
            [-1 / 2, 0.0, 1 / 2, 0.0, 0.0, 0.0],
            [4 / 43, -59 / 86, 0.0, 59 / 86, -4 / 43, 0.0],
            [3 / 98, 0.0, -59 / 98, 0.0, 32 / 49, -4 / 49],
        ],
        [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12],
        [17 / 48, 59 / 48, 43 / 48, 49 / 48],
        4,
        2,
    ),
}


def build_operator(order: str, n: int, dgamma: float) -> SbpOperator:
    """Build the operator of family ``order`` ("sbp21" or "sbp42")."""
    family = order.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown operator order {order!r}")
    minimum = MIN_POINTS[family]
    if int(n) != n or n < minimum:
        raise ValueError(f"{family} needs at least {minimum} grid points, got {n}")
    if not 0.0 < dgamma < np.inf:
        raise ValueError(f"grid spacing must be positive and finite, got {dgamma}")
    n = int(n)
    *arrays, interior_order, boundary_order = _FAMILIES[family]
    closure, stencil, h_boundary = map(np.array, arrays)

    # the left closure row by row, the stencil's nonzeros on each interior
    # row, then the closure mirrored by (i, j) -> (n-1-i, n-1-j)
    ci, cj = np.divmod(np.arange(closure.size), closure.shape[1])
    offsets = np.flatnonzero(stencil)
    interior = np.arange(closure.shape[0], n - closure.shape[0])
    rows = np.concatenate([ci, np.repeat(interior, offsets.size), n - 1 - ci[::-1]])
    shifted = interior[:, None] + (offsets - stencil.size // 2)
    cols = np.concatenate([cj, shifted.ravel(), n - 1 - cj[::-1]])
    c = closure.ravel()
    vals = np.concatenate([c, np.tile(stencil[offsets], interior.size), -c[::-1]])

    hd = np.concatenate([h_boundary, np.ones(interior.size), h_boundary[::-1]])

    return SbpOperator(
        n=n,
        dgamma=float(dgamma),
        rows=_freeze(rows),
        cols=_freeze(cols),
        vals=_freeze(vals / dgamma),
        h=_freeze(hd * dgamma),
        interior_order=interior_order,
        boundary_order=boundary_order,
    )


def regularize(op: SbpOperator, init_value: float) -> SbpOperator:
    """Absorb the initial-value penalty: change entry 0, D[0, 0], and add a shift.

    The result shares ``rows``, ``cols`` and ``h`` with ``op``.
    """
    if not np.isfinite(init_value):
        raise ValueError(f"init_value must be finite, got {init_value}")
    h00 = op.h[0]
    vals = op.vals.copy()
    vals[0] -= SIGMA0 / h00
    return replace(op, vals=_freeze(vals), shift0=SIGMA0 * init_value / h00)
