"""Potentials, problem configuration, and the discretized doubled action.

The dynamics of a point particle of mass m in a potential V(x) is recast as
free geodesic motion in a metric with temporal component

    g00(x) = c^2 + 2 V(x) / m,    g11 = -1,

and both t(gamma) and x(gamma) become unknowns over the world-line parameter
gamma.  For a causal initial value problem the degrees of freedom are
doubled into a forward branch (t1, x1) and a backward branch (t2, x2) that
enters the action with opposite sign.  Eight Lagrange multipliers enforce
the four initial conditions on branch 1 and the four conditions connecting
the two branches at the final grid point.

The discrete action evaluated here is

    E = 1/2 (Dr t1)^T diag[g00(x1)] H (Dr t1) - 1/2 (Dr x1)^T H (Dr x1)
      - (same with branch 2)
      + lam . constraints

with Dr u = M u + s the regularized SBP derivative, H = diag(h) the
quadrature, and the constraint rows built from the classical operator D.
M, D and their transposes are applied from the operators' O(n) stored
entries, so no n x n matrix is formed.

The answer lies on the physical limit t2 = t1, x2 = x1, lam_1..lam_4 = 0,
where branch 2's gradient rows are -(branch 1's) and the lam_5..lam_8 rows
vanish.  So the only Hessian built is R H P, the 2n + 4 physical-limit
matrix: rows lam_1..lam_4, then (t1, x1) point by point; columns (t1, x1)
point by point, then lam_5..lam_8.  No entry of those rows lies in a
branch-2 column, so ``hessian`` assembles it from branch 1 alone, straight
into LAPACK band storage (kl/ku = 8/2 for sbp21, 14/6 for sbp42).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sbp import MIN_POINTS, SbpOperator, build_operator, regularize

__all__ = [
    "InvalidConfig",
    "Potential",
    "free_potential",
    "linear_potential",
    "quartic_potential",
    "custom_potential",
    "ProblemConfig",
    "StateVector",
    "BandedHessian",
    "DiscreteAction",
    "metric_g00",
    "metric_g00_prime",
    "metric_g00_second",
]


class InvalidConfig(ValueError):
    """Raised when a problem configuration violates its invariants."""


@dataclass(frozen=True)
class Potential:
    """Scalar potential with first and second derivatives.

    ``v``, ``dv`` and ``d2v`` accept scalars or arrays elementwise.  The
    label doubles as the serialization type tag; ``params`` holds the
    named coefficients of the built-in families.
    """

    v: Callable
    dv: Callable
    d2v: Callable
    label: str
    params: dict = field(default_factory=dict)

    @property
    def is_free(self) -> bool:
        return self.label == "free"


def free_potential() -> Potential:
    """V = 0: flat metric, straight-line geodesics."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Potential(v=zero, dv=zero, d2v=zero, label="free")


def _finite_coefficient(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidConfig(f"{name} must be finite, got {value}")
    return value


def linear_potential(alpha: float) -> Potential:
    """V = alpha * x, a constant force."""
    alpha = _finite_coefficient("alpha", alpha)
    return Potential(
        v=lambda x: alpha * np.asarray(x, dtype=float),
        dv=lambda x: np.full_like(np.asarray(x, dtype=float), alpha),
        d2v=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        label="linear",
        params={"alpha": alpha},
    )


def quartic_potential(kappa: float) -> Potential:
    """V = kappa * x^4, strongly anharmonic."""
    kappa = _finite_coefficient("kappa", kappa)
    return Potential(
        v=lambda x: kappa * np.asarray(x, dtype=float) ** 4,
        dv=lambda x: 4.0 * kappa * np.asarray(x, dtype=float) ** 3,
        d2v=lambda x: 12.0 * kappa * np.asarray(x, dtype=float) ** 2,
        label="quartic",
        params={"kappa": kappa},
    )


def custom_potential(v, dv, d2v=None, label="custom") -> Potential:
    """User-supplied potential; d2v falls back to differencing dv."""
    if d2v is None:

        def d2v(x, _dv=dv):
            x = np.asarray(x, dtype=float)
            h = 1e-5 * (1.0 + np.abs(x))
            return (_dv(x + h) - _dv(x - h)) / (2.0 * h)

    return Potential(v=v, dv=dv, d2v=d2v, label=label)


_POTENTIAL_BUILDERS = {
    "free": lambda params: free_potential(),
    "linear": lambda params: linear_potential(params["alpha"]),
    "quartic": lambda params: quartic_potential(params["kappa"]),
}


@dataclass(frozen=True)
class ProblemConfig:
    """Physical constants, initial data, grid, and operator choice.

    The initial world-line velocities tdot_i and xdot_i are individually
    free; only their ratio xdot_i/tdot_i is the physical initial velocity,
    which must stay below c.  The simulated time window is not prescribed:
    it emerges from the evolution and scales with tdot_i.
    """

    potential: Potential
    m: float = 1.0
    c: float = 1.0
    t_i: float = 0.0
    x_i: float = 1.0
    tdot_i: float = 1.0
    xdot_i: float = 0.1
    n_gamma: int = 32
    gamma_i: float = 0.0
    gamma_f: float = 1.0
    order: str = "sbp21"

    def __post_init__(self):
        if not isinstance(self.order, str):
            raise InvalidConfig(f"order must be a string, got {self.order!r}")
        if not isinstance(self.n_gamma, (int, np.integer)):
            raise InvalidConfig(f"n_gamma must be an integer, got {self.n_gamma!r}")
        for name in ("m", "c", "t_i", "x_i", "tdot_i", "xdot_i", "gamma_i", "gamma_f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value!r}")
        object.__setattr__(self, "order", self.order.lower())
        if self.order not in MIN_POINTS:
            raise InvalidConfig(f"unknown operator order {self.order!r}")
        if self.m <= 0 or self.c <= 0:
            raise InvalidConfig("mass and speed of light must be positive")
        if not self.tdot_i > 0:
            raise InvalidConfig("tdot_i must be positive: time flows forward")
        if not self.gamma_f > self.gamma_i:
            raise InvalidConfig("gamma_f must exceed gamma_i")
        if self.n_gamma < MIN_POINTS[self.order]:
            raise InvalidConfig(
                f"{self.order} needs n_gamma >= {MIN_POINTS[self.order]}, "
                f"got {self.n_gamma}"
            )
        if not abs(self.v_init) < self.c:
            raise InvalidConfig(
                f"initial velocity {self.v_init} is not below the speed of light"
            )

    @property
    def v_init(self) -> float:
        """Physical initial velocity dx/dt."""
        return self.xdot_i / self.tdot_i

    @property
    def dgamma(self) -> float:
        return (self.gamma_f - self.gamma_i) / (self.n_gamma - 1)

    @property
    def gamma_grid(self) -> np.ndarray:
        return np.linspace(self.gamma_i, self.gamma_f, self.n_gamma)

    def build_operator(self) -> SbpOperator:
        return build_operator(self.order, self.n_gamma, self.dgamma)

    def to_json_dict(self) -> dict:
        if self.potential.label not in _POTENTIAL_BUILDERS:
            raise InvalidConfig(
                f"potential {self.potential.label!r} is not serializable"
            )
        return {
            "m": self.m,
            "c": self.c,
            "t_i": self.t_i,
            "x_i": self.x_i,
            "tdot_i": self.tdot_i,
            "xdot_i": self.xdot_i,
            "n_gamma": self.n_gamma,
            "gamma_i": self.gamma_i,
            "gamma_f": self.gamma_f,
            "order": self.order,
            "potential": {"type": self.potential.label, **self.potential.params},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemConfig":
        if not isinstance(data, dict):
            raise InvalidConfig(f"configuration must be a JSON object, got {data!r}")
        try:
            pot_spec = dict(data["potential"])
            pot_type = pot_spec.pop("type")
            potential = _POTENTIAL_BUILDERS[pot_type](pot_spec)
        except (KeyError, TypeError) as exc:
            raise InvalidConfig(f"bad potential specification: {exc}") from exc
        kwargs = {k: v for k, v in data.items() if k != "potential"}
        try:
            return cls(potential=potential, **kwargs)
        except TypeError as exc:
            raise InvalidConfig(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProblemConfig":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class StateVector:
    """Unknowns of the discrete variational problem.

    Four coordinate vectors of length n plus eight multipliers; packs to a
    flat vector of length 4n + 8 in the order (t1, t2, x1, x2, lam).
    """

    t1: np.ndarray
    t2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("t1", "t2", "x1", "x2", "lam"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), dtype=float)
            )
        n = self.t1.shape
        if not (self.t2.shape == self.x1.shape == self.x2.shape == n):
            raise ValueError("coordinate vectors must share one length")
        if self.lam.shape != (8,):
            raise ValueError("exactly eight Lagrange multipliers are required")

    @property
    def n(self) -> int:
        return self.t1.shape[0]

    def pack(self) -> np.ndarray:
        return np.concatenate([self.t1, self.t2, self.x1, self.x2, self.lam])

    @classmethod
    def unpack(cls, z: np.ndarray, n: int) -> "StateVector":
        z = np.asarray(z, dtype=float)
        if z.shape != (4 * n + 8,):
            raise ValueError(f"expected a packed vector of length {4 * n + 8}")
        return cls(
            t1=z[:n],
            t2=z[n : 2 * n],
            x1=z[2 * n : 3 * n],
            x2=z[3 * n : 4 * n],
            lam=z[4 * n :],
        )


# The metric and its x-derivatives, elementwise on a scalar or an array x.
# The geodesic oracle calls them per right-hand-side evaluation, so they
# add no conversion of their own.
def metric_g00(x, cfg: ProblemConfig):
    """Temporal metric component g00 = c^2 + 2 V(x)/m."""
    return cfg.c ** 2 + 2.0 * cfg.potential.v(x) / cfg.m


def metric_g00_prime(x, cfg: ProblemConfig):
    """g00' = 2 V'(x)/m."""
    return 2.0 * cfg.potential.dv(x) / cfg.m


def metric_g00_second(x, cfg: ProblemConfig):
    """g00'' = 2 V''(x)/m."""
    return 2.0 * cfg.potential.d2v(x) / cfg.m


@dataclass(frozen=True)
class BandedHessian:
    """R H P in LAPACK general-band storage.

    Entry (i, j) sits at ``ab[kl + ku + i - j, j]``; the first ``kl`` rows
    are the room ``dgbsv`` needs for the fill-in of partial pivoting.  Rows
    are lam_1..lam_4, then (t1, x1) point by point; columns are (t1, x1)
    point by point, then lam_5..lam_8.
    """

    ab: np.ndarray
    kl: int
    ku: int

    def __array__(self, dtype=None, copy=None):
        """The dense (2n + 4) x (2n + 4) matrix."""
        r, j = np.nonzero(self.ab[self.kl :])
        size = self.ab.shape[1]
        dense = np.zeros((size, size))
        dense[j + r - self.ku, j] = self.ab[self.kl + r, j]
        return dense if dtype is None else dense.astype(dtype, copy=False)

    @staticmethod
    def restrict(grad: np.ndarray) -> np.ndarray:
        """R grad: lam_1..lam_4, then (t1, x1) point by point."""
        return np.concatenate([grad[-8:-4], grad[:-8].reshape(4, -1)[::2].T.ravel()])

    @staticmethod
    def lift(y: np.ndarray) -> np.ndarray:
        """P y: t2 = t1, x2 = x1, lam_1..lam_4 = 0, in ``StateVector.pack`` order."""
        t, x = y[:-4:2], y[1:-4:2]
        return np.concatenate([t, t, x, x, np.zeros(4), y[-4:]])


class DiscreteAction:
    """Evaluator for the discrete action, its gradient, and R H P.

    Operators, the 8 x 4n constraint Jacobian and the band pattern of R H P
    are assembled once at construction.  The initial-data targets
    of the multiplier constraints are kept as plain attributes, separate
    from the shift absorbed into the regularized operators, so the two roles
    of the initial values can be probed independently.
    """

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.n = cfg.n_gamma
        self.op = cfg.build_operator()
        self.reg_t = regularize(self.op, cfg.t_i)
        self.reg_x = regularize(self.op, cfg.x_i)
        self.h = self.op.h
        # constraint targets for lam_1..lam_4
        self.t_init = cfg.t_i
        self.tdot_init = cfg.tdot_i
        self.x_init = cfg.x_i
        self.xdot_init = cfg.xdot_i
        self._jac = self.constraint_jacobian()
        self._band_pattern()

    def _band_pattern(self) -> None:
        """Record the band slot, coefficient and weight of every term of R H P.

        The weight vector ``hessian`` builds holds g00 h, g00' h wt and
        1/2 g00'' h wt^2 of branch 1 at each grid point, then a constant 1.
        A term contributes coefficient * weight to its slot of the band.
        """
        n = self.n
        # columns of t1 and x1; their rows lie 4 further down, below lam_1..lam_4
        t, x = 2 * np.arange(n), 2 * np.arange(n) + 1
        const = 3 * n

        # Each ordered pair (a, b) of nonzeros in one row k of M gives the
        # term M[k, i_a] w_k M[k, i_b] of M^T diag(w) M.  The entries are
        # listed row by row, so the pairs are too.
        nonzero = self.reg_t.vals != 0
        k, i, m = self.op.rows[nonzero], self.op.cols[nonzero], self.reg_t.vals[nonzero]
        first = np.searchsorted(k, k)
        count = np.searchsorted(k, k, side="right") - first
        a = np.repeat(np.arange(k.size), count)
        b = first[a] + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
        mm, ka = m[a] * m[b], k[a]
        terms = [  # (row, col, coefficient, weight index) arrays
            (4 + t[i[a]], t[i[b]], mm, ka),
            (4 + x[i[a]], x[i[b]], -mm * self.h[ka], np.full(ka.size, const)),
            (4 + x, x, np.ones(n), 2 * n + np.arange(n)),
            (4 + t[i], x[k], m, n + k),
            (4 + x[k], t[i], m, n + k),
        ]

        # the constraint Jacobian on (t1, x1) point by point: rows
        # lam_1..lam_4 of R H P, and its columns lam_5..lam_8 transposed
        jac = self._jac.reshape(8, 4, n)[:, ::2].transpose(0, 2, 1).reshape(8, 2 * n)
        r, c = np.nonzero(jac[:4])
        terms.append((r, c, jac[r, c], np.full(r.size, const)))
        r, c = np.nonzero(jac[4:])
        terms.append((4 + c, 2 * n + r, jac[4 + r, c], np.full(r.size, const)))

        rows, cols, self._coef, self._weight = map(np.concatenate, zip(*terms))
        self.kl = int(np.max(rows - cols))
        self.ku = int(np.max(cols - rows))
        self._band_shape = (2 * self.kl + self.ku + 1, 2 * n + 4)
        self._slot = (self.kl + self.ku + rows - cols) * (2 * n + 4) + cols

    def _check(self, s: StateVector) -> None:
        if s.n != self.n:
            raise ValueError(
                f"state has {s.n} grid points but the action expects {self.n}"
            )

    def _branches(self, s: StateVector):
        yield 1.0, s.t1, s.x1
        yield -1.0, s.t2, s.x2

    def constraints(self, s: StateVector) -> np.ndarray:
        """The eight multiplier residuals, in order lam_1..lam_8."""
        self._check(s)
        # rows 0 and n-1 of D; each residual takes its own dot products, so
        # (D t1)[-1] - (D t2)[-1] rounds as a difference of two end values
        d_first, d_last = self._jac[1, : self.n], self._jac[6, : self.n]
        return np.array(
            [
                s.t1[0] - self.t_init,
                d_first @ s.t1 - self.tdot_init,
                s.x1[0] - self.x_init,
                d_first @ s.x1 - self.xdot_init,
                s.t1[-1] - s.t2[-1],
                s.x1[-1] - s.x2[-1],
                d_last @ s.t1 - d_last @ s.t2,
                d_last @ s.x1 - d_last @ s.x2,
            ]
        )

    def value(self, s: StateVector) -> float:
        self._check(s)
        total = 0.0
        for sign, t, x in self._branches(s):
            wt = self.reg_t.apply(t)
            wx = self.reg_x.apply(x)
            g00 = metric_g00(x, self.cfg)
            total += 0.5 * sign * (
                np.dot(g00 * self.h, wt * wt) - np.dot(self.h, wx * wx)
            )
        return float(total + np.dot(s.lam, self.constraints(s)))

    def gradient(self, s: StateVector) -> np.ndarray:
        self._check(s)
        grad = np.empty((4, self.n))  # t1, t2, x1, x2
        for b, (sign, t, x) in enumerate(self._branches(s)):
            wt = self.reg_t.apply(t)
            wx = self.reg_x.apply(x)
            g00 = metric_g00(x, self.cfg)
            gp = metric_g00_prime(x, self.cfg)
            grad[b] = sign * self.reg_t.apply_t(g00 * self.h * wt)
            grad[2 + b] = sign * (
                0.5 * gp * self.h * wt * wt - self.reg_x.apply_t(self.h * wx)
            )

        coord_grad = grad.ravel() + self._jac.T @ s.lam
        return np.concatenate([coord_grad, self.constraints(s)])

    def constraint_jacobian(self) -> np.ndarray:
        """8 x 4n Jacobian of the constraints w.r.t. the coordinate blocks."""
        n = self.n
        # rows 0 and n-1 of D, as D^T e_0 and D^T e_{n-1}
        d_first, d_last = (self.op.apply_t(np.eye(1, n, k)[0]) for k in (0, n - 1))
        jac = np.zeros((8, 4, n))  # constraint, coordinate block, grid point
        jac[0, 0, 0] = jac[2, 2, 0] = jac[4, 0, -1] = jac[5, 2, -1] = 1.0
        jac[4, 1, -1] = jac[5, 3, -1] = -1.0
        jac[1, 0] = jac[3, 2] = d_first
        jac[6, 0] = jac[7, 2] = d_last
        jac[6, 1] = jac[7, 3] = -d_last
        return jac.reshape(8, 4 * n)

    def hessian(self, s: StateVector) -> BandedHessian:
        """R H P at ``s``, which reads only t1, x1 and the multiplier terms."""
        self._check(s)
        wt = self.reg_t.apply(s.t1)
        weights = [
            metric_g00(s.x1, self.cfg) * self.h,
            metric_g00_prime(s.x1, self.cfg) * self.h * wt,
            0.5 * metric_g00_second(s.x1, self.cfg) * self.h * wt * wt,
            [1.0],
        ]
        values = self._coef * np.concatenate(weights)[self._weight]
        ab = np.bincount(
            self._slot, weights=values, minlength=np.prod(self._band_shape)
        )
        return BandedHessian(ab.reshape(self._band_shape), self.kl, self.ku)
