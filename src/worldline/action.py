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

The discrete action is

    E = 1/2 (Dr t1)^T diag[g00(x1)] H (Dr t1) - 1/2 (Dr x1)^T H (Dr x1)
      - (same with branch 2)
      + lam . constraints

with Dr u = M u + s the regularized SBP derivative, H = diag(h) the
quadrature, and the constraint rows built from the classical operator D.
M, D and their transposes are applied from the operators' O(n) stored
entries, so no n x n matrix is formed.

The answer lies on the physical limit t2 = t1, x2 = x1, lam_1..lam_4 = 0,
where branch 2's gradient rows are -(branch 1's) and the lam_5..lam_8 rows
vanish.  So only that limit is held and evaluated: a ``State`` is (t, x)
with lam_5..lam_8, and ``gradient(t, x, lam)`` is R grad E: rows
lam_1..lam_4, then (t, x) point by point.  The only Hessian built is
R H P, with those rows and the columns (t, x) point by point, then
lam_5..lam_8.  ``hessian(t, x)`` assembles it into LAPACK band storage
(kl/ku = 8/2 for sbp21, 14/6 for sbp42), which ``BandedHessian.solve``
factors in place with ``dgbsv``, in O(n).  Which band slot each term fills
depends on the grid alone: one pattern per grid is cached, within a byte
budget.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import threading
from dataclasses import dataclass, field
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
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
    "State",
    "BandedHessian",
    "DiscreteAction",
    "metric_g00",
    "metric_g00_prime",
    "metric_g00_second",
    "geodesic_rhs",
]


class InvalidConfig(ValueError):
    """Raised when a problem configuration violates its invariants."""


@dataclass(frozen=True)
class Potential:
    """Scalar potential with first and second derivatives.

    ``v``, ``dv`` and ``d2v`` act elementwise on a float or a float array.  The
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
    zero = lambda x: 0.0 * x ** 0
    return Potential(v=zero, dv=zero, d2v=zero, label="free")


def _finite_coefficient(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        value = "an integer too large for a float"
    raise InvalidConfig(f"{name} must be finite, got {value}")


def linear_potential(alpha: float) -> Potential:
    """V = alpha * x, a constant force."""
    alpha = _finite_coefficient("alpha", alpha)
    return Potential(
        v=lambda x: alpha * x,
        dv=lambda x: alpha * x ** 0,
        d2v=lambda x: 0.0 * x ** 0,
        label="linear",
        params={"alpha": alpha},
    )


def quartic_potential(kappa: float) -> Potential:
    """V = kappa * x^4, strongly anharmonic."""
    kappa = _finite_coefficient("kappa", kappa)
    return Potential(
        v=lambda x: kappa * x ** 4,
        dv=lambda x: 4.0 * kappa * x ** 3,
        d2v=lambda x: 12.0 * kappa * x ** 2,
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
    "free": free_potential,
    "linear": linear_potential,
    "quartic": quartic_potential,
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

    __hash__ = None  # not hashable: the potential's params are a dict

    def __post_init__(self):
        if not isinstance(self.order, str):
            raise InvalidConfig(f"order must be a string, got {self.order!r}")
        if isinstance(self.n_gamma, bool) or not isinstance(
            self.n_gamma, (int, np.integer)
        ):
            raise InvalidConfig(f"n_gamma must be an integer, got {self.n_gamma!r}")
        for name in ("m", "c", "t_i", "x_i", "tdot_i", "xdot_i", "gamma_i", "gamma_f"):
            value = _finite_coefficient(name, getattr(self, name))
            object.__setattr__(self, name, value)  # float32 slows the oracle
        object.__setattr__(self, "n_gamma", int(self.n_gamma))
        object.__setattr__(self, "order", self.order.lower())
        if self.order not in MIN_POINTS:
            raise InvalidConfig(f"unknown operator order {self.order!r}")
        if self.m <= 0 or self.c <= 0:
            raise InvalidConfig("mass and speed of light must be positive")
        if not self.tdot_i > 0:
            raise InvalidConfig("tdot_i must be positive: time flows forward")
        if not 0 < self.gamma_f - self.gamma_i < math.inf:
            raise InvalidConfig("gamma_f must exceed gamma_i by a finite span")
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
        """The operator, built on the first call; not a field, so == ignores it."""
        if "_operator" not in self.__dict__:
            op = build_operator(self.order, self.n_gamma, self.dgamma)
            object.__setattr__(self, "_operator", op)
        return self._operator

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
        pot_spec = data.get("potential")
        if not isinstance(pot_spec, dict):
            raise InvalidConfig(f"potential must be a JSON object, got {pot_spec!r}")
        try:
            pot_spec = dict(pot_spec)
            pot_type = pot_spec.pop("type")
            potential = _POTENTIAL_BUILDERS[pot_type](**pot_spec)
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
class State:
    """Unknowns on the physical limit: t and x at each grid point, and lam_5..lam_8.

    ``t`` and ``x`` are 1-D of one length; ``lam`` holds the four
    multipliers of the conditions that join the branches at the last point.
    """

    t: np.ndarray
    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "lam"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.t.ndim != 1 or self.x.shape != self.t.shape:
            raise ValueError("t and x must be 1-D arrays of one length")
        if self.lam.shape != (4,):
            raise ValueError("exactly four Lagrange multipliers (lam_5..lam_8) are required")

    @property
    def n(self) -> int:
        return self.t.shape[0]


# The metric and its x-derivatives, elementwise on a float or a float array x.
# They and ``geodesic_rhs`` add no conversion of their own, and the built-in
# potentials keep a float a float (x ** 0 is 1 even at nan and inf, so
# alpha * x ** 0 is always alpha), so the oracle and the seed run on floats.
def metric_g00(x, cfg: ProblemConfig):
    """Temporal metric component g00 = c^2 + 2 V(x)/m."""
    return cfg.c ** 2 + 2.0 * cfg.potential.v(x) / cfg.m


def metric_g00_prime(x, cfg: ProblemConfig):
    """g00' = 2 V'(x)/m."""
    return 2.0 * cfg.potential.dv(x) / cfg.m


def metric_g00_second(x, cfg: ProblemConfig):
    """g00'' = 2 V''(x)/m."""
    return 2.0 * cfg.potential.d2v(x) / cfg.m


def geodesic_rhs(cfg: ProblemConfig) -> Callable:
    """``rhs(y)``: d/dgamma of y = (t, tdot, x, xdot) for ``cfg``, which it reads once.

    (g00 tdot)' = 0 and xddot = -(g00'/2) tdot^2, with g00 and g00' as
    ``metric_g00`` and ``metric_g00_prime`` compute them, on floats or arrays.
    """
    c2, m, v, dv = cfg.c ** 2, cfg.m, cfg.potential.v, cfg.potential.dv

    def rhs(y):
        _, td, x, xd = y
        g00p = 2.0 * dv(x) / m
        return (td, -(g00p / (c2 + 2.0 * v(x) / m)) * xd * td, xd, -0.5 * g00p * td * td)

    return rhs


@dataclass
class BandedHessian:
    """R H P in LAPACK general-band storage, with its band LU solve.

    Entry (i, j) sits at ``ab[kl + ku + i - j, j]``; the first ``kl`` rows
    are the room ``dgbsv`` needs for the fill-in of partial pivoting, and
    ``ab`` is column-major, so ``solve`` factors it in place (``lu`` keeps
    the factors for ``resolve``).  Rows are lam_1..lam_4, then (t, x)
    point by point; columns are (t, x) point by point, then lam_5..lam_8.
    """

    ab: np.ndarray
    kl: int
    ku: int
    lu: tuple = field(default=(), init=False, repr=False)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """dy with R H P dy = -r; the band LU overwrites ``ab``, or raises LinAlgError."""
        if not np.all(np.isfinite(self.ab)):
            raise np.linalg.LinAlgError("non-finite Hessian")
        lub, piv, dy, info = _flapack().dgbsv(
            self.kl, self.ku, self.ab, -r, overwrite_ab=True, overwrite_b=True
        )
        if info != 0 or not np.all(np.isfinite(dy)):
            raise np.linalg.LinAlgError("singular or non-finite Newton step")
        self.lu = lub, piv
        return dy

    def resolve(self, r: np.ndarray) -> np.ndarray:
        """dy with R H P dy = -r from the band LU of the last ``solve`` (``dgbtrs``)."""
        lub, piv = self.lu
        return _flapack().dgbtrs(lub, self.kl, self.ku, -r, piv, overwrite_b=True)[0]


_FLAPACK: list = []  # scipy's LAPACK wrapper module, once loaded
_FLAPACK_LOCK = threading.Lock()


def _flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file: no scipy package is imported."""
    name = "scipy.linalg._flapack"
    with _FLAPACK_LOCK:
        if not _FLAPACK and name not in sys.modules:
            spec = find_spec("scipy")
            where = Path(spec.submodule_search_locations[0] if spec else "scipy", "linalg")
            if len(found := list(where.glob("_flapack.*"))) != 1:
                raise ImportError(f"found {len(found)} _flapack files in {where}, not one")
            _FLAPACK.append(module_from_spec(spec_from_file_location(name, found[0])))
            sys.modules.pop(name, None)  # a later scipy.linalg makes its own, same functions
        return _FLAPACK[0] if _FLAPACK else sys.modules[name]


# R H P band patterns by grid (family, n, dgamma), least recently used first, and
# their byte budget; a config key would miss on each new initial value or potential
_PATTERNS: dict = {}
_PATTERNS_LOCK = threading.Lock()
_BUDGET = 16 << 20


def _cached_pattern(key: tuple, build: Callable[[], tuple]) -> tuple:
    """The pattern of grid ``key``: cached, or built and cached if it fits."""
    with _PATTERNS_LOCK:
        pattern = _PATTERNS.pop(key, None) or build()
        if sum(a.nbytes for a in pattern[:4]) <= _BUDGET:
            _PATTERNS[key] = pattern  # now the most recently used
        while sum(a.nbytes for p in _PATTERNS.values() for a in p[:4]) > _BUDGET:
            del _PATTERNS[next(iter(_PATTERNS))]
    return pattern


class DiscreteAction:
    """Evaluator for R grad E and R H P on the physical limit.

    The configuration's classical operator ``op`` and its regularized copies
    ``reg_t`` and ``reg_x`` (the same matrix M, each with its own shift) are
    built per action; the branch-1 constraint Jacobian and the band pattern
    of R H P once per grid, shared read-only within a byte budget.  The
    multiplier constraints read their initial data from ``cfg``.
    """

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.n = cfg.n_gamma
        self.op = cfg.build_operator()
        self.reg_t = regularize(self.op, cfg.t_i)
        self.reg_x = regularize(self.op, cfg.x_i)
        self.h = self.op.h
        pattern = _cached_pattern((cfg.order, self.n, cfg.dgamma), self._band_pattern)
        self._jac1, self._slot, self._coef, self._weight = pattern[:4]
        self.kl, self.ku, self._ldab = pattern[4:]

    def _band_pattern(self) -> tuple:
        """The constraint Jacobian on branch 1 and the band pattern of R H P.

        The weight vector ``hessian`` builds holds g00 h, g00' h wt and
        1/2 g00'' h wt^2 of branch 1 at each grid point, then a constant 1.
        A term contributes coefficient * weight to its slot of the band.
        """
        n = self.n
        jac1 = np.zeros((8, n, 2))  # constraint, grid point, t or x
        jac1[0, 0, 0] = jac1[2, 0, 1] = jac1[4, -1, 0] = jac1[5, -1, 1] = 1.0
        # rows 0 and n-1 of D, as D^T e_0 and D^T e_{n-1}: lam_2, lam_4 and lam_7, lam_8
        ends = [self.op.apply_t(np.eye(1, n, k)[0]) for k in (0, n - 1)]
        jac1[[1, 6], :, 0] = jac1[[3, 7], :, 1] = ends
        jac1 = jac1.reshape(8, 2 * n)  # (t, x) point by point
        # columns of t and x; their rows lie 4 further down, below lam_1..lam_4
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

        # the constraint Jacobian on (t, x): rows lam_1..lam_4 of R H P,
        # and its columns lam_5..lam_8 transposed
        r, c = np.nonzero(jac1[:4])
        terms.append((r, c, jac1[r, c], np.full(r.size, const)))
        r, c = np.nonzero(jac1[4:])
        terms.append((4 + c, 2 * n + r, jac1[4 + r, c], np.full(r.size, const)))

        rows, cols, coef, weight = map(np.concatenate, zip(*terms))
        kl, ku = int(np.max(rows - cols)), int(np.max(cols - rows))
        # column-major slots: each column's band rows are contiguous
        ldab = 2 * kl + ku + 1
        slot = cols * ldab + kl + ku + rows - cols
        arrays = (jac1, slot, coef, weight)
        for a in arrays:
            a.flags.writeable = False
        return (*arrays, kl, ku, ldab)

    def _check(self, *coords) -> None:
        for u in coords:
            if len(u) != self.n:
                raise ValueError(
                    f"state has {len(u)} grid points but the action expects {self.n}"
                )

    def gradient(self, t, x, lam) -> np.ndarray:
        """R grad E at (t, x) and lam = lam_5..lam_8: rows lam_1..lam_4, then (t, x).

        These are branch 1's rows of grad E at the physical limit, and
        ||grad E||^2 = ||r[:4]||^2 + 2 ||r[4:]||^2.
        """
        self._check(t, x)
        if np.shape(lam) != (4,):
            raise ValueError("exactly four Lagrange multipliers (lam_5..lam_8) are required")
        cfg, d_first = self.cfg, self._jac1[1, ::2]  # row 0 of D
        wt = self.reg_t.apply(t)
        wx = self.reg_x.apply(x)
        g00 = metric_g00(x, cfg)
        gp = metric_g00_prime(x, cfg)
        r = np.empty(2 * self.n + 4)
        r[:4] = [
            t[0] - cfg.t_i,
            d_first @ t - cfg.tdot_i,
            x[0] - cfg.x_i,
            d_first @ x - cfg.xdot_i,
        ]
        r[4:] = lam @ self._jac1[4:]
        r[4::2] += self.reg_t.apply_t(g00 * self.h * wt)
        r[5::2] += 0.5 * gp * self.h * wt * wt - self.reg_x.apply_t(self.h * wx)
        return r

    def hessian(self, t, x) -> BandedHessian:
        """R H P at (t, x); the multiplier entries are constants."""
        self._check(t, x)
        wt = self.reg_t.apply(t)
        weights = [
            metric_g00(x, self.cfg) * self.h,
            metric_g00_prime(x, self.cfg) * self.h * wt,
            0.5 * metric_g00_second(x, self.cfg) * self.h * wt * wt,
            [1.0],
        ]
        values = self._coef * np.concatenate(weights)[self._weight]
        size = 2 * self.n + 4
        ab = np.bincount(self._slot, weights=values, minlength=size * self._ldab)
        return BandedHessian(ab.reshape(size, self._ldab).T, self.kl, self.ku)
