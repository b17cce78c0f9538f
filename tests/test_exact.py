"""The SBP tables and the interior charge identity in exact rational arithmetic.

The float tables in ``worldline.sbp`` are the rational tables below, each
entry rounded once.  Built from the rational tables with the penalty
weight ``SIGMA0`` read from ``worldline.sbp``, the discrete equations for t
at the physical limit give a charge (D t) o g00(x) equal to its initial
value tdot_i g00(x_i) exactly at every grid point but the last, whatever x
is.  Each case solves those equations in ``fractions.Fraction``.  At a
float state, ``DiscreteAction.gradient``'s t rows match the exact rows,
built from the rational tables with the paper's sigma0 = -1, within a few
ulps times their condition.
"""

import itertools
from fractions import Fraction as F

import numpy as np
import pytest

import worldline as wl
from worldline.sbp import _FAMILIES, MIN_POINTS, SIGMA0

# closure rows, interior stencil and boundary norm weights, in units of dgamma
RATIONAL = {
    "sbp21": ([[F(-1), F(1)]], [F(-1, 2), F(0), F(1, 2)], [F(1, 2)]),
    "sbp42": (
        [
            [F(-24, 17), F(59, 34), F(-4, 17), F(-3, 34), F(0), F(0)],
            [F(-1, 2), F(0), F(1, 2), F(0), F(0), F(0)],
            [F(4, 43), F(-59, 86), F(0), F(59, 86), F(-4, 43), F(0)],
            [F(3, 98), F(0), F(-59, 98), F(0), F(32, 49), F(-4, 49)],
        ],
        [F(1, 12), F(-2, 3), F(0), F(2, 3), F(-1, 12)],
        [F(17, 48), F(59, 48), F(43, 48), F(49, 48)],
    ),
}


def rational_operator(order, n):
    """D and the diagonal of H at dgamma = 1, as lists of Fractions."""
    closure, stencil, h_boundary = RATIONAL[order]
    d = [[F(0)] * n for _ in range(n)]
    for i, row in enumerate(closure):
        for j, c in enumerate(row):
            d[i][j] = c
            d[n - 1 - i][n - 1 - j] = -c
    half = len(stencil) // 2
    for i in range(len(closure), n - len(closure)):
        for k, c in enumerate(stencil):
            d[i][i + k - half] = c
    b = len(h_boundary)
    h = h_boundary + [F(1)] * (n - 2 * b) + h_boundary[::-1]
    return d, h


@pytest.mark.parametrize("order", sorted(RATIONAL))
def test_float_tables_are_the_rational_tables_rounded_once(order):
    closure, stencil, h_boundary = RATIONAL[order]
    fl_closure, fl_stencil, fl_h, *_ = _FAMILIES[order]
    for exact, rounded in ((closure, fl_closure), ([stencil], [fl_stencil]), ([h_boundary], [fl_h])):
        assert [[float(v) for v in row] for row in exact] == [list(row) for row in rounded]
    # the rational tables are SBP: H D + (H D)^T = diag(-1, 0, ..., 0, 1)
    for n in (MIN_POINTS[order], 2 * MIN_POINTS[order] + 1):
        d, h = rational_operator(order, n)
        for i in range(n):
            for j in range(n):
                want = (i == j == n - 1) - (i == j == 0)
                assert h[i] * d[i][j] + h[j] * d[j][i] == want
        # and the builder places the rounded entries where the rational ones sit
        op = wl.build_operator(order, n, 1.0)
        assert op.d.tolist() == [[float(v) for v in row] for row in d]
        assert op.h.tolist() == [float(v) for v in h]


def solve_exact(a, b):
    """x with a x = b, by Gaussian elimination on sparse rows of Fractions."""
    rows = [({j: v for j, v in enumerate(row) if v}, rhs) for row, rhs in zip(a, b)]
    size, done = len(rows), []
    for col in range(size):
        p = next(k for k, (row, _) in enumerate(rows) if col in row)
        prow, prhs = rows.pop(p)
        pivot = prow[col]
        for k, (row, rhs) in enumerate(rows):
            if col in row:
                f = row[col] / pivot
                for j, v in prow.items():
                    row[j] = row.get(j, 0) - f * v
                    if not row[j]:
                        del row[j]
                rows[k] = (row, rhs - f * prhs)
        done.append((col, prow, prhs))
    x = [F(0)] * size
    for col, row, rhs in reversed(done):
        x[col] = (rhs - sum(v * x[j] for j, v in row.items() if j != col)) / row[col]
    return x


POTENTIALS = {  # V(x) with rational coefficients
    "free": lambda x: F(0),
    "linear": lambda x: F(1, 4) * x,
    "quartic": lambda x: F(1, 2) * x ** 4,
}
FLOAT_POTENTIALS = {  # the same, as the code's potentials
    "free": wl.free_potential(),
    "linear": wl.linear_potential(0.25),
    "quartic": wl.quartic_potential(0.5),
}


@pytest.mark.parametrize("order", sorted(RATIONAL))
def test_interior_charge_is_exact_at_every_x(order):
    # unknowns t_0..t_{n-1}, lam_5, lam_7.  Equations: the t rows of
    # R grad E = 0 at the physical limit (lam_1..lam_4 = 0),
    #   M^T diag(g00 h) (M t + s) + lam_5 e_{n-1} + lam_7 D^T e_{n-1} = 0,
    # with M = D - sigma0 H^{-1} E_0 and s = sigma0 H^{-1} E_0 (t_i, 0, ...),
    # and the rows of lam_1 and lam_2: t_0 = t_i and (D t)_0 = tdot_i
    rng = np.random.default_rng(12)
    sigma0 = F(SIGMA0)
    t_i, tdot_i, x_i = F(1, 3), F(3, 2), F(1)
    for n in range(MIN_POINTS[order], 25):
        unit_d, unit_h = rational_operator(order, n)
        dgamma = F(1, n - 1)
        d = [[v / dgamma for v in row] for row in unit_d]
        h = [v * dgamma for v in unit_h]
        m = [row[:] for row in d]
        m[0][0] -= sigma0 / h[0]
        s0 = sigma0 * t_i / h[0]
        for (potential, v), _draw in itertools.product(POTENTIALS.items(), range(2)):
            x = [x_i] + [F(int(k), 37) for k in rng.integers(0, 75, n - 1)]
            g00 = [1 + 2 * v(xk) for xk in x]
            w = [g * hk for g, hk in zip(g00, h)]
            a = [[F(0)] * (n + 2) for _ in range(n + 2)]
            b = [F(0)] * (n + 2)
            for k in range(n):
                nonzero = [(j, mkj) for j, mkj in enumerate(m[k]) if mkj]
                for i, mki in nonzero:
                    for j, mkj in nonzero:
                        a[i][j] += mki * w[k] * mkj
                b[k] = -m[0][k] * w[0] * s0
            a[n - 1][n] = F(1)
            for i in range(n):
                a[i][n + 1] = d[n - 1][i]
            a[n][0], b[n] = F(1), t_i
            a[n + 1][:n], b[n + 1] = d[0], tdot_i
            t = solve_exact(a, b)[:n]
            charge = [sum(dij * tj for dij, tj in zip(row, t)) * g for row, g in zip(d, g00)]
            want = tdot_i * g00[0]
            bad = [i for i in range(n - 1) if charge[i] != want]
            assert bad == [], (order, n, potential, x, bad)


# the penalty weight of the paper, written here and not read from worldline.sbp
SIGMA0_EXACT = F(-1)
# measured: the float t rows lie within 1.01 eps * cond of the exact ones over
# the cases below, and within 1.25 eps * cond over six other draws
ULPS = 8


@pytest.mark.parametrize("order", sorted(RATIONAL))
def test_gradient_t_rows_match_the_exact_rows(order):
    # At a rational state rounded to float64, DiscreteAction.gradient's t rows
    #   lam_5 e_{n-1} + lam_7 D^T e_{n-1} + M^T diag(g00 h) (M t + s)
    # equal the exact rows, computed in Fractions at the same floats from the
    # rational tables, within ULPS eps times the row's condition (the same
    # sum over absolute values).  A changed closure entry, SIGMA0 or
    # constraint row of the code moves them by far more.
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for n in (MIN_POINTS[order], 2 * MIN_POINTS[order] - 1, 23):
        unit_d, unit_h = rational_operator(order, n)
        dgamma = F(1, n - 1)
        d = [[v / dgamma for v in row] for row in unit_d]
        h = [v * dgamma for v in unit_h]
        for name, v in POTENTIALS.items():
            potential = FLOAT_POTENTIALS[name]  # V = v on floats
            cfg = wl.ProblemConfig(potential=potential, n_gamma=n, order=order, t_i=1 / 3)
            t, x = (rng.integers(0, 75, n) / 37 for _ in range(2))
            lam = (rng.integers(1, 38, 8) * rng.choice([-1, 1], 8) / 37)[4:]  # lam_5..lam_8
            got = wl.DiscreteAction(cfg).gradient(t, x, lam)[4::2]
            t_q, x_q, lam_q = ([F(u) for u in a] for a in (t, x, lam))
            m = [row[:] for row in d]
            m[0][0] -= SIGMA0_EXACT / h[0]
            shift = [SIGMA0_EXACT * F(cfg.t_i) / h[0]] + [F(0)] * (n - 1)
            weight = [(1 + 2 * v(xk)) * hk for xk, hk in zip(x_q, h)]  # g00 h, c = m = 1
            wt = [sum(mkj * tj for mkj, tj in zip(row, t_q)) + sk for row, sk in zip(m, shift)]
            wt_abs = [
                sum(abs(mkj * tj) for mkj, tj in zip(row, t_q)) + abs(sk)
                for row, sk in zip(m, shift)
            ]
            for i in range(n):
                terms = [lam_q[2] * d[n - 1][i], lam_q[0] * (i == n - 1)]
                terms += [m[k][i] * weight[k] * wt[k] for k in range(n)]
                cond = sum(map(abs, terms[:2])) + sum(
                    abs(m[k][i] * weight[k]) * wt_abs[k] for k in range(n)
                )
                err = abs(F(float(got[i])) - sum(terms))
                assert err <= ULPS * eps * cond, (order, n, name, i, float(err / (eps * cond)))
