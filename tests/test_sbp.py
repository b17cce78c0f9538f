import json

import numpy as np
import pytest
from scipy.linalg import svdvals

import worldline as wl
from worldline.sbp import MIN_POINTS, SIGMA0


def boundary_identity(n):
    b = np.zeros((n, n))
    b[0, 0] = -1.0
    b[-1, -1] = 1.0
    return b


def test_sbp21_example_matrices():
    op = wl.build_operator("sbp21", 3, 0.5)
    np.testing.assert_allclose(op.d, [[-2, 2, 0], [-1, 0, 1], [0, -2, 2]])
    np.testing.assert_allclose(op.h, [0.25, 0.5, 0.25])
    assert op.interior_order == 2 and op.boundary_order == 1


def test_sbp42_boundary_closure():
    op = wl.build_operator("sbp42", 12, 1.0)
    np.testing.assert_allclose(op.d[0, :5], [-24 / 17, 59 / 34, -4 / 17, -3 / 34, 0])
    np.testing.assert_allclose(op.h[:4], [17 / 48, 59 / 48, 43 / 48, 49 / 48])
    np.testing.assert_allclose(op.h[-4:], [49 / 48, 43 / 48, 59 / 48, 17 / 48])
    # mirrored right closure with flipped sign
    np.testing.assert_allclose(op.d[-1, -5:], -op.d[0, :5][::-1])


@pytest.mark.parametrize(
    "order,n",
    [("sbp21", n) for n in (8, 16, 32, 64, 128)]
    + [("sbp42", n) for n in (16, 32, 64, 128)],
)
def test_sbp_identity(order, n):
    op = wl.build_operator(order, n, 1.0 / (n - 1))
    q = op.q
    dev = np.max(np.abs(q + q.T - boundary_identity(n)))
    assert dev <= 1e-14


@pytest.mark.parametrize("order,n", [("sbp21", 11), ("sbp42", 13)])
def test_constant_annihilation(order, n):
    op = wl.build_operator(order, n, 0.37)
    for c in (1.0, -3.5, 1e3):
        assert np.max(np.abs(op.d @ np.full(n, c))) <= 1e-13 * max(1.0, abs(c))


@pytest.mark.parametrize("order", ["sbp21", "sbp42"])
def test_polynomial_exactness(order):
    n = 16
    dgamma = 1.0 / (n - 1)
    op = wl.build_operator(order, n, dgamma)
    # grid away from zero so relative errors are well defined
    gamma = 1.0 + dgamma * np.arange(n)
    closure = 1 if order == "sbp21" else 4
    boundary = list(range(closure)) + list(range(n - closure, n))
    interior = list(range(closure, n - closure))
    for k in range(1, op.interior_order + 1):
        approx = op.d @ gamma ** k
        exact = k * gamma ** (k - 1)
        rel = np.abs(approx - exact) / np.abs(exact)
        assert np.max(rel[interior]) <= 1e-12, f"interior rows fail degree {k}"
        if k <= op.boundary_order:
            assert np.max(rel[boundary]) <= 1e-12, f"boundary rows fail degree {k}"


def test_sbp21_linear_exact_everywhere():
    op = wl.build_operator("sbp21", 9, 0.125)
    gamma = 0.125 * np.arange(9)
    np.testing.assert_allclose(op.d @ gamma, np.ones(9), rtol=0, atol=1e-13)


def test_mimetic_summation_by_parts():
    rng = np.random.default_rng(3)
    for order, n in (("sbp21", 17), ("sbp42", 20)):
        op = wl.build_operator(order, n, 0.21)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = (u * op.h) @ (op.d @ v) + ((op.d @ u) * op.h) @ v
        assert abs(lhs - (u[-1] * v[-1] - u[0] * v[0])) <= 1e-12


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        wl.build_operator("sbp21", 2, 0.1)
    with pytest.raises(ValueError):
        wl.build_operator("sbp21", 5, 0.0)
    with pytest.raises(ValueError):
        wl.build_operator("sbp21", 5, -1.0)
    with pytest.raises(ValueError):
        wl.build_operator("sbp42", 8, 0.1)
    with pytest.raises(ValueError):
        wl.build_operator("sbp63", 16, 0.1)
    for dgamma in (np.inf, np.nan):
        with pytest.raises(ValueError):
            wl.build_operator("sbp21", 5, dgamma)
    for init_value in (np.inf, np.nan):
        with pytest.raises(ValueError):
            wl.regularize(wl.build_operator("sbp21", 5, 0.1), init_value)


def test_regularized_first_row_and_shift():
    reg = wl.regularize(wl.build_operator("sbp21", 6, 1.0), 0.0)
    np.testing.assert_allclose(reg.dbar[0], [1, 1, 0, 0, 0, 0, 0], atol=1e-15)
    # shift column carries -2 * init / dgamma for the trapezoidal norm
    reg2 = wl.regularize(wl.build_operator("sbp21", 6, 0.25), 1.7)
    assert reg2.dbar[0, -1] == pytest.approx(-2 * 1.7 / 0.25)
    assert np.all(reg2.dbar[1:-1, -1] == 0.0)
    np.testing.assert_allclose(reg2.dbar[-1], [0, 0, 0, 0, 0, 0, 1])
    # order-appropriate analogue for the fourth-order operator
    reg42 = wl.regularize(wl.build_operator("sbp42", 12, 0.5), 2.0)
    assert reg42.dbar[0, -1] == pytest.approx(-2.0 * 48 / (17 * 0.5))
    assert SIGMA0 == -1.0


def test_regularized_hbar_zero_padding(capsys):
    # the padded quadrature hbar is built only for dump-operator --regularized
    from worldline.cli import main

    op = wl.build_operator("sbp21", 5, 0.3)
    args = ["dump-operator", "--order", "sbp21", "--n", "5", "--dgamma", "0.3"]
    assert main(args + ["--regularized", "--init-value", "0.4"]) == 0
    hbar = np.array(json.loads(capsys.readouterr().out)["hbar"])
    assert np.all(hbar[-1, :] == 0.0)
    assert np.all(hbar[:, -1] == 0.0)
    np.testing.assert_allclose(hbar[:-1, :-1], np.diag(op.h))


def test_regularized_applied_to_constants():
    op = wl.build_operator("sbp21", 7, 0.2)
    init = 0.9
    reg = wl.regularize(op, init)
    for c in (init, 2.4):
        out = reg.dbar @ np.append(np.full(7, c), 1.0)
        expect = np.zeros(8)
        expect[0] = 2 * (c - init) / 0.2
        expect[-1] = 1.0
        np.testing.assert_allclose(out, expect, atol=1e-12)


@pytest.mark.parametrize(
    "order,n",
    [("sbp21", n) for n in (8, 16, 32, 64, 128)]
    + [("sbp42", n) for n in (16, 32, 64, 128)],
)
def test_regularized_nonsingular(order, n):
    op = wl.build_operator(order, n, 1.0 / (n - 1))
    sv = svdvals(wl.regularize(op, 0.7).dbar)
    assert sv[-1] > 1e-10 * sv[0]


def test_regularized_smallest_singular_value_example():
    sv = svdvals(wl.regularize(wl.build_operator("sbp21", 32, 1 / 31), 0.0).dbar)
    assert sv[-1] > 0.0
    assert sv[-1] > 1e-10 * sv[0]


def test_path_derivative_matches_affine_application():
    rng = np.random.default_rng(11)
    reg = wl.regularize(wl.build_operator("sbp42", 12, 0.15), -0.6)
    u = rng.standard_normal(12)
    full = reg.dbar @ np.append(u, 1.0)
    np.testing.assert_allclose(reg.apply(u), full[:-1], rtol=1e-14)
    assert full[-1] == 1.0


def test_inner_product_values():
    # constants integrate exactly under the trapezoidal norm on [0, 1]
    op = wl.build_operator("sbp21", 9, 1 / 8)
    ones = np.ones(9)
    assert (ones * op.h) @ ones == pytest.approx(1.0)
    # two-panel trapezoid of gamma^2 on [0, 1]
    op3 = wl.build_operator("sbp21", 3, 0.5)
    gamma = np.array([0.0, 0.5, 1.0])
    assert (gamma * op3.h) @ gamma == pytest.approx(0.375)


def test_minimum_points_table():
    assert MIN_POINTS == {"sbp21": 3, "sbp42": 9}
    # the smallest legal fourth-order grid still satisfies the identity
    op = wl.build_operator("sbp42", 9, 0.125)
    q = op.q
    assert np.max(np.abs(q + q.T - boundary_identity(9))) <= 1e-14
