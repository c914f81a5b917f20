"""Derivative engine checks against analytic and finite-difference values."""

import itertools

import numpy as np
import pytest

from framekin.hyperdual import (
    HyperDual,
    asinh,
    block_values,
    chain,
    cos,
    dual_newton_invert,
    exp,
    jet,
    log,
    seed,
    sin,
    sqrt,
    value,
)

from conftest import survey_frames
from reference import dual_matrix_inverse


def f_scalar(x):
    # generic smooth composition exercising mul/div/pow/sqrt/asinh
    return (x[0] * x[1] + 2.0) ** 2 / (1.0 + x[2] * x[2]) + sqrt(4.0 + x[3] * x[0]) + asinh(x[1] * x[2] - x[3])


def f_scalar_np(c):
    return (c[0] * c[1] + 2.0) ** 2 / (1.0 + c[2] ** 2) + np.sqrt(4.0 + c[3] * c[0]) + np.arcsinh(c[1] * c[2] - c[3])


def test_gradient_matches_finite_differences():
    c = np.array([0.3, -1.2, 0.7, 2.1])
    out = f_scalar(seed(c, order=2))
    h = 1e-6
    for i in range(4):
        hi, lo = c.copy(), c.copy()
        hi[i] += h
        lo[i] -= h
        fd = (f_scalar_np(hi) - f_scalar_np(lo)) / (2 * h)
        assert out.grad[i] == pytest.approx(fd, abs=1e-7)


def test_hessian_matches_finite_differences_and_is_symmetric():
    c = np.array([0.3, -1.2, 0.7, 2.1])
    out = f_scalar(seed(c, order=2))
    assert np.max(np.abs(out.hess - out.hess.T)) < 1e-14
    h = 1e-4
    for i in range(4):
        for j in range(4):
            pp, pm, mp, mm = (c.copy() for _ in range(4))
            pp[i] += h
            pp[j] += h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            mm[i] -= h
            mm[j] -= h
            fd = (f_scalar_np(pp) - f_scalar_np(pm) - f_scalar_np(mp) + f_scalar_np(mm)) / (4 * h * h)
            assert out.hess[i, j] == pytest.approx(fd, abs=1e-5)


def test_first_order_mode_drops_hessian():
    c = np.array([0.5, 0.5, 0.5, 0.5])
    out = f_scalar(seed(c, order=1))
    assert out.hess is None
    assert out.grad.shape == (4,)


def test_division_and_reciprocal():
    x = HyperDual(2.0, np.array([1.0, 0, 0, 0]), np.zeros((4, 4)))
    y = 1.0 / x
    assert y.val == 0.5
    assert y.grad[0] == pytest.approx(-0.25)
    assert y.hess[0, 0] == pytest.approx(0.25)


def test_value_comparisons():
    x = HyperDual(1.5, np.zeros(4))
    assert x > 1.0 and x < 2.0 and x >= 1.5


def test_dual_matrix_inverse():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    rows = [[m[i, j] for j in range(4)] for i in range(4)]
    inv = dual_matrix_inverse(rows)
    inv_np = np.array([[value(inv[i][j]) for j in range(4)] for i in range(4)])
    assert np.max(np.abs(inv_np @ m - np.eye(4))) < 1e-12


def quadratic_map(x):
    """(f, J, H) on an (N, 4) block: f = (x0 + 0.1 x1^2, x1 - 0.05 x0 x2, x2 + 0.02 x3^2, x3 + 0.01 x0 x1)."""
    x0, x1, x2, x3 = x.T
    f = np.column_stack([x0 + 0.1 * x1 * x1, x1 - 0.05 * x0 * x2, x2 + 0.02 * x3 * x3, x3 + 0.01 * x0 * x1])
    jac = np.zeros((len(x), 4, 4))
    jac[:, [0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 2] = 0.2 * x1, -0.05 * x2, -0.05 * x0
    jac[:, 2, 3], jac[:, 3, 0], jac[:, 3, 1] = 0.04 * x3, 0.01 * x1, 0.01 * x0
    hess = np.zeros((len(x), 4, 4, 4))
    hess[:, 0, 1, 1], hess[:, 2, 3, 3] = 0.2, 0.04
    hess[:, 1, 0, 2] = hess[:, 1, 2, 0] = -0.05
    hess[:, 3, 0, 1] = hess[:, 3, 1, 0] = 0.01
    return f, jac, hess


def test_newton_inversion_propagates_derivatives():
    target_val = np.array([0.4, -0.3, 0.2, 0.1])
    sol = dual_newton_invert(quadratic_map, list(target_val), target_val)
    fwd = quadratic_map(np.array([sol]))[0][0]
    assert np.max(np.abs(np.array(fwd) - target_val)) < 1e-12

    # dual target: the solution gradient must be the inverse Jacobian
    targets = seed(target_val, order=1)
    sol_d = dual_newton_invert(quadratic_map, targets, target_val)
    jac_fwd = quadratic_map(np.array([[value(s) for s in sol_d]]))[1][0]
    grad_sol = np.array([c.grad for c in sol_d])
    assert np.max(np.abs(grad_sol @ jac_fwd - np.eye(4))) < 1e-10


# -- blocks ---------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2])
def test_block_jet_equals_single_point_jets(order, rng):
    block = np.column_stack([rng.uniform(0.0, 1.0, 37), rng.uniform(-0.5, 0.5, (37, 3))])
    for metric, frame in survey_frames():
        for fn in (metric.component_fn, frame.component_fn):
            batched = jet(fn, block, order)
            for k, p in enumerate(block):
                for arr_block, arr_point in zip(batched, jet(fn, p, order)):
                    assert arr_block.shape == (len(block),) + arr_point.shape
                    assert np.array_equal(arr_block[k], arr_point)


def test_jet_of_a_point_keeps_float_value_parts():
    out = seed([0.1, 0.2, 0.3, 0.4], order=1)
    assert all(type(c.val) is float and c.grad.shape == (4,) for c in out)
    v, dv = jet(lambda c: [c[0] * c[1], c[2], 1.0, c[3] * c[3]], [0.1, 0.2, 0.3, 0.4])
    assert v.shape == (4,) and dv.shape == (4, 4)
    assert dv[:, 0].tolist() == [0.2, 0.1, 0.0, 0.0] and dv[:, 2].tolist() == [0.0] * 4


@pytest.mark.parametrize("fn", [exp, log, asinh, sin, cos])
def test_block_elementary_functions_within_one_ulp(fn, rng):
    vals = rng.uniform(0.05, 3.0, 200)
    block = fn(seed(np.column_stack([vals, np.zeros((200, 3))]), order=2)[0])
    for k, v in enumerate(vals):
        point = fn(seed([v, 0.0, 0.0, 0.0], order=2)[0])
        for b, p in ((block.val[k], point.val), (block.grad[0, k], point.grad[0]), (block.hess[0, 0, k], point.hess[0, 0])):
            assert abs(b - p) <= np.spacing(abs(p))


def test_block_domain_errors_raise_like_math():
    xs = seed(np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]]), order=1)
    with pytest.raises(ValueError):
        sqrt(xs[0])
    with pytest.raises(ValueError):
        log(xs[0] - 1.0)


def test_dual_matrix_inverse_on_a_block_pivots_per_sample(rng):
    # each sample needs its own pivot order
    mats = [rng.normal(size=(4, 4)) + 4.0 * np.eye(4) for _ in range(5)]
    mats[2] = mats[2][[1, 0, 3, 2]]
    x = seed(rng.normal(size=(5, 4)), order=1)
    rows = [[x[(i + j) % 4] * 0.1 for j in range(4)] for i in range(4)]
    rows = [[rows[i][j] + np.array([m[i, j] for m in mats]) for j in range(4)] for i in range(4)]
    inv = dual_matrix_inverse(rows)
    for k in range(5):
        single = dual_matrix_inverse([[HyperDual(c.val[k], c.grad[:, k]) for c in row] for row in rows])
        for i in range(4):
            for j in range(4):
                assert inv[i][j].val[k] == single[i][j].val
                assert np.array_equal(inv[i][j].grad[:, k], single[i][j].grad)


def test_dual_matrix_inverse_derivatives_are_exact(rng):
    # A(x) quadratic in x: the gradient is -A^-1 dA A^-1 and the Hessian
    # A^-1 (dA_r A^-1 dA_s + dA_s A^-1 dA_r - d2A_rs) A^-1
    x0 = rng.normal(size=4)
    lin = 0.1 * rng.normal(size=(4, 4, 4))  # [i, j, r]
    quad = 0.05 * rng.normal(size=(4, 4, 4, 4))  # [i, j, r, s]
    quad = quad + np.swapaxes(quad, 2, 3)
    base = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    x = seed(x0, order=2)
    rows = [[base[i, j] + 0.0 * x[0] for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            for r in range(4):
                rows[i][j] = rows[i][j] + lin[i, j, r] * x[r]
                for s in range(4):
                    rows[i][j] = rows[i][j] + 0.5 * quad[i, j, r, s] * x[r] * x[s]
    inv = dual_matrix_inverse(rows)
    a = np.array([[c.val for c in row] for row in rows])
    da = np.array([[c.grad for c in row] for row in rows])  # [i, j, r]
    d2a = np.array([[c.hess for c in row] for row in rows])  # [i, j, r, s]
    ainv = np.linalg.inv(a)
    grad = -np.einsum("ik,klr,lj->ijr", ainv, da, ainv)
    first = np.einsum("ik,klr,lm,mns,nj->ijrs", ainv, da, ainv, da, ainv)
    hess = first + np.swapaxes(first, 2, 3) - np.einsum("ik,klrs,lj->ijrs", ainv, d2a, ainv)
    assert np.max(np.abs(np.array([[c.val for c in row] for row in inv]) - ainv)) < 1e-14
    assert np.max(np.abs(np.array([[c.grad for c in row] for row in inv]) - grad)) < 1e-14
    assert np.max(np.abs(np.array([[c.hess for c in row] for row in inv]) - hess)) < 1e-14


def test_dual_matrix_inverse_refuses_a_singular_value_part():
    x = seed([0.1, 0.2, 0.3, 0.4], order=1)
    rows = [[x[0] * 0.0 + (1.0 if i == j and i < 3 else 0.0) for j in range(4)] for i in range(4)]
    with pytest.raises(ZeroDivisionError):
        dual_matrix_inverse(rows)


def test_newton_inversion_of_a_block_solves_sample_by_sample():
    targets = np.array([[0.4, -0.3, 0.2, 0.1], [0.1, 0.2, -0.3, 0.5], [0.0, 0.0, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0]])
    sol = dual_newton_invert(quadratic_map, seed(targets, order=1), targets)
    for k, t in enumerate(targets):
        single = dual_newton_invert(quadratic_map, seed(t, order=1), t)
        assert all(sol[i].val[k] == single[i].val and np.array_equal(sol[i].grad[:, k], single[i].grad) for i in range(4))


def test_newton_inversion_of_a_block_of_hessian_targets_equals_its_points():
    targets = np.array([[0.4, -0.3, 0.2, 0.1], [0.1, 0.2, -0.3, 0.5], [0.0, 0.0, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0]])
    sol = dual_newton_invert(quadratic_map, seed(targets, order=2), targets)
    for k, t in enumerate(targets):
        single = dual_newton_invert(quadratic_map, seed(t, order=2), t)
        for i in range(4):
            assert sol[i].val[k] == single[i].val
            assert np.array_equal(sol[i].grad[:, k], single[i].grad)
            assert np.array_equal(sol[i].hess[:, :, k], single[i].hess)


def test_newton_inversion_of_a_block_stops_each_row_at_its_own_iteration():
    # the fixed point (0.7, 0, 0, 0) starts converged beside rows that need several steps
    iterations = []

    def counted(x):
        iterations.append(len(x))
        return quadratic_map(x)

    targets = np.array([[0.4, -0.3, 0.2, 0.1], [0.7, 0.0, 0.0, 0.0], [0.1, 0.2, -0.3, 0.5]])
    for t in targets:
        del iterations[:]
        dual_newton_invert(counted, list(t), t)
        assert (len(iterations) == 1) == (t[1] == 0.0)
    del iterations[:]
    sol = dual_newton_invert(counted, list(targets.T), targets)
    assert iterations[0] == 3 and iterations[1] == 2 and len(iterations) > 2  # the converged row left after one step
    for k, t in enumerate(targets):
        assert [s[k] for s in sol] == dual_newton_invert(quadratic_map, list(t), t)


def test_newton_inversion_raises_when_a_row_does_not_converge():
    def shifted_square(x):  # x0^2 + 1 = 0 has no real root, x0^2 + 1 = 2 has one
        jac = np.broadcast_to(np.eye(4), (len(x), 4, 4)).copy()
        jac[:, 0, 0] = 2.0 * x[:, 0]
        return np.column_stack([x[:, 0] * x[:, 0] + 1.0, x[:, 1:]]), jac

    target = [np.array([2.0, 0.0]), np.zeros(2), np.zeros(2), np.zeros(2)]
    with pytest.raises(ArithmeticError, match="did not converge"):
        dual_newton_invert(shifted_square, target, np.array([[0.5, 0, 0, 0], [0.5, 0, 0, 0]]))
    assert dual_newton_invert(shifted_square, [2.0, 0.0, 0.0, 0.0], [0.5, 0, 0, 0])[0] == 1.0


def test_newton_solve_logs_one_line(caplog):
    target = np.array([[0.4, -0.3, 0.2, 0.1], [0.7, 0.0, 0.0, 0.0]])
    with caplog.at_level("DEBUG", logger="framekin.hyperdual"):
        dual_newton_invert(quadratic_map, list(target.T), target)
    (record,) = caplog.records
    assert record.levelname == "DEBUG" and record.getMessage().startswith("newton inverse: 2 rows, 3 iterations, largest final step ")
    caplog.clear()
    with caplog.at_level("INFO", logger="framekin.hyperdual"):
        dual_newton_invert(quadratic_map, list(target.T), target)
    assert not caplog.records


# -- chain: maps known as arrays --------------------------------------------------

# a cubic map R^4 -> R^4 with small integer coefficients, symmetric in the summed indices:
# f^m = A[m, a] x^a + B[m, a, b] x^a x^b + C[m, a, b, c] x^a x^b x^c
_poly = np.random.default_rng(11)
POLY_A = _poly.integers(-2, 3, (4, 4)).astype(float)
POLY_B = _poly.integers(-2, 3, (4, 4, 4)).astype(float)
POLY_B = POLY_B + POLY_B.transpose(0, 2, 1)
POLY_C = _poly.integers(-1, 2, (4, 4, 4, 4)).astype(float)
POLY_C = sum(np.transpose(POLY_C, (0, *perm)) for perm in itertools.permutations((1, 2, 3)))


def poly_scalar(x):
    """The cubic map as scalar arithmetic."""
    out = []
    for m in range(4):
        acc = 0.0
        for a in range(4):
            acc = acc + float(POLY_A[m, a]) * x[a]
            for b in range(4):
                acc = acc + float(POLY_B[m, a, b]) * x[a] * x[b]
                for c in range(4):
                    acc = acc + float(POLY_C[m, a, b, c]) * x[a] * x[b] * x[c]
        out.append(acc)
    return out


def poly_arrays(x):
    """(f, df, d2f) of the cubic map on an (N, 4) block, from its coefficients."""
    cx = np.einsum("mabc,nc->nmab", POLY_C, x)
    bx = np.einsum("mab,nb->nma", POLY_B, x)
    cxx = np.einsum("nmab,nb->nma", cx, x)
    f = np.einsum("nma,na->nm", POLY_A + bx + cxx, x)
    return f, POLY_A + 2.0 * bx + 3.0 * cxx, 2.0 * POLY_B + 6.0 * cx


def poly_chain(x, second=True):
    f, df, d2f = poly_arrays(block_values(x)[0])
    return chain(x, f, df, d2f) if second else chain(x, f, df)


def test_chain_second_derivatives_equal_the_scalar_jet():
    # dyadic points and integer coefficients: every sum is exact, so the two forms agree bit for bit
    block = np.random.default_rng(5).integers(-8, 9, (6, 4)) / 4.0
    for points in (block[0], block):
        for order in (0, 1, 2):
            for got, want in zip(jet(poly_chain, points, order), jet(poly_scalar, points, order)):
                assert np.array_equal(got, want)


def test_chain_second_derivatives_through_a_dual_input(rng):
    # the chain rule with gradients and Hessians on the input: f(h(x)) for a nonlinear h
    def inner(x):
        return [x[0] * x[1], sin(x[2]), x[3] * x[3] + x[0], exp(0.5 * x[1])]

    block = rng.uniform(-1.0, 1.0, (5, 4))
    for points in (block[0], block):
        got = jet(lambda x: poly_chain(inner(x)), points, order=2)
        want = jet(lambda x: poly_scalar(inner(x)), points, order=2)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-10 * max(1.0, np.max(np.abs(w)))


def test_chain_without_second_derivatives_refuses_an_order_2_jet():
    point = np.array([0.5, -0.25, 1.0, 0.75])
    assert np.array_equal(jet(lambda x: poly_chain(x, second=False), point)[1], jet(poly_scalar, point)[1])
    with pytest.raises(ValueError, match="second-order jet requested from a first-order evaluation"):
        jet(lambda x: poly_chain(x, second=False), point, order=2)
