"""Truncated-Taylor scalars for exact first and second derivatives.

Every field in this package (metric components, frame components, chart
maps) is written as ordinary arithmetic over scalars.  Feeding seeded
``HyperDual`` values through that arithmetic yields the exact gradient and
Hessian of each output with respect to the four chart coordinates, with no
step-size error.  A central-difference evaluator exists in
``framekin.oracles`` purely as an independent cross-check; it is never the
production path.

A ``HyperDual`` holds one point (``val`` a float, ``grad`` (4,), ``hess``
(4, 4)) or a block of N points (``val`` (N,), ``grad`` (4, N), ``hess``
(4, 4, N)): batch axis last, so the same arithmetic serves both.
``jet(fn, points, order)`` is the one entry point; it takes a point (4,)
or a block (N, 4) and returns dense arrays, batch axis first.  On a block,
value comparisons give one bool per sample (``first`` finds the first
true one).  A map already known as arrays of values and first (and
optionally second) derivatives joins the algebra through ``chain``; the
Newton inverse of a map and the 4x4 matrix inverse work on whole blocks,
each sample with its own pivots and its own iteration count.
Arithmetic and ``sqrt`` are elementwise IEEE operations, so a block equals
its points bit for bit; ``exp``, ``log``, ``asinh``, ``sin``, ``cos`` and
powers use numpy's vectorised kernels on a block and ``math`` on a point,
which may round differently by one ulp.

The dimension is fixed at 4 (one timelike plus three spacelike coordinates).
"""

from __future__ import annotations

import math

import numpy as np

DIM = 4
# Derivative parts shared read-only by every point seed: the four unit gradients and a zero Hessian
_UNIT_GRADS, _ZERO_HESS = np.eye(DIM), np.zeros((DIM, DIM))
_UNIT_GRADS.flags.writeable = _ZERO_HESS.flags.writeable = False


def _outer(a, b):
    """Outer product over the leading (derivative) axis, batch axis kept last."""
    return a[:, None] * b[None, :]


class HyperDual:
    """Scalar (or block of scalars) carrying value, gradient and optionally Hessian.

    ``grad`` holds the first partials with respect to the chart
    coordinates, ``hess`` the symmetric second partials, or ``None`` when
    only first-order information is being tracked; any operation involving
    a ``None`` Hessian produces a ``None`` Hessian.
    """

    __slots__ = ("val", "grad", "hess")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = val if type(val) is float or (isinstance(val, np.ndarray) and val.ndim) else float(val)
        self.grad = grad
        self.hess = hess

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            h = None
            if self.hess is not None and other.hess is not None:
                h = self.hess + other.hess
            return HyperDual(self.val + other.val, self.grad + other.grad, h)
        return HyperDual(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            h = None
            if self.hess is not None and other.hess is not None:
                cross = _outer(self.grad, other.grad)
                h = self.hess * other.val + other.hess * self.val + cross + cross.swapaxes(0, 1)
            return HyperDual(self.val * other.val, self.grad * other.val + other.grad * self.val, h)
        return HyperDual(self.val * other, self.grad * other, None if self.hess is None else self.hess * other)

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.val
        if first(v == 0.0) is not None:
            raise ZeroDivisionError("reciprocal of hyper-dual with zero value part")
        inv = 1.0 / v
        grad = -self.grad * inv * inv
        h = None
        if self.hess is not None:
            gg = _outer(self.grad, self.grad)
            h = -self.hess * inv * inv + 2.0 * gg * inv * inv * inv
        return HyperDual(inv, grad, h)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, n):
        n, v = float(n), self.val
        return self._chain(v**n, n * v ** (n - 1.0), n * (n - 1.0) * v ** (n - 2.0))

    def _chain(self, f, fp, fpp):
        """Apply a scalar function with known derivatives f, f', f'' at val."""
        h = None
        if self.hess is not None:
            h = fp * self.hess + fpp * _outer(self.grad, self.grad)
        return HyperDual(f, fp * self.grad, h)

    # -- comparisons operate on value parts (one bool per sample) -----------

    def __lt__(self, other):
        return self.val < value(other)

    def __le__(self, other):
        return self.val <= value(other)

    def __gt__(self, other):
        return self.val > value(other)

    def __ge__(self, other):
        return self.val >= value(other)

    def __repr__(self):
        return f"HyperDual({self.val!r}, grad={self.grad!r})"


def value(x):
    """Value part of a scalar (or block of scalars) that may or may not be a HyperDual."""
    return x.val if isinstance(x, HyperDual) else x if isinstance(x, np.ndarray) else float(x)


def _lift(math_fn, np_fn, derivatives):
    """Elementary function of floats, blocks and HyperDuals; ``derivatives(v, f(v))`` gives f', f''."""

    def plain(v):  # numpy on a block, raising as math does on a float
        if not isinstance(v, np.ndarray):
            return math_fn(v)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                return np_fn(v)
            except FloatingPointError as err:
                raise (OverflowError if "overflow" in str(err) else ValueError)(str(err)) from None

    def f(x):
        if not isinstance(x, HyperDual):
            return plain(x)
        fv = plain(x.val)
        return x._chain(fv, *derivatives(x.val, fv))

    return f


def _asinh_derivatives(v, _):
    q = 1.0 / sqrt(1.0 + v * v)
    return q, -v * q * q * q


sqrt = _lift(math.sqrt, np.sqrt, lambda v, s: (0.5 / s, -0.25 / (v * s)))
exp = _lift(math.exp, np.exp, lambda v, e: (e, e))
log = _lift(math.log, np.log, lambda v, _: (1.0 / v, -1.0 / (v * v)))
asinh = _lift(math.asinh, np.arcsinh, _asinh_derivatives)
sin = _lift(math.sin, np.sin, lambda v, s: (cos(v), -s))
cos = _lift(math.cos, np.cos, lambda v, c: (-sin(v), -c))


def seed(coords, order=2):
    """Seed a point (4,) or the columns of a block (N, 4) as independent variables.

    order=2 tracks Hessians, order=1 gradients only, order=0 returns plain floats (arrays on a block).
    """
    coords = np.asarray(coords, dtype=float)
    if order == 0:
        return list(coords.T) if coords.ndim == 2 else coords.tolist()
    if coords.ndim == 1:
        return [HyperDual(x, e, _ZERO_HESS if order == 2 else None) for x, e in zip(coords.tolist(), _UNIT_GRADS)]
    batch = coords.shape[:-1]
    out = []
    for i in range(DIM):
        e = np.zeros((DIM,) + batch)
        e[i] = 1.0
        out.append(HyperDual(coords.T[i], e, np.zeros((DIM, DIM) + batch) if order == 2 else None))
    return out


def jet(fn, points, order=1):
    """Value and exact derivatives of a vector- or matrix-valued function, in one call of ``fn``.

    ``points`` is a point (4,) or a block (N, 4); ``fn`` maps four seeded scalars to
    4 or 4x4 nested components.  Returns ``(f,)``, ``(f, df)`` or ``(f, df, d2f)`` for
    order 0, 1 or 2, with df[s, *c] = d_s f[*c] and d2f[r, s, *c] = d_r d_s f[*c];
    a block prepends its batch axis to every array.
    """
    pts = np.asarray(points, dtype=float)
    batch = pts.shape[:-1]
    out = fn(seed(pts, order))
    matrix = isinstance(out[0], (list, tuple))
    flat = [c for row in out for c in row] if matrix else list(out)
    shape = (len(out), len(out[0])) if matrix else (len(out),)
    duals = [(i, c) for i, c in enumerate(flat) if isinstance(c, HyperDual)]
    derivs = [np.zeros((DIM,) * n + (len(flat),) + batch) for n in range(1, order + 1)]
    for i, c in duals:  # flat keeps the value parts, derivs gets the derivative parts
        flat[i] = c.val
        if order:
            derivs[0][:, i] = c.grad
        if order == 2:
            if c.hess is None:
                raise ValueError("second-order jet requested from a first-order evaluation")
            derivs[1][:, :, i] = c.hess
    if batch:  # a block's value parts are (N,) arrays, or constants that broadcast
        values = np.zeros((len(flat),) + batch)
        for i, v in enumerate(flat):
            values[i] = v
        parts = [np.moveaxis(a, -1, 0) for a in (values, *derivs)]
    else:  # a point's value parts are floats
        parts = [np.array(flat, dtype=float), *derivs]
    return tuple([a.reshape(a.shape[:-1] + shape) for a in parts])


def first(cond):
    """Index of the first sample where a condition holds (0 for a true scalar), else None."""
    if isinstance(cond, np.ndarray) and cond.ndim:
        hits = np.flatnonzero(cond)
        return int(hits[0]) if hits.size else None
    return 0 if cond else None


def block_values(coords):
    """(values, point): the value parts of four scalars as an (N, 4) block (N = 1 for a point), and
    whether they were a point."""
    vals = np.stack(np.broadcast_arrays(*[value(c) for c in coords]), axis=-1).astype(float)
    return vals.reshape(-1, DIM), vals.ndim == 1


def chain(coords, f, df, d2f=None):
    """Scalars of a function of ``coords`` from its values and derivatives at their value parts.

    ``coords`` are four scalars of a point or a block, ``f`` (N, *shape) holds the values on
    their (N, 4) value block, ``df`` (N, *shape, 4) the derivatives in the four coordinates and
    ``d2f`` (broadcastable to (N, *shape, 4, 4)) the second derivatives.  The gradient follows by
    the chain rule through the gradients of ``coords``, and the Hessian through their gradients
    and Hessians when ``d2f`` is given and every dual coordinate carries one; else no Hessian is
    carried, which poisons any downstream second-derivative use.  Returns nested lists of
    ``shape``: HyperDuals when a coordinate carries a gradient, else plain values.
    """
    point = not any(np.ndim(value(c)) for c in coords)
    n = len(f)
    vals = np.moveaxis(f.reshape(n, -1), 0, -1)  # (M, N)
    items = [float(v[0]) if point else v for v in vals]
    duals = [(b, c.grad.reshape(DIM, -1), c.hess) for b, c in enumerate(coords) if isinstance(c, HyperDual)]
    if duals:
        d = np.moveaxis(df.reshape(n, -1, DIM), 0, -1)  # (M, 4, N)
        g = 0.0
        for b, gb, _ in duals:  # a fixed summation order: a block equals its points
            g = g + d[:, b, None] * gb
        h = [None] * len(g)
        if d2f is not None and all(hb is not None for _, _, hb in duals):
            d2 = np.moveaxis(np.broadcast_to(d2f, df.shape + (DIM,)).reshape(n, -1, DIM, DIM), 0, -1)
            h = 0.0
            for b, gb, hb in duals:
                h = h + d[:, b, None, None] * hb.reshape(DIM, DIM, -1)
                for k, gk, _ in duals:
                    h = h + d2[:, b, k, None, None] * _outer(gb, gk)
            h = list(h[..., 0] if point else h)
        items = [HyperDual(v, gi[:, 0] if point else gi, hi) for v, gi, hi in zip(items, g, h)]
    for m in reversed(f.shape[2:]):
        items = [items[i : i + m] for i in range(0, len(items), m)]
    return items


def dual_newton_invert(map_fn, target, seed_guess, tol=1e-13, max_iter=60):
    """Invert a dual-capable map R^4 -> R^4 at a (possibly dual) target point or block.

    Solves map_fn(x) = target.  The float solution comes from Newton
    iteration with the exact Jacobian, all rows of a block at once: a row
    stops once its step falls below ``tol`` and never moves again, so each
    row iterates as its point would.  ``seed_guess`` holds one row per target.
    When ``target`` carries dual parts, fixed-point corrections with each
    row's last Jacobian propagate gradients (and Hessians when present) to
    machine precision.
    """
    tv, point = block_values(target)
    x = np.array(seed_guess, dtype=float).reshape(tv.shape)
    jac = np.empty((len(x), DIM, DIM))
    rows = np.arange(len(x))  # the rows still iterating
    for _ in range(max_iter):
        fx, dfx = jet(map_fn, x[0] if point else x[rows])
        jac[rows] = np.swapaxes(dfx, -1, -2)
        delta = np.linalg.solve(jac[rows], (fx - tv[rows])[..., None])[..., 0]
        x[rows] -= delta
        rows = rows[~(np.max(np.abs(delta), axis=-1) < tol)]
        if not rows.size:
            break
    else:
        raise ArithmeticError("map inversion did not converge")
    if not any(isinstance(c, HyperDual) for c in target):
        return x[0].tolist() if point else list(x.T)
    # Dual correction: contraction on the derivative parts, quadratic once
    # the value part has converged.
    jinv = np.moveaxis(np.linalg.inv(jac), 0, -1)
    x, jinv = (x[0], jinv[..., 0]) if point else (x.T, jinv)
    batch = np.shape(x[0])
    h0 = np.zeros((DIM, DIM) + batch) if any(isinstance(c, HyperDual) and c.hess is not None for c in target) else None
    xs = [HyperDual(x[i], np.zeros((DIM,) + batch), h0) for i in range(DIM)]
    for _ in range(3):
        fx = map_fn(xs)
        resid = [fx[m] - target[m] for m in range(DIM)]
        xs = [xs[m] - sum(resid[k] * jinv[m, k] for k in range(DIM)) for m in range(DIM)]
    return xs


def _matmul(a, b):
    """Product of two 4x4 matrices of scalars, summed in index order."""
    return [[sum((a[i][k] * b[k][j] for k in range(1, DIM)), a[i][0] * b[0][j]) for j in range(DIM)]
            for i in range(DIM)]


def dual_matrix_inverse(rows):
    """Invert a 4x4 matrix of scalars (floats, blocks or HyperDuals).

    numpy inverts the value parts, each sample of a block on its own; two
    Newton-Schulz steps X <- X (2I - A X) in the dual algebra then make the
    gradient and Hessian exact.  A singular value part raises
    ``ZeroDivisionError``.
    """
    a0 = np.array(np.broadcast_arrays(*[value(c) for row in rows for c in row]), dtype=float)
    try:
        x0 = np.linalg.inv(np.moveaxis(a0.reshape((DIM, DIM) + a0.shape[1:]), (0, 1), (-2, -1)))
    except np.linalg.LinAlgError:
        raise ZeroDivisionError("singular matrix in dual inversion") from None
    x = np.moveaxis(x0, (-2, -1), (0, 1))
    for _ in range(2):
        ax = _matmul(rows, x)
        x = _matmul(x, [[(2.0 if i == j else 0.0) - ax[i][j] for j in range(DIM)] for i in range(DIM)])
    return x
