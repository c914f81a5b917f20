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
true one), and per-point algorithms run sample by sample (``take``, ``stack``).
Arithmetic and ``sqrt`` are elementwise IEEE operations, so a block equals
its points bit for bit; ``exp``, ``log``, ``asinh``, ``sin``, ``cos`` and
powers use numpy's vectorised kernels on a block and ``math`` on a point,
which may round differently by one ulp.

The dimension is fixed at 4 (one timelike plus three spacelike coordinates).
"""

from __future__ import annotations

import functools
import math

import numpy as np

DIM = 4


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

    def __init__(self, val, grad=None, hess=None):
        self.val = val if type(val) is float or (isinstance(val, np.ndarray) and val.ndim) else float(val)
        self.grad = np.zeros((DIM,) + np.shape(self.val)) if grad is None else grad
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


def grad(x):
    """Gradient part, zero for plain floats."""
    return x.grad if isinstance(x, HyperDual) else np.zeros(DIM)


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
    parts = [np.zeros((DIM,) * n + (len(flat),) + batch) for n in range(order + 1)]
    for i, c in enumerate(flat):
        parts[0][i] = getattr(c, "val", c)
        if order and isinstance(c, HyperDual):
            parts[1][:, i] = c.grad
            if order == 2:
                if c.hess is None:
                    raise ValueError("second-order jet requested from a first-order evaluation")
                parts[2][:, :, i] = c.hess
    if batch:
        parts = [np.moveaxis(a, -1, 0) for a in parts]
    return tuple(a.reshape(a.shape[: a.ndim - 1] + shape) for a in parts)


def first(cond):
    """Index of the first sample where a condition holds (0 for a true scalar), else None."""
    if isinstance(cond, np.ndarray) and cond.ndim:
        hits = np.flatnonzero(cond)
        return int(hits[0]) if hits.size else None
    return 0 if cond else None


def batch_size(x):
    """N for a scalar or nested sequence holding block scalars, None for one point."""
    if isinstance(x, (list, tuple)):
        return next((n for n in map(batch_size, x) if n is not None), None)
    v = x.val if isinstance(x, HyperDual) else x
    return len(v) if isinstance(v, np.ndarray) and v.ndim == 1 else None


def take(x, k):
    """Sample k of a scalar or nested sequence of block scalars; point scalars pass through."""
    if isinstance(x, (list, tuple)):
        return [take(c, k) for c in x]
    if isinstance(x, HyperDual) and isinstance(x.val, np.ndarray):
        return HyperDual(x.val[k], x.grad[..., k], None if x.hess is None else x.hess[..., k])
    return x[k] if isinstance(x, np.ndarray) else x


def stack(items):
    """The block made of equally nested per-sample results (inverse of ``take``)."""
    if isinstance(items[0], (list, tuple)):
        return [stack([it[i] for it in items]) for i in range(len(items[0]))]
    vals = np.array([value(it) for it in items])
    if not any(isinstance(it, HyperDual) for it in items):
        return vals
    hs = [it.hess if isinstance(it, HyperDual) else np.zeros((DIM, DIM)) for it in items]
    h = None if any(x is None for x in hs) else np.stack(hs, axis=-1)
    return HyperDual(vals, np.stack([grad(it) for it in items], axis=-1), h)


def per_point(fn):
    """``fn`` of one point's scalars, lifted to blocks by running it sample by sample."""

    @functools.wraps(fn)
    def lifted(x):
        n = batch_size(x)
        if n is None:
            return fn(x)
        return stack([fn(take(x, k)) for k in range(n)])

    return lifted


def taylor_apply(val, jac, coords_dual):
    """Compose a function with dual coordinates, given its value and gradient at their value parts.

    The result is seeded like ``coords_dual`` and carries no Hessian, which
    poisons any downstream second-derivative use.
    """
    g = np.zeros(DIM)
    for i, c in enumerate(coords_dual):
        g = g + jac[i] * grad(c)
    return HyperDual(val, g, None)


def dual_newton_invert(map_fn, target, seed_guess, tol=1e-13, max_iter=60):
    """Invert a dual-capable map R^4 -> R^4 at a (possibly dual) target.

    Solves map_fn(x) = target.  The float solution comes from Newton
    iteration with the exact Jacobian; when ``target`` carries dual parts,
    fixed-point corrections with the converged Jacobian propagate gradients
    (and Hessians when present) to machine precision.  A block target is
    solved sample by sample, with ``seed_guess`` of shape (N, 4).
    """
    n = batch_size(target)
    if n is not None:
        return stack([dual_newton_invert(map_fn, take(target, k), seed_guess[k], tol, max_iter) for k in range(n)])
    tv = np.array([value(c) for c in target], dtype=float)
    x = np.asarray(seed_guess, dtype=float).copy()
    for _ in range(max_iter):
        fx, dfx = jet(map_fn, x)
        jac = dfx.T
        delta = np.linalg.solve(jac, fx - tv)
        x = x - delta
        if np.max(np.abs(delta)) < tol:
            break
    else:
        raise ArithmeticError("map inversion did not converge")
    if not any(isinstance(c, HyperDual) for c in target):
        return [float(c) for c in x]
    # Dual correction: contraction on the derivative parts, quadratic once
    # the value part has converged.
    jinv = np.linalg.inv(jac)
    h0 = np.zeros((DIM, DIM)) if any(isinstance(c, HyperDual) and c.hess is not None for c in target) else None
    xs = [HyperDual(x[i], np.zeros(DIM), h0) for i in range(DIM)]
    for _ in range(3):
        fx = map_fn(xs)
        resid = [fx[m] - target[m] for m in range(DIM)]
        xs = [xs[m] - sum(resid[k] * jinv[m, k] for k in range(DIM)) for m in range(DIM)]
    return xs


@per_point
def dual_matrix_inverse(rows):
    """Invert a 4x4 matrix of scalars (floats or HyperDuals), Gauss-Jordan.

    Pivoting is decided on value parts, sample by sample on a block;
    entries stay exact in the dual algebra.
    """
    n = DIM
    a = [[rows[i][j] for j in range(n)] for i in range(n)]
    inv = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(value(a[r][col])))
        if abs(value(a[pivot][col])) == 0.0:
            raise ZeroDivisionError("singular matrix in dual inversion")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        piv = a[col][col]
        a[col] = [x / piv for x in a[col]]
        inv[col] = [x / piv for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            a[r] = [a[r][j] - f * a[col][j] for j in range(n)]
            inv[r] = [inv[r][j] - f * inv[col][j] for j in range(n)]
    return inv
