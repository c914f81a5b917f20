"""Truncated-Taylor scalars for exact first and second derivatives.

Every field in this package (metric components, frame components, chart
maps) is written as ordinary arithmetic over scalars.  Feeding seeded
``HyperDual`` values through that arithmetic yields the exact gradient and
Hessian of each output with respect to the four chart coordinates, with no
step-size error.  A central-difference evaluator exists in
``framekin.oracles`` purely as an independent cross-check; it is never the
production path.

The dimension is fixed at 4 (one timelike plus three spacelike coordinates).
"""

from __future__ import annotations

import math

import numpy as np

DIM = 4


class HyperDual:
    """Scalar carrying value, gradient and (optionally) Hessian.

    ``grad`` is a length-4 array of first partials with respect to the chart
    coordinates.  ``hess`` is the symmetric 4x4 matrix of second partials,
    or ``None`` when only first-order information is being tracked; any
    operation involving a ``None`` Hessian produces a ``None`` Hessian.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad=None, hess=None):
        self.val = float(val)
        self.grad = np.zeros(DIM) if grad is None else grad
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
        return self + (-other if isinstance(other, HyperDual) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            h = None
            if self.hess is not None and other.hess is not None:
                cross = np.outer(self.grad, other.grad)
                h = self.hess * other.val + other.hess * self.val + cross + cross.T
            return HyperDual(
                self.val * other.val,
                self.grad * other.val + other.grad * self.val,
                h,
            )
        c = float(other)
        return HyperDual(self.val * c, self.grad * c, None if self.hess is None else self.hess * c)

    __rmul__ = __mul__

    def _reciprocal(self):
        v = self.val
        if v == 0.0:
            raise ZeroDivisionError("reciprocal of hyper-dual with zero value part")
        inv = 1.0 / v
        grad = -self.grad * inv * inv
        h = None
        if self.hess is not None:
            gg = np.outer(self.grad, self.grad)
            h = -self.hess * inv * inv + 2.0 * gg * inv * inv * inv
        return HyperDual(inv, grad, h)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, n):
        n = float(n)
        v = self.val
        f = v**n
        fp = n * v ** (n - 1.0)
        fpp = n * (n - 1.0) * v ** (n - 2.0)
        return self._chain(f, fp, fpp)

    def _chain(self, f, fp, fpp):
        """Apply a scalar function with known derivatives f, f', f'' at val."""
        h = None
        if self.hess is not None:
            h = fp * self.hess + fpp * np.outer(self.grad, self.grad)
        return HyperDual(f, fp * self.grad, h)

    # -- comparisons operate on value parts ---------------------------------

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
    """Value part of a scalar that may or may not be a HyperDual."""
    return x.val if isinstance(x, HyperDual) else float(x)


def grad(x):
    """Gradient part, zero for plain floats."""
    return x.grad if isinstance(x, HyperDual) else np.zeros(DIM)


def hess(x):
    """Hessian part; zero matrix for plain floats, None if untracked."""
    if isinstance(x, HyperDual):
        return x.hess
    return np.zeros((DIM, DIM))


def sqrt(x):
    if isinstance(x, HyperDual):
        s = math.sqrt(x.val)
        return x._chain(s, 0.5 / s, -0.25 / (x.val * s))
    return math.sqrt(x)


def exp(x):
    if isinstance(x, HyperDual):
        e = math.exp(x.val)
        return x._chain(e, e, e)
    return math.exp(x)


def log(x):
    if isinstance(x, HyperDual):
        v = x.val
        return x._chain(math.log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(x)


def asinh(x):
    if isinstance(x, HyperDual):
        v = x.val
        q = 1.0 / math.sqrt(1.0 + v * v)
        return x._chain(math.asinh(v), q, -v * q * q * q)
    return math.asinh(x)


def sin(x):
    if isinstance(x, HyperDual):
        s, c = math.sin(x.val), math.cos(x.val)
        return x._chain(s, c, -s)
    return math.sin(x)


def cos(x):
    if isinstance(x, HyperDual):
        s, c = math.sin(x.val), math.cos(x.val)
        return x._chain(c, -s, -c)
    return math.cos(x)


def seed(coords, order=2):
    """Seed four coordinates as independent variables.

    order=2 tracks Hessians, order=1 tracks gradients only.
    """
    coords = np.asarray(coords, dtype=float)
    out = []
    for i in range(DIM):
        e = np.zeros(DIM)
        e[i] = 1.0
        h = np.zeros((DIM, DIM)) if order == 2 else None
        out.append(HyperDual(coords[i], e, h))
    return out


def constant(c, order=2):
    """Lift a plain number to a HyperDual constant."""
    h = np.zeros((DIM, DIM)) if order == 2 else None
    return HyperDual(float(c), np.zeros(DIM), h)


def taylor_apply(val, jac, coords_dual, hessian=None):
    """Compose a function known by its jet at a point with dual coordinates.

    ``val`` and ``jac`` (and optionally ``hessian``) are the function's value,
    gradient and Hessian at the point whose coordinates equal the value parts
    of ``coords_dual``.  Returns the function as a HyperDual consistent with
    the seeding of ``coords_dual``.  With ``hessian=None`` the result carries
    no Hessian, which poisons any downstream second-derivative use.
    """
    g = np.zeros(DIM)
    for i, c in enumerate(coords_dual):
        g = g + jac[i] * grad(c)
    h = None
    if hessian is not None:
        gs = [grad(c) for c in coords_dual]
        hs = [hess(c) for c in coords_dual]
        if all(hc is not None for hc in hs):
            h = np.zeros((DIM, DIM))
            for i in range(DIM):
                h = h + jac[i] * hs[i]
                for j in range(DIM):
                    h = h + hessian[i][j] * np.outer(gs[i], gs[j])
    return HyperDual(val, g, h)


def jet1_vector(fn, coords):
    """Evaluate a 4-vector-valued function and its first derivatives.

    Returns (v, dv) with v[mu] the components and dv[nu, mu] = d_nu v^mu.
    """
    xs = seed(coords, order=1)
    comps = fn(xs)
    v = np.empty(DIM)
    dv = np.zeros((DIM, DIM))
    for mu in range(DIM):
        c = comps[mu]
        v[mu] = value(c)
        dv[:, mu] = grad(c)
    return v, dv


def jet1_matrix(fn, coords):
    """Evaluate a 4x4 matrix function and its first derivatives.

    Returns (m, dm) with dm[sigma, mu, nu] = d_sigma m_{mu nu}.
    """
    xs = seed(coords, order=1)
    rows = fn(xs)
    m = np.empty((DIM, DIM))
    dm = np.zeros((DIM, DIM, DIM))
    for mu in range(DIM):
        for nu in range(DIM):
            c = rows[mu][nu]
            m[mu, nu] = value(c)
            dm[:, mu, nu] = grad(c)
    return m, dm


def jet2_matrix(fn, coords):
    """Evaluate a 4x4 matrix function with first and second derivatives.

    Returns (m, dm, d2m) with dm[sigma, mu, nu] = d_sigma m_{mu nu} and
    d2m[rho, sigma, mu, nu] = d_rho d_sigma m_{mu nu}.
    """
    xs = seed(coords, order=2)
    rows = fn(xs)
    m = np.empty((DIM, DIM))
    dm = np.zeros((DIM, DIM, DIM))
    d2m = np.zeros((DIM, DIM, DIM, DIM))
    for mu in range(DIM):
        for nu in range(DIM):
            c = rows[mu][nu]
            m[mu, nu] = value(c)
            if isinstance(c, HyperDual):
                dm[:, mu, nu] = c.grad
                if c.hess is None:
                    raise ValueError("second-order jet requested from a first-order evaluation")
                d2m[:, :, mu, nu] = c.hess
    return m, dm, d2m


def dual_newton_invert(map_fn, target, seed_guess, tol=1e-13, max_iter=60):
    """Invert a dual-capable map R^4 -> R^4 at a (possibly dual) target.

    Solves map_fn(x) = target.  The float solution comes from Newton
    iteration with the exact Jacobian; when ``target`` carries dual parts,
    fixed-point corrections with the converged Jacobian propagate gradients
    (and Hessians when present) to machine precision.
    """
    tv = np.array([value(c) for c in target], dtype=float)
    x = np.asarray(seed_guess, dtype=float).copy()
    jac = None
    for _ in range(max_iter):
        xs = seed(x, order=1)
        fx = map_fn(xs)
        fv = np.array([value(c) for c in fx])
        jac = np.array([[grad(fx[m])[a] for a in range(DIM)] for m in range(DIM)])
        delta = np.linalg.solve(jac, fv - tv)
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
    xs = [HyperDual(x[i], np.zeros(DIM), _hess_like(target)) for i in range(DIM)]
    for _ in range(3):
        fx = map_fn(xs)
        resid = [fx[m] - target[m] for m in range(DIM)]
        xs = [
            xs[m] - sum(resid[k] * jinv[m, k] for k in range(DIM))
            for m in range(DIM)
        ]
    return xs


def _hess_like(duals):
    for c in duals:
        if isinstance(c, HyperDual) and c.hess is not None:
            return np.zeros((DIM, DIM))
    return None


def dual_matrix_inverse(rows):
    """Invert a 4x4 matrix of scalars (floats or HyperDuals), Gauss-Jordan.

    Pivoting is decided on value parts; entries stay exact in the dual
    algebra.
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
