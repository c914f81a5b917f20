"""Independent references the tests hold the package against.

Finite-difference derivatives of the metric and the connection, adaptive
Simpson quadrature and monotone inversion, the transformation laws of a
connection and of a frame through a chart map, and the closed forms of the
expanding model.  They live beside the tests, imported as
``from reference import ...``, so nothing under ``src`` can read them and
their independence from the production path is structural.  The one
finite-difference evaluator a report reads, ``fd_divergence``, stays in
``framekin.oracles``.
"""

from __future__ import annotations

import numpy as np

from framekin.catalog import FriedmannModel, ScaleFactor
from framekin.frames import make_frame
from framekin.geometry import DIM, MetricField, as_points, christoffel, eval_metric
from framekin.hyperdual import jet, value
from framekin.maps import ChartMap


# -- finite differences and the covariant derivative ---------------------------------


def fd_metric_derivatives(metric: MetricField, p, step=1e-5) -> np.ndarray:
    """Central-difference first derivatives dg[sigma, mu, nu]."""
    x = as_points(p)
    dg = np.zeros((DIM, DIM, DIM))
    for s in range(DIM):
        hi = x.copy()
        lo = x.copy()
        hi[s] += step
        lo[s] -= step
        dg[s] = (eval_metric(metric, hi) - eval_metric(metric, lo)) / (2 * step)
    return dg


def fd_connection_derivatives(metric: MetricField, p, step=1e-4) -> np.ndarray:
    """Central-difference derivatives of the connection, Richardson refined.

    Returns dgamma[sigma, mu, nu, rho] = d_sigma Gamma^mu_{nu rho}.
    """
    x = as_points(p)

    def diff(h):
        out = np.zeros((DIM, DIM, DIM, DIM))
        for s in range(DIM):
            hi = x.copy()
            lo = x.copy()
            hi[s] += h
            lo[s] -= h
            out[s] = (christoffel(metric, hi) - christoffel(metric, lo)) / (2 * h)
        return out

    d1 = diff(step)
    d2 = diff(step / 2.0)
    return (4.0 * d2 - d1) / 3.0


def fd_riemann_from_connection(metric: MetricField, p, step=1e-4) -> np.ndarray:
    """Curvature assembled from finite differences of the connection.

    Same sign convention as geometry.riemann; serves as its oracle.
    """
    gamma = christoffel(metric, p)
    dgamma = fd_connection_derivatives(metric, p, step)
    return (
        np.einsum("cadb->abcd", dgamma)
        - np.einsum("dacb->abcd", dgamma)
        + np.einsum("acl,ldb->abcd", gamma, gamma)
        - np.einsum("adl,lcb->abcd", gamma, gamma)
    )


def covariant_derivative_field(metric: MetricField, frame, p) -> np.ndarray:
    """Mixed covariant derivative of a vector field.

    Returns nabla[mu, nu] = Q^mu_{;nu} = d_nu Q^mu + Gamma^mu_{nu rho} Q^rho.
    ``frame`` is anything with a dual-capable ``component_fn``.
    """
    p = as_points(p)
    q, dq = jet(frame.component_fn, p)
    gamma = christoffel(metric, p)
    return dq.T + np.einsum("mnr,r->mn", gamma, q)


# -- quadrature and inversion ------------------------------------------------------


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive Simpson integral of a smooth scalar function."""
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def simp(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth, tol):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = simp(flo, flm, fmid, mid - lo)
        right = simp(fmid, frm, fhi, hi - mid)
        if depth >= max_depth or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, depth + 1, tol / 2.0) + recurse(
            mid, hi, fmid, frm, fhi, right, depth + 1, tol / 2.0
        )

    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = simp(fa, fm, fb, b - a)
    return recurse(a, b, fa, fm, fb, whole, 0, tol)


def invert_monotone(fn, dfn, target, lo, hi, tol=1e-12, max_iter=200):
    """Solve fn(t) = target for increasing fn by bisection-seeded Newton."""
    flo, fhi = fn(lo) - target, fn(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError("target not bracketed by the supplied interval")
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        fm = fn(mid) - target
        if fm <= 0:
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        resid = fn(t) - target
        step = resid / dfn(t)
        t -= step
        if not lo - 1e-9 <= t <= hi + 1e-9:
            t = 0.5 * (lo + hi)
        if abs(step) < tol:
            return t
    raise ArithmeticError("monotone inversion did not converge")


# -- transformation laws through a chart map -----------------------------------------


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


def pushed_frame_field(cmap: ChartMap, frame, metric_image: MetricField, label=None):
    """Frame components carried to the image chart by the map differential.

    Q'^mu(x') = (d x'^mu / d x^a)(x(x')) Q^a(x(x')); the result is wrapped
    as a unit frame against the image-chart metric.
    """

    def comps(coords):
        back, a = cmap.pullback_fn(coords)  # a = dx/dx'
        lam = dual_matrix_inverse(a)  # dx'/dx at the source point
        q = frame.component_fn(back)
        return [sum(lam[mu][al] * q[al] for al in range(DIM)) for mu in range(DIM)]

    return make_frame(comps, metric_image, label=label or f"{frame.label}'")


def transform_connection(cmap: ChartMap, metric: MetricField, p):
    """Connection in the image chart via the inhomogeneous transformation law.

    Gamma'^m_{ij}(x') = La^m_a (La^-1)^b_i (La^-1)^c_j Gamma^a_{bc}
                        + La^m_a  d^2 x^a / d x'^i d x'^j,
    computed from exact second derivatives of the inverse point map.
    """
    gamma = christoffel(metric, p)
    image = cmap.forward(p)
    lam = jet(cmap.forward_fn, as_points(p))[1].T  # [mu, alpha] = d x'^mu / d x^alpha
    lam_inv = np.linalg.inv(lam)
    _, _, d2 = jet(lambda c: cmap.pullback_fn(c)[0], image, order=2)
    second = np.moveaxis(d2, -1, 0)  # [a, i, j] = d2 x^a / dx'^i dx'^j
    out = np.einsum("ma,bi,cj,abc->mij", lam, lam_inv, lam_inv, gamma)
    out += np.einsum("ma,aij->mij", lam, second)
    return out


# -- closed forms of the expanding model ----------------------------------------------


def friedmann_connection_closed(scale: ScaleFactor, point) -> np.ndarray:
    """Connection of the expanding metric in comoving coordinates.

    Nonzero families: Gamma^0_{kk} = R Rdot and Gamma^k_{0k} = Rdot/R.
    """
    t = as_points(point)[0]
    r, rd = scale.value(t), scale.rate(t)
    gam = np.zeros((DIM, DIM, DIM))
    for k in (1, 2, 3):
        gam[0, k, k] = r * rd
        gam[k, 0, k] = gam[k, k, 0] = rd / r
    return gam


def z_chart_metric_closed(model: FriedmannModel, cmap: ChartMap, primed_point) -> np.ndarray:
    """Chart-adapted metric through the printed coefficient form.

    diag(1, -Rb^2 [1 - v^2 (1 - Rb^-2)] / (1 - v^2), -Rb^2, -Rb^2) with Rb
    the scale factor at the time recovered by the full inverse map; the x^1
    coefficient simplifies to Rb^2 + u^2.
    """
    back = cmap.pullback_fn(as_points(primed_point).tolist())[0]
    rb = model.scale.value(back[0])
    v2 = model.v**2
    coef = rb * rb * (1.0 - v2 * (1.0 - rb**-2)) / (1.0 - v2)
    return np.diag([1.0, -coef, -rb * rb, -rb * rb])


def z_chart_connection_closed(model: FriedmannModel, cmap: ChartMap, primed_point) -> np.ndarray:
    """Connection of the chart-adapted metric, derived closed forms.

    With Rb and Rdot the scale value and rate at the recovered time and
    W = (Rb^2 + u^2)^(1/2):

        Gamma^0_{kk}          =  Rdot W
        Gamma^1_{01}          =  Rdot / W
        Gamma^1_{11}          =  u Rdot / W
        Gamma^1_{22} = ^1_{33} = -u Rdot / W
        Gamma^2_{02} = ^3_{03} =  Rdot W / Rb^2
        Gamma^2_{12} = ^3_{13} =  u Rdot W / Rb^2

    The u-proportional spatial families come from the drift of the
    recovered time along x1'.
    """
    u = model.u
    back = cmap.pullback_fn(as_points(primed_point).tolist())[0]
    rb = model.scale.value(back[0])
    rd = model.scale.rate(back[0])
    w = np.sqrt(rb * rb + u * u)
    gam = np.zeros((DIM, DIM, DIM))
    for k in (1, 2, 3):
        gam[0, k, k] = rd * w
    gam[1, 0, 1] = gam[1, 1, 0] = rd / w
    gam[1, 1, 1] = u * rd / w
    gam[1, 2, 2] = gam[1, 3, 3] = -u * rd / w
    for k in (2, 3):
        gam[k, 0, k] = gam[k, k, 0] = rd * w / rb**2
        gam[k, 1, k] = gam[k, k, 1] = u * rd * w / rb**2
    return gam


def theta_comoving_closed(scale: ScaleFactor, t) -> float:
    """Expansion of the comoving frame: 3 Rdot / R."""
    return 3.0 * scale.rate(t) / scale.value(t)


def theta_drifting_closed(scale: ScaleFactor, u, t) -> float:
    """Expansion of the drifting frame, derived directly.

    Rdot (3 R^2 + 2 u^2) / (R^2 (R^2 + u^2)^(1/2)); at t = 0 this is
    3a + a v^2 / 2 + O(v^4).
    """
    r, rd = scale.value(t), scale.rate(t)
    return rd * (3.0 * r * r + 2.0 * u * u) / (r * r * np.sqrt(r * r + u * u))


def theta_drifting_as_printed(scale: ScaleFactor, u, t) -> float:
    """Expansion of the drifting frame in the form printed in the source
    derivation, emitted for the record only: it disagrees with the direct
    computation at order v^2 and is not used as an oracle anywhere.
    """
    r, rd = scale.value(t), scale.rate(t)
    w = np.sqrt(r * r + u * u)
    return (r * rd + 2.0 * rd * w) / (r * r * w)


def experiment_accelerations_closed(model: FriedmannModel, v_probe):
    """Initial proper-time accelerations of the two launch cases.

    Assembled from the closed-form chart-adapted connection at the origin;
    serves as the independent target for the integrated experiment.
    Returns ((a1_case_a, a2_case_a), (a1_case_b, a2_case_b)).
    """
    a, u, v = model.a, model.u, v_probe
    w = np.sqrt(1.0 + u * u)
    g101, g111, g122, g202 = a / w, u * a / w, -u * a / w, a * w
    dt_ds2_a = 1.0 / (1.0 - (1.0 + u * u) * v * v)
    dt_ds2_b = 1.0 / (1.0 - v * v)
    acc_a = (-(2.0 * g101 * v + g111 * v * v) * dt_ds2_a, 0.0)
    acc_b = (-(g122 * v * v) * dt_ds2_b, -(2.0 * g202 * v) * dt_ds2_b)
    return acc_a, acc_b


def moving_lab_theta_closed_form(a_param, v_param):
    """Closed form of the deformed-lab expansion at the epoch point.

    a ((3 - v^2) / s - 3) with s = sqrt(1 - v^2), written as a v^2 (2 - s) / ((1 + s) s), which
    does not cancel as v -> 0.
    """
    s = np.sqrt(1.0 - v_param**2)
    return a_param * v_param**2 * (2.0 - s) / ((1.0 + s) * s)


def drift_velocity_closed(a, u, t):
    """Coordinate velocity dx1/dt = u / (R (R^2+u^2)^(1/2)) of the drifting geodesic."""
    r = 1.0 + a * t
    return u / (r * np.sqrt(r * r + u * u))


def drift_position_closed(a, u, t):
    """Trajectory x1(t) = u * integral_0^t dr / (R (R^2+u^2)^(1/2)) of the drifting geodesic, by quadrature."""
    return u * adaptive_simpson(lambda r: 1.0 / ((1 + a * r) * np.sqrt((1 + a * r) ** 2 + u * u)), 0.0, t)
