"""Independent finite-difference and quadrature evaluators.

These exist as cross-checks for the exact derivative engine, for the closed
forms of the drift-adapted chart, for ``pushed_metric_field`` (the
transformation laws of a connection and of a frame through a chart map),
and for report evidence.  Production code paths never derive geometry from
them; tests and evidence payloads do.
"""

from __future__ import annotations

import numpy as np

from .frames import make_frame
from .geometry import DIM, MetricField, as_points, christoffel, eval_metric
from .hyperdual import block_values, dual_matrix_inverse, jet
from .maps import ChartMap


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


def fd_divergence(metric: MetricField, frame, p, step=1e-4) -> float:
    """Scalar-density divergence (1/sqrt|g|) d_mu (sqrt|g| Q^mu).

    Independent route to the expansion rate: no connection coefficients and
    no exact-derivative engine, only metric determinants and central
    differences of the frame components, Richardson refined.  The 16
    stencil points and p go to the metric as one block, and the stencil
    points to the frame as one block.
    """
    hs = (step, -step, step / 2.0, -step / 2.0)
    pts = as_points(p) + np.concatenate([np.diag(np.full(DIM, h)) for h in hs] + [np.zeros((1, DIM))])
    root_det = np.sqrt(np.abs(np.linalg.det(eval_metric(metric, pts))))
    q, _ = block_values(frame.component_fn(list(pts[:-1].T)))
    # dens[h, mu] = sqrt|g| Q^mu at the point moved by h along axis mu
    dens = root_det[:-1].reshape(4, DIM) * np.diagonal(q.reshape(4, DIM, DIM), axis1=1, axis2=2)

    d1, d2 = (sum(((dens[i] - dens[i + 1]) / (2 * hs[i])).tolist()) for i in (0, 2))  # summed over mu in order
    refined = (4.0 * d2 - d1) / 3.0
    return float(refined / root_det[-1])


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


def pushed_frame_field(cmap: ChartMap, frame, metric_image: MetricField, label=None):
    """Frame components carried to the image chart by the map differential.

    Q'^mu(x') = (d x'^mu / d x^a)(x(x')) Q^a(x(x')); the result is wrapped
    as a unit frame against the image-chart metric.
    """

    def comps(coords):
        back = cmap.inverse_fn(coords)
        a = cmap.inverse_jacobian_fn(coords)  # dx/dx'
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
    lam = cmap.jacobian(p)
    lam_inv = np.linalg.inv(lam)
    _, _, d2 = jet(cmap.inverse_fn, image, order=2)
    second = np.moveaxis(d2, -1, 0)  # [a, i, j] = d2 x^a / dx'^i dx'^j
    out = np.einsum("ma,bi,cj,abc->mij", lam, lam_inv, lam_inv, gamma)
    out += np.einsum("ma,aij->mij", lam, second)
    return out
