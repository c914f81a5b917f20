"""Normal charts at a point and inertial lab frames along a geodesic.

``build_normal_chart`` produces coordinates in which, at the base point,
the metric is exactly the flat matrix and the connection vanishes; the
coordinate map includes the third-order geodesic term, so the first
derivatives of the transformed connection at the base point satisfy the
curvature relation

    d_d Gamma^a_{bc}(0) = -(R^a_{bcd} + R^a_{cbd}) / 3

exactly, which is also what pins the curvature sign convention.  Fourth and
higher order corrections are out of scope.

``lab_frame_along_geodesic`` extends the construction along a geodesic:
at each point of the curve the quadratic normal map is applied with the
origin moved to that point and the parallel-transported tetrad as axes.
The resulting time-axis field is the inertial lab frame of the curve: it
equals the curve's velocity on the curve, is torsion-aligned there
(transformed connection vanishes on the curve), and is in free fall only on
the curve itself.

Both charts are array code over blocks of points, joined to the dual
algebra by ``hyperdual.chain``: the point chart's map is a cubic
polynomial, so its Jacobian and that Jacobian's derivatives are closed
forms; in the sliding chart one Newton solve and one connection-jet lookup
serve a whole block.

Off the curve the chart is second-order accurate; derivative propagation
through the chart drops remainder terms of the same order as the truncation
itself (see ``_TubeChart``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geodesics import GeodesicPath
from .geometry import (
    DIM,
    MetricField,
    as_points,
    christoffel,
    christoffel_jet,
    covariant_derivative_field,
    eval_metric,
    riemann,
)
from .frames import FrameField, kinematic_decompose, make_frame
from .hyperdual import block_values, chain, dual_newton_invert
from .maps import ChartMap, pushed_metric_field

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


class TubeDomainError(ValueError):
    """Point lies outside the declared validity tube of a lab chart."""


class NonFiniteConnectionError(ArithmeticError):
    """The connection, its first derivatives or the cubic map term overflow at a normal chart's base point."""


def _check_tetrad(metric, p, tetrad, tol=1e-10):
    g = eval_metric(metric, p)
    e = np.asarray(tetrad, dtype=float)
    err = np.max(np.abs(e @ g @ e.T - ETA))
    if err > tol:
        raise ValueError(f"tetrad not orthonormal at {tuple(p.tolist())}: deviation {err}")
    return e


def _cubic_coefficient(gamma, dgamma):
    """Symmetrized third-order coefficient of the geodesic Taylor expansion.

    T[m, l, n, r] multiplies y^l y^n y^r in the map out of normal
    coordinates; only the part symmetric in (l, n, r) matters.
    """
    a = -np.einsum("lmnr->mlnr", dgamma) + 2.0 * np.einsum("msr,sln->mlnr", gamma, gamma)
    sym = sum(np.transpose(a, (0, *perm)) for perm in itertools.permutations((1, 2, 3)))
    return sym / 36.0  # 1/6 for the Taylor factor, 1/6 for the average


@dataclass
class NormalChart:
    """Chart flattening the metric and connection at one base point."""

    base_point: np.ndarray
    tetrad: np.ndarray
    gamma_at_p0: np.ndarray
    chart_map: ChartMap
    validity_radius: float

    def forward(self, p):
        return self.chart_map.forward(p)

    def inverse(self, xi):
        return self.chart_map.inverse(xi)

    def metric_in_chart(self, metric: MetricField) -> MetricField:
        return pushed_metric_field(self.chart_map, metric, name=f"{metric.name}@normal")

    def to_json_dict(self):
        return {
            "base_point": self.base_point.tolist(),
            "tetrad": [list(row) for row in self.tetrad],
            "gamma_at_p0": self.gamma_at_p0.reshape(-1).tolist(),
            "validity_radius": self.validity_radius,
        }


def build_normal_chart(metric: MetricField, p0, initial_tetrad, validity_radius=0.05) -> NormalChart:
    """Normal coordinates about p0 with the given orthonormal axes.

    The map out of the chart is the geodesic Taylor polynomial through
    third order, x = x0 + y - Gamma(y, y) / 2 + C(y, y, y) with y = xi^a e_a,
    evaluated as arrays over blocks together with its Jacobian and that
    Jacobian's derivatives, all closed polynomials, and carried into the
    dual algebra by ``hyperdual.chain``.  The forward map inverts it by
    Newton iteration with exact Jacobians, so the chart functions are
    differentiable to second order everywhere in the validity ball.
    """
    x0 = as_points(p0)
    e = _check_tetrad(metric, x0, initial_tetrad)
    where = f"at base point {x0.tolist()}"
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        gamma, dgamma = christoffel_jet(metric, x0)
        if not (np.isfinite(gamma).all() and np.isfinite(dgamma).all()):
            raise NonFiniteConnectionError(f"{metric.name}: connection or its derivative not finite {where}")
        cubic = _cubic_coefficient(gamma, dgamma)
        # both map terms on the tetrad axes: G(xi, xi) = Gamma(y, y) and K(xi, xi, xi) = C(y, y, y)
        g_axes = np.einsum("mnr,an,br->mab", gamma, e, e)
        k_axes = np.einsum("mlnr,al,bn,cr->mabc", cubic, e, e, e)
    if not (np.isfinite(cubic).all() and np.isfinite(g_axes).all() and np.isfinite(k_axes).all()):
        raise NonFiniteConnectionError(f"{metric.name}: connection products overflow the cubic map term {where}")
    third = 6.0 * k_axes  # d H / d xi, constant: the cubic map has no fourth derivative

    def _map(xi):
        """(x, J, H) on an (N, 4) block of chart points: the map, J[n, mu, a] = d x^mu / d xi^a
        and H[n, mu, a, b] = d J[n, mu, a] / d xi^b."""
        kx = np.einsum("mabc,nc->nmab", k_axes, xi)
        gx = np.einsum("mab,nb->nma", g_axes, xi)
        kxx = np.einsum("nmab,nb->nma", kx, xi)
        x = x0 + np.einsum("nma,na->nm", e.T - 0.5 * gx + kxx, xi)
        return x, e.T - gx + 3.0 * kxx, 6.0 * kx - g_axes

    def inverse_fn(xi):
        return chain(xi, *_map(block_values(xi)[0]))

    def inverse_jacobian_fn(xi):
        """Rows [mu][a] of d x^mu / d xi^a."""
        return chain(xi, *_map(block_values(xi)[0])[1:], third)

    def forward_fn(coords):
        target, _ = block_values(coords)
        return dual_newton_invert(inverse_fn, coords, np.linalg.solve(e.T, (target - x0).T).T)

    cmap = ChartMap(forward_fn, inverse_fn, "normal-chart", inverse_jacobian_fn)
    return NormalChart(x0, e, gamma, cmap, validity_radius)


def normal_chart_curvature_check(metric: MetricField, chart: NormalChart, step=1e-3):
    """Deviation of the transformed-connection derivative from curvature.

    Numerically differentiates the connection of the chart-expressed metric
    at the base point (Richardson-refined central differences) and compares
    with -(R^a_{bcd} + R^a_{cbd})/3 built from the curvature tensor carried
    to the chart axes.  Returns (max_abs_deviation, measured, expected).
    """
    pushed = chart.metric_in_chart(metric)
    # one block: +h and -h along each axis, for h = step and step / 2
    hs = (step, -step, step / 2.0, -step / 2.0)
    gam = christoffel(pushed, np.concatenate([np.diag(np.full(DIM, h)) for h in hs]))
    gam = gam.reshape(len(hs), DIM, DIM, DIM, DIM)  # [h, d, a, b, c]
    d1 = (gam[0] - gam[1]) / (2 * step)
    d2 = (gam[2] - gam[3]) / (2 * (step / 2.0))
    measured = (4.0 * d2 - d1) / 3.0  # [d, a, b, c]

    curv = riemann(metric, chart.base_point).riemann
    m = chart.tetrad.T  # m[mu, a] = e_a^mu
    minv = np.linalg.inv(m)
    r_chart = np.einsum("am,mnrs,nb,rc,sd->abcd", minv, curv, m, m, m)
    # expected[d, a, b, c] = -(R^a_{bcd} + R^a_{cbd}) / 3
    expected = -(np.einsum("abcd->dabc", r_chart) + np.einsum("acbd->dabc", r_chart)) / 3.0
    return float(np.max(np.abs(measured - expected))), measured, expected


def metric_deviation_exponent(metric: MetricField, chart: NormalChart, radii=None, direction=None):
    """Fitted growth exponent of |g(xi) - eta| on a radial ladder, and the ladder.

    The exponent is None when every deviation is exactly zero (flat space):
    a growth rate of nothing is undefined.
    """
    pushed = chart.metric_in_chart(metric)
    if radii is None:
        radii = chart.validity_radius * np.array([0.08, 0.16, 0.32, 0.64])
    if direction is None:
        direction = np.array([0.3, 0.8, -0.4, 0.33])
    direction = np.asarray(direction) / np.linalg.norm(direction)
    g = eval_metric(pushed, np.outer(radii, direction))
    devs = np.max(np.abs(g - ETA), axis=(1, 2))
    ladder = list(zip([float(r) for r in radii], [float(d) for d in devs]))
    if not devs.any():
        return None, ladder
    slope = np.polyfit(np.log(np.asarray(radii)), np.log(devs), 1)[0]
    return float(slope), ladder


class _TubeChart:
    """Normal map with origin and axes sliding along a geodesic, on points or blocks.

    Coordinates (xi0, xi1, xi2, xi3): xi0 is proper time of the foot point
    on the curve, the spatial coordinates are quadratic normal coordinates
    in the slice through that point.  With y = xi^i e_i(xi0) the map out of
    the chart is x = c(xi0) + y - Gamma(c)(y, y) / 2 (Manasse & Misner,
    J. Math. Phys. 4, 735 (1963)).  It is evaluated as arrays over an
    (N, 4) block of chart points, together with its Jacobian and the
    Jacobian's derivatives, and carried to dual inputs by the chain rule
    (``hyperdual.chain``), so no Hessian flows through the connection.
    The Jacobian's derivatives treat the curve derivative of the connection
    gradient as locally constant; that term enters only at the same order
    as the quadratic truncation error and vanishes identically on the curve.
    """

    # connection jets kept per chart: a plli lab chart visits about five foot points
    _JET_CACHE_SIZE = 64

    def __init__(self, metric: MetricField, path: GeodesicPath):
        self.metric = metric
        self.path = path
        self.tetrad = path.tetrad
        self._jets = {}  # exact foot point -> (gamma, dgamma), oldest first

    def _connection_jet(self, x):
        """``christoffel_jet`` at a foot point (4,) or block (N, 4), each distinct point evaluated once."""
        feet = np.asarray(x, dtype=float)
        keys = [row.tobytes() for row in feet.reshape(-1, DIM)]  # tells -0.0 from 0.0
        jets = {k: self._jets[k] for k in keys if k in self._jets}
        new = [k for k in dict.fromkeys(keys) if k not in jets]
        if new:
            pts = np.frombuffer(b"".join(new)).reshape(-1, DIM)
            got = christoffel_jet(self.metric, pts[0] if len(new) == 1 else pts)
            for k, jet in zip(new, [got] if len(new) == 1 else zip(*got)):
                if len(self._jets) >= self._JET_CACHE_SIZE:
                    del self._jets[next(iter(self._jets))]
                for a in jet:  # shared by every later caller
                    a.flags.writeable = False
                jets[k] = self._jets[k] = jet
        if feet.ndim == 1:
            return jets[keys[0]]
        return tuple(np.array(a) for a in zip(*(jets[k] for k in keys)))

    def _map(self, xi, rates):
        """(x, J[, H]) on an (N, 4) block of chart points: the map, its Jacobian J[n, mu, a] =
        d x^mu / d xi^a (column 0 is the raw lab field) and, with ``rates``, H[n, mu, a, b] =
        d J[n, mu, a] / d xi^b."""
        s, q = xi[:, 0], xi[:, 1:]
        c, v = self.path.position(s), self.path.velocity(s)
        e, e1 = self.tetrad.tetrad(s), self.tetrad.tetrad(s, 1)
        gamma, dgamma = self._connection_jet(c)

        def spatial(t):  # xi^i t_i for a tetrad or its s-derivative t
            return np.einsum("ni,nim->nm", q, t[:, 1:])

        y = spatial(e)
        b = np.concatenate([spatial(e1)[:, None], e[:, 1:]], axis=1)  # B[n, a] = d y / d xi^a
        gy = np.einsum("nmab,nb->nma", gamma, y)  # Gamma(., y)
        x = c + y - 0.5 * np.einsum("nma,na->nm", gy, y)
        w = np.einsum("nsmab,ns->nmab", dgamma, v)  # d Gamma / ds along the curve
        wy = np.einsum("nmab,nb->nma", w, y)
        jac = np.swapaxes(b, 1, 2) - np.einsum("nmc,nac->nma", gy, b)
        jac[:, :, 0] += v - 0.5 * np.einsum("nma,na->nm", wy, y)
        if not rates:
            return x, jac
        cc = np.zeros((len(xi), DIM, DIM, DIM))  # C[n, a, b] = d B[n, a] / d xi^b
        cc[:, 0, 0] = spatial(self.tetrad.tetrad(s, 2))
        cc[:, 0, 1:] = cc[:, 1:, 0] = e1[:, 1:]
        hess = np.moveaxis(cc, 3, 1) - np.einsum("nmc,nabc->nmab", gy, cc)
        hess -= np.einsum("nmcd,nac,nbd->nmab", gamma, b, b)
        wb = np.einsum("nmc,nbc->nmb", wy, b)  # w(B_b, y), w held constant along the curve
        hess[:, :, 0] -= wb
        hess[:, :, :, 0] -= wb
        hess[:, :, 0, 0] += self.path.acceleration(s)
        return x, jac, hess

    def inverse_fn(self, xi):
        return chain(xi, *self._map(block_values(xi)[0], rates=False))

    def inverse_jacobian_fn(self, xi):
        """Rows [mu][a] of d x^mu / d xi^a; column 0 is the raw lab-frame field."""
        return chain(xi, *self._map(block_values(xi)[0], rates=True)[1:])

    def forward_fn(self, coords):
        """Chart coordinates of a point or block, by Newton from the nearest knot's slice."""
        target, _ = block_values(coords)
        k = np.argmin(np.linalg.norm(self.path.points[None] - target[:, None], axis=-1), axis=1)
        delta = target - self.path.points[k]
        comp = np.linalg.solve(np.swapaxes(self.tetrad.samples[k], 1, 2), delta[..., None])[..., 0]
        guess = np.concatenate([(self.path.s[k] + comp[:, 0])[:, None], comp[:, 1:]], axis=1)
        return dual_newton_invert(self.inverse_fn, coords, guess)


@dataclass
class GeodesicLabFrame:
    """Inertial lab frame of a geodesic: sliding normal chart plus field.

    ``frame`` is the unit-normalized time-axis field of the chart expressed
    back in the base chart; ``raw_fn`` keeps the unnormalized coordinate
    field for raw-expansion reporting.
    """

    chart: NormalChart
    frame: FrameField
    path: GeodesicPath
    validity_radius: float
    label: str

    def check_inside(self, p):
        xi = self.chart.forward(p)
        r = float(np.linalg.norm(xi[1:]))
        if r > self.validity_radius:
            raise TubeDomainError(
                f"{self.label}: point at slice radius {r:.3g} exceeds validity radius "
                f"{self.validity_radius:.3g}"
            )
        if not (self.path.s_min - 1e-12 <= xi[0] <= self.path.s_max + 1e-12):
            raise TubeDomainError(f"{self.label}: foot time {xi[0]:.3g} outside path range")
        return xi


def lab_frame_along_geodesic(
    metric: MetricField,
    path: GeodesicPath,
    validity_radius=0.05,
    label="lab",
) -> GeodesicLabFrame:
    """Build the inertial lab frame carried by a geodesic.

    Args:
        path: geodesic from the integrator, integrated with a tetrad (its
            s=0 point becomes the chart base point, its transported tetrad
            the axes).
        validity_radius: declared tube radius (chart units); guidance is the
            inverse square root of the local curvature scale.
    """
    if validity_radius <= 0:
        raise ValueError("validity radius must be positive")
    if path.tetrad is None:
        raise ValueError("the path carries no tetrad; integrate it with integrate_geodesic(..., tetrad=...)")
    if len(path.s) < 2:
        raise ValueError(
            f"the path has {len(path.s)} knot and no dense output to slide a lab chart along "
            f"(truncated: {path.stats.get('reason')})"
        )
    tube = _TubeChart(metric, path)
    k0 = int(np.argmin(np.abs(path.s)))
    base = as_points(path.points[k0])
    cmap = ChartMap(tube.forward_fn, tube.inverse_fn, f"lab-chart-{label}", tube.inverse_jacobian_fn)
    chart = NormalChart(base, path.tetrad.samples[k0], christoffel(metric, base), cmap, validity_radius)

    def raw_field(coords):
        jac = tube.inverse_jacobian_fn(tube.forward_fn(coords))
        return [jac[mu][0] for mu in range(DIM)]

    frame = make_frame(raw_field, metric, label=label, sample_points=[base])
    return GeodesicLabFrame(chart, frame, path, validity_radius, label)


@dataclass
class LabExpansion:
    """Expansion rate of a lab frame at a point, both normalizations."""

    theta: float
    theta_raw: float
    point: np.ndarray

    def to_json_dict(self):
        return {"theta": self.theta, "theta_raw": self.theta_raw, "point": self.point.tolist()}


def lab_frame_expansion(metric: MetricField, lab: GeodesicLabFrame, p) -> LabExpansion:
    """Expansion rate of the lab field at p (must lie in the validity tube).

    ``theta`` uses the unit-normalized field through the kinematic
    decomposition; ``theta_raw`` is the covariant divergence of the
    unnormalized coordinate field.  The two coincide on the curve.
    """
    p = as_points(p)
    lab.check_inside(p)
    dec = kinematic_decompose(metric, lab.frame, p)
    raw = SimpleNamespace(component_fn=lab.frame.raw_fn)
    raw_nabla = covariant_derivative_field(metric, raw, p)
    return LabExpansion(dec.theta, float(np.trace(raw_nabla)), p)
