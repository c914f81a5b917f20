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

Off the curve the chart is second-order accurate; derivative propagation
through the chart drops remainder terms of the same order as the truncation
itself (see ``_TubeChart``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import GeodesicPath
from .geometry import (
    DIM,
    ChartPoint,
    ConnectionCoefficients,
    MetricField,
    as_point,
    christoffel,
    christoffel_jet,
    eval_metric,
    riemann,
)
from .frames import FrameField, kinematic_decompose, make_frame
from .hyperdual import dual_newton_invert, per_point, taylor_apply, value
from .maps import ChartMap, pushed_metric_field

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


class TubeDomainError(ValueError):
    """Point lies outside the declared validity tube of a lab chart."""


def _check_tetrad(metric, p, tetrad, tol=1e-10):
    g = eval_metric(metric, p)
    e = np.asarray(tetrad, dtype=float)
    err = np.max(np.abs(e @ g @ e.T - ETA))
    if err > tol:
        raise ValueError(f"tetrad not orthonormal at {tuple(p.coords)}: deviation {err}")
    return e


def _cubic_coefficient(gamma, dgamma):
    """Symmetrized third-order coefficient of the geodesic Taylor expansion.

    T[m, l, n, r] multiplies y^l y^n y^r in the map out of normal
    coordinates; only the part symmetric in (l, n, r) matters.
    """
    a = -np.einsum("lmnr->mlnr", dgamma) + 2.0 * np.einsum("msr,sln->mlnr", gamma, gamma)
    sym = np.zeros_like(a)
    for perm in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)):
        sym += np.transpose(a, (0, *perm))
    return sym / 36.0  # 1/6 for the Taylor factor, 1/6 for the average


@dataclass
class NormalChart:
    """Chart flattening the metric and connection at one base point."""

    base_point: ChartPoint
    tetrad: np.ndarray
    gamma_at_p0: ConnectionCoefficients
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
            "base_point": list(self.base_point.coords),
            "tetrad": [list(row) for row in self.tetrad],
            "gamma_at_p0": [float(x) for x in self.gamma_at_p0.gamma.reshape(-1)],
            "validity_radius": self.validity_radius,
        }


def build_normal_chart(metric: MetricField, p0, initial_tetrad, validity_radius=0.05) -> NormalChart:
    """Normal coordinates about p0 with the given orthonormal axes.

    The map out of the chart is the geodesic Taylor polynomial through
    third order; the forward map inverts it by Newton iteration with exact
    Jacobians, so the chart functions are differentiable to second order
    everywhere in the validity ball.
    """
    p0 = as_point(p0, metric.chart_id)
    e = _check_tetrad(metric, p0, initial_tetrad)
    gamma, dgamma = christoffel_jet(metric, p0)
    cubic = _cubic_coefficient(gamma, dgamma)
    x0 = p0.array

    def inverse_fn(xi):
        y = [sum(e[a, mu] * xi[a] for a in range(DIM)) for mu in range(DIM)]
        out = []
        for mu in range(DIM):
            acc = x0[mu] + y[mu]
            for n in range(DIM):
                for r in range(DIM):
                    gmr = gamma[mu, n, r]
                    if gmr != 0.0:
                        acc = acc - 0.5 * gmr * y[n] * y[r]
            for l in range(DIM):
                for n in range(DIM):
                    for r in range(DIM):
                        c = cubic[mu, l, n, r]
                        if c != 0.0:
                            acc = acc + c * y[l] * y[n] * y[r]
            out.append(acc)
        return out

    def inverse_jacobian_fn(xi):
        """d x^mu / d xi^a, a closed polynomial in the chart coordinates."""
        y = [sum(e[b, mu] * xi[b] for b in range(DIM)) for mu in range(DIM)]
        cols = []
        for a in range(DIM):
            col = []
            for mu in range(DIM):
                acc = e[a, mu] + 0.0
                for n in range(DIM):
                    for r in range(DIM):
                        gmr = gamma[mu, n, r]
                        if gmr != 0.0:
                            acc = acc - gmr * e[a, n] * y[r]
                for l in range(DIM):
                    for n in range(DIM):
                        for r in range(DIM):
                            c = cubic[mu, l, n, r]
                            if c != 0.0:
                                acc = acc + 3.0 * c * e[a, l] * y[n] * y[r]
                col.append(acc)
            cols.append(col)
        # cols[a][mu] built per axis; return rows indexed [mu][a]
        return [[cols[a][mu] for a in range(DIM)] for mu in range(DIM)]

    def forward_fn(coords):
        # (4,) for a point, (N, 4) for a block
        seed_guess = np.linalg.solve(e.T, (np.array([value(c) for c in coords]).T - x0).T).T
        return dual_newton_invert(inverse_fn, coords, seed_guess)

    cmap = ChartMap(
        forward_fn,
        inverse_fn,
        source_chart_id=metric.chart_id,
        target_chart_id=f"normal@{tuple(round(c, 12) for c in p0.coords)}",
        name="normal-chart",
        inverse_jacobian_fn=inverse_jacobian_fn,
    )
    return NormalChart(p0, e, ConnectionCoefficients(gamma, p0), cmap, validity_radius)


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
    gam = christoffel(pushed, np.concatenate([np.diag(np.full(DIM, h)) for h in hs])).gamma
    gam = gam.reshape(len(hs), DIM, DIM, DIM, DIM)  # [h, d, a, b, c]
    d1 = (gam[0] - gam[1]) / (2 * step)
    d2 = (gam[2] - gam[3]) / (2 * (step / 2.0))
    measured = (4.0 * d2 - d1) / 3.0  # [d, a, b, c]

    curv = riemann(metric, chart.base_point).riemann
    m = chart.tetrad.T  # m[mu, a] = e_a^mu
    minv = np.linalg.inv(m)
    r_chart = np.einsum("am,mnrs,nb,rc,sd->abcd", minv, curv, m, m, m)
    # expected[d, a, b, c] = -(R^a_{bcd} + R^a_{cbd}) / 3
    expected = np.zeros((DIM, DIM, DIM, DIM))
    for d in range(DIM):
        for a in range(DIM):
            for b in range(DIM):
                for c in range(DIM):
                    expected[d, a, b, c] = -(r_chart[a, b, c, d] + r_chart[a, c, b, d]) / 3.0
    return float(np.max(np.abs(measured - expected))), measured, expected


def metric_deviation_exponent(metric: MetricField, chart: NormalChart, radii=None, direction=None):
    """Fitted growth exponent of |g(xi) - eta| on a radial ladder."""
    pushed = chart.metric_in_chart(metric)
    if radii is None:
        radii = chart.validity_radius * np.array([0.08, 0.16, 0.32, 0.64])
    if direction is None:
        direction = np.array([0.3, 0.8, -0.4, 0.33])
    direction = np.asarray(direction) / np.linalg.norm(direction)
    g = eval_metric(pushed, np.outer(radii, direction))
    devs = np.max(np.abs(g - ETA), axis=(1, 2))
    logs_r = np.log(np.asarray(radii))
    logs_d = np.log(np.asarray(devs))
    slope = np.polyfit(logs_r, logs_d, 1)[0]
    return float(slope), list(zip([float(r) for r in radii], [float(d) for d in devs]))


class _TubeChart:
    """Normal map with origin and axes sliding along a geodesic.

    Coordinates (xi0, xi1, xi2, xi3): xi0 is proper time of the foot point
    on the curve, the spatial coordinates are quadratic normal coordinates
    in the slice through that point.  The out-of-chart map is exact in the
    dual algebra except that the curve derivative of the connection
    gradient is treated as locally constant; that term enters only at the
    same order as the quadratic truncation error and vanishes identically
    on the curve.
    """

    # connection jets kept per chart: a plli lab chart visits about five foot points
    _JET_CACHE_SIZE = 64

    def __init__(self, metric: MetricField, path: GeodesicPath):
        self.metric = metric
        self.path = path
        self.tetrad = path.tetrad
        self._jets = {}  # exact foot point -> (gamma, dgamma), oldest first

    def _connection_jet(self, x):
        """``christoffel_jet`` at the foot point x, evaluated once per distinct point."""
        key = np.asarray(x, dtype=float).tobytes()  # tells -0.0 from 0.0
        jet = self._jets.get(key)
        if jet is None:
            if len(self._jets) >= self._JET_CACHE_SIZE:
                del self._jets[next(iter(self._jets))]
            jet = self._jets[key] = christoffel_jet(self.metric, x)
            for a in jet:  # shared by every later caller
                a.flags.writeable = False
        return jet

    def _gamma_dual(self, coords_dual):
        gamma, dgamma = self._connection_jet([value(c) for c in coords_dual])
        out = [[[None] * DIM for _ in range(DIM)] for _ in range(DIM)]
        for m in range(DIM):
            for n in range(DIM):
                for r in range(DIM):
                    out[m][n][r] = taylor_apply(gamma[m, n, r], dgamma[:, m, n, r], coords_dual)
        return out, gamma, dgamma

    def inverse_fn(self, xi):
        s = xi[0]
        center = self.path.position(s)
        e = self.tetrad.tetrad(s)
        y = [sum(e[i][mu] * xi[i] for i in (1, 2, 3)) for mu in range(DIM)]
        gamma_dual, _, _ = self._gamma_dual(center)
        out = []
        for mu in range(DIM):
            acc = center[mu]
            acc = acc + y[mu]
            for n in range(DIM):
                for r in range(DIM):
                    acc = acc - 0.5 * gamma_dual[mu][n][r] * y[n] * y[r]
            out.append(acc)
        return out

    def inverse_jacobian_fn(self, xi):
        """Columns d x^mu / d xi^a; column 0 is the raw lab-frame field."""
        s = xi[0]
        center = self.path.position(s)
        vel = self.path.velocity(s)
        e = self.tetrad.tetrad(s)
        ep = self.tetrad.tetrad_rate(s)
        y = [sum(e[i][mu] * xi[i] for i in (1, 2, 3)) for mu in range(DIM)]
        yp = [sum(ep[i][mu] * xi[i] for i in (1, 2, 3)) for mu in range(DIM)]
        gamma_dual, _, dgamma = self._gamma_dual(center)
        vel_f = np.array([value(c) for c in vel])
        w = np.einsum("smnr,s->mnr", dgamma, vel_f)  # d Gamma / ds, frozen

        cols = [[None] * DIM for _ in range(DIM)]  # [a][mu]
        for mu in range(DIM):
            acc = vel[mu] + yp[mu]
            for n in range(DIM):
                for r in range(DIM):
                    if w[mu, n, r] != 0.0:
                        acc = acc - 0.5 * w[mu, n, r] * y[n] * y[r]
                    gv = gamma_dual[mu][n][r]
                    acc = acc - gv * yp[n] * y[r]
            cols[0][mu] = acc
        for a in (1, 2, 3):
            for mu in range(DIM):
                acc = e[a][mu] + 0.0
                for n in range(DIM):
                    for r in range(DIM):
                        gv = gamma_dual[mu][n][r]
                        acc = acc - gv * e[a][n] * y[r]
                cols[a][mu] = acc
        return [[cols[a][mu] for a in range(DIM)] for mu in range(DIM)]

    def forward_fn(self, coords):
        target = np.array([value(c) for c in coords])
        dists = np.linalg.norm(self.path.points - target[None, :], axis=1)
        k = int(np.argmin(dists))
        e = self.tetrad.samples[k]
        delta = target - self.path.points[k]
        comp = np.linalg.solve(e.T, delta)
        guess = np.array([self.path.s[k] + comp[0], comp[1], comp[2], comp[3]])
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

    def chart_coords(self, p):
        return self.chart.forward(p)

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
    tube = _TubeChart(metric, path)
    k0 = int(np.argmin(np.abs(path.s)))
    base = as_point(tuple(path.points[k0]), metric.chart_id)

    # the sliding chart looks up path knots per point, so blocks run sample by sample
    cmap = ChartMap(
        per_point(tube.forward_fn),
        per_point(tube.inverse_fn),
        source_chart_id=metric.chart_id,
        target_chart_id=f"lab@{label}",
        name=f"lab-chart-{label}",
        inverse_jacobian_fn=per_point(tube.inverse_jacobian_fn),
    )
    gamma0 = christoffel(metric, base)
    chart = NormalChart(base, path.tetrad.samples[k0], gamma0, cmap, validity_radius)

    @per_point
    def raw_field(coords):
        xi = tube.forward_fn(coords)
        jac = tube.inverse_jacobian_fn(xi)
        return [jac[mu][0] for mu in range(DIM)]

    frame = make_frame(raw_field, metric, label=label, sample_points=[base.coords])
    return GeodesicLabFrame(chart, frame, path, validity_radius, label)


@dataclass
class LabExpansion:
    """Expansion rate of a lab frame at a point, both normalizations."""

    theta: float
    theta_raw: float
    point: ChartPoint

    def to_json_dict(self):
        return {"theta": self.theta, "theta_raw": self.theta_raw, "point": list(self.point.coords)}


def lab_frame_expansion(metric: MetricField, lab: GeodesicLabFrame, p) -> LabExpansion:
    """Expansion rate of the lab field at p (must lie in the validity tube).

    ``theta`` uses the unit-normalized field through the kinematic
    decomposition; ``theta_raw`` is the covariant divergence of the
    unnormalized coordinate field.  The two coincide on the curve.
    """
    from types import SimpleNamespace

    from .geometry import covariant_derivative_field

    p = as_point(p, metric.chart_id)
    lab.check_inside(p)
    dec = kinematic_decompose(metric, lab.frame, p)
    raw = SimpleNamespace(component_fn=lab.frame.raw_fn)
    raw_nabla = covariant_derivative_field(metric, raw, p)
    return LabExpansion(dec.theta, float(np.trace(raw_nabla)), p)
