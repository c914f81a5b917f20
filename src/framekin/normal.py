"""Normal charts at a point and inertial lab frames along a geodesic.

``build_normal_chart`` produces coordinates in which, at the base point,
the metric is exactly the flat matrix and the connection vanishes; the
coordinate map includes the third-order geodesic term, so the first
derivatives of the transformed connection at the base point satisfy the
curvature relation

    d_d Gamma^a_{bc}(0) = -(R^a_{bcd} + R^a_{cbd}) / 3

exactly, which is also what pins the curvature sign convention.  Fourth and
higher order corrections are out of scope.  ``normal_chart_curvature_check``
tests the relation with the exact connection jet of the chart-expressed
metric at the origin.  The validity radius is sized by the curvature on the
chart axes, min(0.05, 0.015 / sqrt(max |R^a_{bcd}|)), so the chart stays well
inside the curvature length (Manasse & Misner, J. Math. Phys. 4, 735 (1963)).

``lab_frame_along_geodesic`` extends the construction along a geodesic:
at each point of the curve the quadratic normal map is applied with the
origin moved to that point and the parallel-transported tetrad as axes.
The resulting time-axis field is the inertial lab frame of the curve: it
equals the curve's velocity on the curve, is torsion-aligned there
(transformed connection vanishes on the curve), and is in free fall only on
the curve itself.  It exists only inside its validity tube, which the field
checks on each chart point it solves (``TubeDomainError``).

Both charts are array code over blocks, joined to the dual algebra by
``hyperdual.chain`` and inverted by Newton on the same arrays: the point
chart's map is a cubic polynomial, so its Jacobian and that Jacobian's
derivatives are closed forms, and its pull-back joins one evaluation of them
twice, for the point and for the Jacobian; in the sliding chart one Newton
solve, one connection-jet lookup and one dense-output read serve a whole
block, and one map evaluation gives the lab field and its rate (none on float
coordinates).

Off the curve the chart is second-order accurate; derivative propagation
through the chart drops remainder terms of the same order as the truncation
itself (see ``_TubeChart``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geodesics import GeodesicPath
from .geometry import (
    DIM,
    SIGNATURE,
    MetricField,
    as_points,
    _riemann,
    christoffel_jet,
    eval_metric,
)
from .frames import FrameField, make_frame
from .hyperdual import HyperDual, block_values, chain, dual_newton_invert, first
from .maps import ChartMap, pushed_metric_field


class TubeDomainError(ValueError):
    """Point lies outside the declared validity tube of a lab chart."""


class NonFiniteConnectionError(ArithmeticError):
    """The connection, its first derivatives or their products (cubic map term, curvature) overflow at a base point."""


def _check_tetrad(metric, p, tetrad):
    g = eval_metric(metric, p)
    e = np.asarray(tetrad, dtype=float)
    err = np.max(np.abs(e @ g @ e.T - SIGNATURE))
    if not err <= 1e-10:  # refuses NaN too
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
    curvature: np.ndarray  # R^a_{bcd} at the base point on the axes

    def metric_in_chart(self, metric: MetricField) -> MetricField:
        return pushed_metric_field(self.chart_map, metric, name=f"{metric.name}@normal")

    def to_json_dict(self):
        return {
            "base_point": self.base_point.tolist(),
            "tetrad": [list(row) for row in self.tetrad],
            "gamma_at_p0": self.gamma_at_p0.reshape(-1).tolist(),
            "validity_radius": self.validity_radius,
        }


def build_normal_chart(metric: MetricField, p0, initial_tetrad) -> NormalChart:
    """Normal coordinates about p0 with the given orthonormal axes.

    The map out of the chart is the geodesic Taylor polynomial through
    third order, x = x0 + y - Gamma(y, y) / 2 + C(y, y, y) with y = xi^a e_a,
    evaluated as arrays over blocks together with its Jacobian and that
    Jacobian's derivatives, all closed polynomials, and carried into the
    dual algebra by ``hyperdual.chain``: the chart's pull-back gives the
    point and its Jacobian from one evaluation.  The forward map inverts it by
    Newton iteration with exact Jacobians, so the chart functions are
    differentiable to second order everywhere in the validity ball.  The
    radius min(0.05, 0.015 / sqrt(max |R^a_{bcd}|)), 0.05 on flat space, takes
    the curvature on the axes from the same connection jet.
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
        m = e.T  # m[mu, a] = e_a^mu
        r_axes = np.einsum("am,mnrs,nb,rc,sd->abcd", np.linalg.inv(m), _riemann(gamma, dgamma), m, m, m)
        third = 6.0 * k_axes  # d H / d xi, constant: the cubic map has no fourth derivative
    if not all(np.isfinite(t).all() for t in (cubic, g_axes, k_axes, r_axes, third)):
        raise NonFiniteConnectionError(f"{metric.name}: connection products overflow the cubic map term {where}")

    def _map(xi):
        """(x, J, H) on an (N, 4) block of chart points: the map, J[n, mu, a] = d x^mu / d xi^a
        and H[n, mu, a, b] = d J[n, mu, a] / d xi^b."""
        kx = np.einsum("mabc,nc->nmab", k_axes, xi)
        gx = np.einsum("mab,nb->nma", g_axes, xi)
        kxx = np.einsum("nmab,nb->nma", kx, xi)
        x = x0 + np.einsum("nma,na->nm", e.T - 0.5 * gx + kxx, xi)
        return x, e.T - gx + 3.0 * kxx, 6.0 * kx - g_axes

    def pullback_fn(xi):
        """The point x(xi) and the rows [mu][a] of d x^mu / d xi^a, from one map evaluation."""
        x, jac, hess = _map(block_values(xi)[0])
        return chain(xi, x, jac, hess), chain(xi, jac, hess, third)

    def forward_fn(coords):
        return dual_newton_invert(_map, coords, np.linalg.solve(e.T, (block_values(coords)[0] - x0).T).T)

    cmap = ChartMap(forward_fn, pullback_fn, "normal-chart")
    scale = float(np.max(np.abs(r_axes)))
    radius = min(0.05, 0.015 / math.sqrt(scale)) if scale else 0.05
    return NormalChart(x0, e, gamma, cmap, radius, r_axes)


def normal_chart_curvature_check(chart: NormalChart, dgamma):
    """Deviation of the chart-expressed connection's derivative at the origin from the curvature.

    ``dgamma[d, a, b, c]`` = d_d Gamma^a_{bc} of ``chart.metric_in_chart(metric)`` at the chart
    origin, exact from its connection jet, is compared with -(R^a_{bcd} + R^a_{cbd}) / 3 from the
    curvature the chart keeps on its axes.  Returns (max_abs_deviation, expected), laid out as dgamma.
    """
    r = chart.curvature
    expected = -(np.einsum("abcd->dabc", r) + np.einsum("acbd->dabc", r)) / 3.0
    return float(np.max(np.abs(dgamma - expected))), expected


def metric_deviation_exponent(chart: NormalChart, pushed: MetricField):
    """Fitted growth exponent of |g(xi) - eta| on a radial ladder, and the ladder.

    ``pushed`` is the metric expressed in the chart (``chart.metric_in_chart``); the ladder's radii
    are 0.08, 0.16, 0.32 and 0.64 of the validity radius, along one fixed direction.  The exponent
    is None when every deviation is exactly zero (flat space): a growth rate of nothing is undefined.
    """
    radii = chart.validity_radius * np.array([0.08, 0.16, 0.32, 0.64])
    direction = np.array([0.3, 0.8, -0.4, 0.33])
    g = eval_metric(pushed, np.outer(radii, direction / np.linalg.norm(direction)))
    devs = np.max(np.abs(g - SIGNATURE), axis=(1, 2))
    ladder = list(zip(radii.tolist(), devs.tolist()))
    if not devs.any():
        return None, ladder
    slope = np.polyfit(np.log(radii), np.log(devs), 1)[0]
    return float(slope), ladder


def _keep(cache, key, arrays, size):
    """Store arrays under key, read-only, in a cache of at most size entries (oldest evicted first); return them."""
    if len(cache) >= size:
        del cache[next(iter(cache))]
    for a in arrays:  # shared by every later caller
        a.flags.writeable = False
    cache[key] = arrays
    return arrays


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

    # per plli: 8 or 9 foot-point jets on the comoving lab chart, 1 on the drifting one; each lab frame keeps 1 block
    _JET_CACHE_SIZE = 64

    def __init__(self, metric: MetricField, path: GeodesicPath):
        self.metric = metric
        self.path = path
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
                jets[k] = _keep(self._jets, k, jet, self._JET_CACHE_SIZE)
        if feet.ndim == 1:
            return jets[keys[0]]
        return tuple(np.array(a) for a in zip(*(jets[k] for k in keys)))

    def _map(self, xi, rates):
        """(x, J[, H]) on an (N, 4) block of chart points: the map, its Jacobian J[n, mu, a] =
        d x^mu / d xi^a (column 0 is the raw lab field) and, with ``rates``, H[n, mu, a, b] =
        d J[n, mu, a] / d xi^b."""
        s, q = xi[:, 0], xi[:, 1:]
        (c, e), (v, e1), *second = self.path.state(s, (0, 1, 2) if rates else (0, 1))
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
        ((acc, e2),) = second
        cc = np.zeros((len(xi), DIM, DIM, DIM))  # C[n, a, b] = d B[n, a] / d xi^b
        cc[:, 0, 0] = spatial(e2)
        cc[:, 0, 1:] = cc[:, 1:, 0] = e1[:, 1:]
        hess = np.moveaxis(cc, 3, 1) - np.einsum("nmc,nabc->nmab", gy, cc)
        hess -= np.einsum("nmcd,nac,nbd->nmab", gamma, b, b)
        wb = np.einsum("nmc,nbc->nmb", wy, b)  # w(B_b, y), w held constant along the curve
        hess[:, :, 0] -= wb
        hess[:, :, :, 0] -= wb
        hess[:, :, 0, 0] += acc
        return x, jac, hess

    def forward_fn(self, coords):
        """Chart coordinates of a point or block, by Newton from the nearest knot's slice."""
        target, _ = block_values(coords)
        k = np.argmin(np.linalg.norm(self.path.points[None] - target[:, None], axis=-1), axis=1)
        delta = target - self.path.points[k]
        comp = np.linalg.solve(np.swapaxes(self.path.tetrads[k], 1, 2), delta[..., None])[..., 0]
        guess = np.concatenate([(self.path.s[k] + comp[:, 0])[:, None], comp[:, 1:]], axis=1)
        return dual_newton_invert(lambda xi: self._map(xi, rates=False), coords, guess)


def lab_frame_along_geodesic(
    metric: MetricField,
    path: GeodesicPath,
    validity_radius=0.05,
    label="lab",
) -> FrameField:
    """The inertial lab frame carried by a geodesic.

    It is the unit-normalized time-axis field of the geodesic's sliding
    normal chart, expressed back in the base chart: column 0 of the map's
    Jacobian at the solved chart point, normalized where it is evaluated.

    Args:
        path: geodesic from the integrator, integrated with a tetrad (its
            points become the chart's foot points, its transported tetrad
            the axes); nothing is evaluated until the frame is.
        validity_radius: declared tube radius (chart units); guidance is the
            inverse square root of the local curvature scale.

    The frame raises ``TubeDomainError`` where it is evaluated outside the
    tube: at a slice radius beyond ``validity_radius`` or a foot time beyond
    the path's ends, naming the first such sample and its coordinates when
    evaluated on a block.
    """
    if not validity_radius > 0:
        raise ValueError(f"validity radius must be positive, got {validity_radius!r}")
    if path.tetrads is None:
        raise ValueError("the path carries no tetrad; integrate it with integrate_geodesic(..., tetrad=...)")
    if len(path.s) < 2:
        raise ValueError(
            f"the path has {len(path.s)} knot and no dense output to slide a lab chart along "
            f"(truncated: {path.stats.get('reason')})"
        )
    tube = _TubeChart(metric, path)
    fields = {}  # exact query block -> (field, rate), kept once inside the tube: a repeated block is not solved again

    def raw_field(coords):  # column 0 of the Jacobian at the chart point, its rate through d xi / d x = J^-1
        x, point = block_values(coords)
        if x.tobytes() in fields:
            return chain(coords, *fields[x.tobytes()])
        xi = np.column_stack(tube.forward_fn(list(x.T)))
        r, foot = np.linalg.norm(xi[:, 1:], axis=1), xi[:, 0]
        wide = r > validity_radius
        k = first(wide | ~((path.s_min - 1e-12 <= foot) & (foot <= path.s_max + 1e-12)))
        if k is not None:
            where = "" if point else f" at sample {k} {x[k].tolist()}"
            if wide[k]:
                raise TubeDomainError(
                    f"{label}: point at slice radius {r[k]:.3g} exceeds validity radius {validity_radius:.3g}{where}"
                )
            raise TubeDomainError(f"{label}: foot time {foot[k]:.3g} outside path range{where}")
        if not any(isinstance(c, HyperDual) for c in coords):  # values only: no rates to carry
            return chain(coords, tube._map(xi, rates=False)[1][:, :, 0], None)
        _, jac, hess = tube._map(xi, rates=True)
        field = jac[:, :, 0], np.einsum("nmb,nba->nma", hess[:, :, 0], np.linalg.inv(jac))
        return chain(coords, *_keep(fields, x.tobytes(), field, tube._JET_CACHE_SIZE))

    return make_frame(raw_field, metric, label=label)
