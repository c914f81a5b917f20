"""Concrete model zoo: flat space, the expanding model, frames and charts.

The expanding model has line element dt^2 - R(t)^2 dx.dx with the linear
scale factor R(t) = 1 + a t, R(0) = 1, on the domain R > 0.  It ships with
two distinguished frames: the comoving frame along the time axis, and a
drifting geodesic frame with conserved coordinate momentum u along x^1
whose metric speed at t = 0 is v = u (1 + u^2)^(-1/2).

``z_chart`` builds the coordinate chart adapted to the drifting frame.  For
the linear scale factor its time integrals and their inverse are
elementary, so the chart and its inverse are closed forms in plain dual
arithmetic, written to stay stable as a -> 0 and u -> 0.  Closed forms for
the chart-expressed metric and connection are provided for regression
against the numerically pushed fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import FrameField, make_frame
from .geometry import DIM, ChartDomainError, MetricField, as_points, minkowski_metric
from .hyperdual import asinh, first, sqrt
from .maps import ChartMap


# -- scale factor and the expanding model -----------------------------------


@dataclass(frozen=True)
class ScaleFactor:
    """Linear scale history R(t) = 1 + a t with a >= 0; R(0) = 1."""

    a: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("expansion parameter must be nonnegative")

    @property
    def t_min(self):
        return -1.0 / self.a if self.a > 0 else -np.inf

    def value(self, t):
        return 1.0 + self.a * t

    def rate(self, t):
        return self.a


@dataclass
class FriedmannModel:
    """Expanding flat model with its comoving and drifting frames."""

    scale: ScaleFactor
    metric: MetricField
    frame_comoving: FrameField
    u: float
    frame_drifting: FrameField
    v: float

    @property
    def a(self):
        return self.scale.a


def make_friedmann(a, u=0.0) -> FriedmannModel:
    """Build the expanding model with drift momentum u along x^1.

    The drifting frame has components
    ((R^2+u^2)^(1/2)/R, u/R^2, 0, 0): unit, geodesic, irrotational.
    """
    scale = ScaleFactor(float(a))

    def metric_comps(coords):
        r = scale.value(coords[0])
        m = -(r * r)
        zero = 0.0
        return [
            [1.0, zero, zero, zero],
            [zero, m, zero, zero],
            [zero, zero, m, zero],
            [zero, zero, zero, m],
        ]

    def domain(coords):
        return coords[0] > scale.t_min

    metric = MetricField(metric_comps, name=f"friedmann(a={a})", domain_fn=domain)
    frame_v = make_frame((1.0, 0.0, 0.0, 0.0), metric, label="comoving")

    uu = float(u)

    def drifting_comps(coords):
        r = scale.value(coords[0])
        root = sqrt(r * r + uu * uu)
        return [root / r, uu / (r * r), 0.0, 0.0]

    frame_z = make_frame(drifting_comps, metric, label="drifting")
    v = uu / math.hypot(1.0, uu)  # u/(1+u^2)^(1/2) without overflow of u^2
    return FriedmannModel(scale, metric, frame_v, uu, frame_z, v)


def drift_speed_to_momentum(v):
    """Invert v = u (1+u^2)^(-1/2): u = v (1-v^2)^(-1/2)."""
    if not -1.0 < v < 1.0:
        raise ValueError("metric speed must satisfy |v| < 1")
    return v / np.sqrt(1.0 - v * v)


def z_chart(model: FriedmannModel) -> ChartMap:
    """Chart adapted to the drifting frame.

    Forward map:
        t' = F(t) - u x1,  x1' = x1 - u H(t),  x2' = x2,  x3' = x3,
    with F(t) the integral of W/R and H(t) the integral of 1/(R W) from 0
    to t, where W = (R^2+u^2)^(1/2).  With W0 = (1+u^2)^(1/2) both are
    elementary:

        G = F - u^2 H = (W - W0)/a = t (R+1)/(W+W0),
        H = asinh(a u G/R)/(a u)   (G/R when a u = 0),
        F = G + u^2 H.

    The inverse recovers G = z = t' + u x1', then W = W0 + a z,
    R = (W^2 - u^2)^(1/2), t = z (2 W0 + a z)/(R+1) and x1 = x1' + u H.
    Every form is free of cancellation as a -> 0 and u -> 0.
    """
    scale = model.scale
    a, u = model.a, model.u
    w0 = math.sqrt(1.0 + u * u)

    def big_h(g, r):
        if a * u == 0.0:
            return g / r
        return asinh(a * u * g / r) / (a * u)

    def forward_fn(coords):
        t, x1 = coords[0], coords[1]
        r = scale.value(t)
        if first(r <= 0.0) is not None:
            raise ChartDomainError("time outside the scale-factor domain")
        g = t * (r + 1.0) / (sqrt(r * r + u * u) + w0)
        h = big_h(g, r)
        return [g + u * u * h - u * x1, x1 - u * h, coords[2], coords[3]]

    def time_from_z(z):
        """(t, R) where G(t) = z."""
        w = w0 + a * z
        if first(w <= abs(u)) is not None:
            raise ChartDomainError("time outside the scale-factor domain")
        r = sqrt(w * w - u * u)
        return z * (2.0 * w0 + a * z) / (r + 1.0), r

    def inverse_fn(coords):
        x1p = coords[1]
        z = coords[0] + u * x1p
        t, r = time_from_z(z)
        return [t, x1p + u * big_h(z, r), coords[2], coords[3]]

    def inverse_jacobian_fn(coords):
        """d(t,x)/d(t',x') expressed through R at the recovered time."""
        t, _ = time_from_z(coords[0] + u * coords[1])
        r = scale.value(t)
        root = sqrt(r * r + u * u)
        p = root / r
        one = 1.0
        return [
            [p, u * p, 0.0, 0.0],
            [u / (r * r), (r * r + u * u) / (r * r), 0.0, 0.0],
            [0.0, 0.0, one, 0.0],
            [0.0, 0.0, 0.0, one],
        ]

    return ChartMap(forward_fn, inverse_fn, f"z-chart(u={u})", inverse_jacobian_fn)


def rotating_minkowski_frame(omega, radius_cap):
    """Uniformly rotating unit frame on flat space, inside its light cylinder.

    Test fixture for rotation diagnostics: nonzero vorticity, not locally
    synchronizable.
    """
    omega = float(omega)
    radius_cap = float(radius_cap)
    if radius_cap <= 0:
        raise ValueError("radius cap must be positive")
    if abs(omega) * radius_cap >= 1.0:
        raise ValueError("light-cylinder violation: need |omega| * radius_cap < 1")
    metric = minkowski_metric()

    def domain(coords):
        return coords[1] ** 2 + coords[2] ** 2 < radius_cap**2

    bounded = MetricField(metric.component_fn, name="minkowski(rotating-domain)", domain_fn=domain)

    def comps(coords):
        x, y = coords[1], coords[2]
        return [1.0, -omega * y, omega * x, 0.0]

    return make_frame(comps, bounded, label="rotating")


def inertial_frame(metric=None):
    """The constant time-axis frame of flat space."""
    metric = metric or minkowski_metric()
    return make_frame((1.0, 0.0, 0.0, 0.0), metric, label="inertial")


def boosted_inertial_frame(speed, metric=None):
    """A constant frame moving at ``speed`` along x^1 in flat space."""
    if not -1.0 < speed < 1.0:
        raise ValueError("boost speed must satisfy |v| < 1")
    metric = metric or minkowski_metric()
    gam = 1.0 / np.sqrt(1.0 - speed * speed)
    return make_frame((gam, gam * speed, 0.0, 0.0), metric, label="boosted")


# -- closed forms used as regression targets ---------------------------------


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
    back = cmap.inverse(primed_point)
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
    back = cmap.inverse(primed_point)
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
