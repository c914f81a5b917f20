"""Concrete model zoo: flat space, the expanding model, frames and charts.

The expanding model has line element dt^2 - R(t)^2 dx.dx with the linear
scale factor R(t) = 1 + a t, R(0) = 1, on the domain R > 0.  It ships with
two distinguished frames: the comoving frame along the time axis, and a
drifting geodesic frame with conserved coordinate momentum u along x^1
whose metric speed at t = 0 is v = u (1 + u^2)^(-1/2).

``z_chart`` builds the coordinate chart adapted to the drifting frame.  For
the linear scale factor its time integrals and their inverse are
elementary, so the chart and its pull-back (the inverse point and its
Jacobian) are closed forms in plain dual arithmetic, written to stay stable
as a -> 0 and u -> 0.  The closed forms of the chart-expressed metric,
connection and expansions that the tests compare the pushed fields against
live with the tests, in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .frames import FrameField, make_frame
from .geometry import ChartDomainError, MetricField, minkowski_metric, refuse_outside
from .hyperdual import asinh, first, sqrt, value
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
    name = f"friedmann(a={a})"

    def metric_comps(coords):
        refuse_outside(name, coords, np.logical_not(coords[0] > scale.t_min))  # NaN is outside too
        r = scale.value(coords[0])
        m = -(r * r)
        zero = 0.0
        return [
            [1.0, zero, zero, zero],
            [zero, m, zero, zero],
            [zero, zero, m, zero],
            [zero, zero, zero, m],
        ]

    metric = MetricField(metric_comps, name=name)
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
        H = asinh(a u G/R)/(a u)   (G/R when a u is zero or subnormal),
        F = G + u^2 H.

    The pull-back recovers G = z = t' + u x1', then W = W0 + a z,
    R = (W^2 - u^2)^(1/2), t = z (2 W0 + a z)/(R+1) and x1 = x1' + u H,
    and from the same t the inverse Jacobian through R(t) = 1 + a t.  The
    two R values agree to rounding only: H reads the first, the Jacobian
    the second.
    Every form is free of cancellation as a -> 0 and u -> 0.
    """
    scale = model.scale
    a, u = model.a, model.u
    w0 = math.sqrt(1.0 + u * u)

    def big_h(g, r):
        if abs(a * u) < sys.float_info.min:  # 1 / (a u) overflows for a subnormal product
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

    def pullback_fn(coords):
        """The inverse point and d(t,x)/d(t',x'), the latter through R at the recovered time."""
        x1p = coords[1]
        z = coords[0] + u * x1p
        t, r_z = time_from_z(z)
        r = scale.value(t)
        p = sqrt(r * r + u * u) / r
        jac = [
            [p, u * p, 0.0, 0.0],
            [u / (r * r), (r * r + u * u) / (r * r), 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
        return [t, x1p + u * big_h(z, r_z), coords[2], coords[3]], jac

    return ChartMap(forward_fn, pullback_fn, f"z-chart(u={u})")


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
    flat = minkowski_metric().component_fn
    name = "minkowski(rotating-domain)"

    def bounded_comps(coords):
        x, y = value(coords[1]), value(coords[2])
        refuse_outside(name, coords, np.logical_not(x**2 + y**2 < radius_cap**2))
        return flat(coords)

    bounded = MetricField(bounded_comps, name=name)

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
