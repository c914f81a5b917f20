"""Geodesic integration with in-pass tetrad transport, and the free-particle probe.

Worldlines are parameterized by proper time and integrated by the classical
4th-order Runge-Kutta method with a fixed step (``StepControl``).  Given an initial
tetrad, the same pass parallel-transports it: the state is (x, v, e_a), and
each stage's one connection evaluation feeds both the geodesic equation
a = -Gamma(v, v) and the transport equation de_a/ds = -Gamma(v, e_a).
Every step starts from the derivative stored at the knot it leaves.
``integrate_geodesic`` runs a forward and a backward sweep from the start,
each a plain loop of point connection calls.  A path carries one
piecewise-quintic dense output, built from exact knot jets, of its position
and, when one was carried, its tetrad: ``GeodesicPath.state`` evaluates both,
or their first or second s-derivatives, several orders from one lookup,
anywhere along the path, at one proper time or a block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import make_friedmann, z_chart
from .geometry import (
    DIM,
    SIGNATURE,
    ChartDomainError,
    SingularMetricError,
    MetricField,
    as_points,
    christoffel,
    christoffel_jet,
    eval_metric,
    metric_jet,
    _check_lorentzian,
    _gamma_from_jets,
)
from .maps import pushed_metric_field

log = logging.getLogger(__name__)


@dataclass
class StepControl:
    """Fixed RK4 step size, and the step count at which a sweep is cut short."""

    step: float = 1e-3
    max_steps: int = 2_000_000


def _rhs(metric, y, knot=False):
    """Derivative of the state y = (x, v[, e_a]) from one point connection evaluation.

    Returns (dy/ds, d2e) with d2e None unless a tetrad is carried and
    ``knot`` is set: then the connection comes with its gradient and d2e is
    the second s-derivative of the tetrad, the last knot jet of its dense
    output.
    """
    x, v = y[:DIM], y[DIM : 2 * DIM]
    carried = len(y) > 2 * DIM
    if knot and carried:
        gamma, dgamma = christoffel_jet(metric, x)
    else:
        gamma = christoffel(metric, x)
    acc = -np.einsum("mnr,n,r->m", gamma, v, v)
    if not carried:
        return np.concatenate([v, acc]), None
    e = y[2 * DIM :].reshape(DIM, DIM)
    de = -np.einsum("mnr,n,ar->am", gamma, v, e)
    dy = np.concatenate([v, acc, de.reshape(-1)])
    if not knot:
        return dy, None
    dgamma_ds = np.einsum("smnr,s,n->mr", dgamma, v, v) + np.einsum("mnr,n->mr", gamma, acc)
    d2e = -np.einsum("mr,ar->am", dgamma_ds, e) - np.einsum("mnr,n,ar->am", gamma, v, de)
    return dy, d2e.reshape(-1)


class QuinticDense:
    """Piecewise quintic Hermite dense output, evaluated at a proper time or a block of them."""

    def __init__(self, s, y, dy, d2y):
        self.s = np.asarray(s, dtype=float)
        y, dy, d2y = (np.asarray(a, dtype=float) for a in (y, dy, d2y))
        self.width = y.shape[1]
        h = np.diff(self.s)
        hc = h[:, None]
        c0, c1, c2 = y[:-1], dy[:-1], 0.5 * d2y[:-1]
        residuals = np.stack(
            [y[1:] - c0 - c1 * hc - c2 * hc * hc, dy[1:] - c1 - d2y[:-1] * hc, d2y[1:] - d2y[:-1]],
            axis=1,
        )
        # one matrix per distinct step, from scalar powers (numpy's array
        # power rounds differently from pow())
        distinct, which = np.unique(h, return_inverse=True)
        m = np.array(
            [
                [[x**3, x**4, x**5], [3 * x**2, 4 * x**3, 5 * x**4], [6 * x, 12 * x**2, 20 * x**3]]
                for x in distinct.tolist()
            ]
        ).reshape(-1, 3, 3)
        c345 = np.linalg.solve(m[which], residuals)
        self.coeffs = np.concatenate([np.stack([c0, c1, c2], axis=1), c345], axis=1)

    def eval(self, s, orders):
        """Derivatives of the given orders at proper time s, one lookup: (width,) at a float, (N, width) at a block."""
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, len(self.s) - 2)
        tau = (s - self.s[k])[..., None]
        c = self.coeffs[k]
        for d in orders:
            out = 0.0
            for j in range(5, d - 1, -1):  # Horner
                out = out * tau + math.perm(j, d) * c[..., j, :]
            yield out


@dataclass
class GeodesicPath:
    """Proper-time parameterized geodesic with dense evaluation.

    ``tetrads`` holds the transported tetrad at each knot, rows e_a^mu with
    e_0 the velocity, when one was given to ``integrate_geodesic``, else
    None; ``error`` is what truncated the path, if anything did: a
    chart-domain or singular-metric error, or a ``ValueError`` naming the
    step limit.
    """

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    stats: dict
    tetrads: Optional[np.ndarray] = None  # (n, 4, 4), [k, a, mu]
    error: Optional[ValueError] = None
    _dense: Optional[QuinticDense] = None  # None at one knot

    @property
    def s_min(self):
        return float(self.s[0])

    @property
    def s_max(self):
        return float(self.s[-1])

    def state(self, s, derivative=0):
        """(x, e) at proper time s, or their s-derivatives of the given order.

        x is (4,) at a float and (N, 4) at a block (N,); e[..., a, mu] is the
        tetrad part, (4, 4) or (N, 4, 4), or None when no tetrad was carried.
        A tuple of orders gives a list of such pairs from one interval lookup.
        """
        outs = self._dense.eval(s, derivative if isinstance(derivative, tuple) else (derivative,))
        split = self.tetrads is not None
        pairs = [(o[..., :DIM], o[..., DIM:].reshape(o.shape[:-1] + (DIM, DIM))) if split else (o, None) for o in outs]
        return pairs if isinstance(derivative, tuple) else pairs[0]

    def orthonormality_drift(self, metric: MetricField) -> float:
        """max |g(e_a, e_b) - eta_ab| over about 64 knots, from one block metric evaluation."""
        sampled = slice(0, len(self.s), max(1, len(self.s) // 64))
        e = self.tetrads[sampled]
        g = eval_metric(metric, self.points[sampled])
        return float(np.max(np.abs(e @ g @ np.swapaxes(e, 1, 2) - SIGNATURE)))

    def to_csv(self, path):
        """Write samples as s,t,x1,x2,x3,u0,u1,u2,u3 with 17 digits."""
        rows = np.column_stack([self.s, self.points, self.velocities])
        row = ",".join(["{:.17g}"] * 9) + "\n"
        with open(path, "w", encoding="utf-8") as f:  # row by row: the whole text at once raises peak memory
            f.write("s,t,x1,x2,x3,u0,u1,u2,u3\n")
            f.writelines(row.format(*r) for r in map(np.ndarray.tolist, rows))


def _initial_state(metric, p0, v0, tetrad):
    """The state (x, v[, e_a]) at s = 0, checked: v unit timelike and future pointing, the tetrad
    orthonormal with e_0 = v (``ValueError`` otherwise)."""
    x0 = as_points(p0)
    v0 = np.array(v0, dtype=float)
    g = eval_metric(metric, x0)
    n2 = float(v0 @ g @ v0)
    if not abs(n2 - 1.0) <= 1e-8:  # refuses NaN too
        raise ValueError(f"initial velocity not unit timelike: g(v,v)={n2}")
    if not v0[0] > 0:
        raise ValueError("initial velocity must be future pointing")
    if tetrad is None:
        return np.concatenate([x0, v0])
    e0 = np.asarray(tetrad, dtype=float)
    if not np.max(np.abs(e0 @ g @ e0.T - SIGNATURE)) <= 1e-8:  # refuses NaN too
        raise ValueError("initial tetrad is not orthonormal for this metric")
    if not np.max(np.abs(e0[0] - v0)) <= 1e-8:
        raise ValueError("initial tetrad must have e_0 equal to the path velocity")
    return np.concatenate([x0, v0, e0.ravel()])


def _sweep(metric, origin, target, control, counts):
    """Integrate one direction from the origin knot (s, y, dy/ds, d2e) toward proper time target.

    Returns (knots, error): the knots from the origin on, and the error that
    truncated the sweep, None when it reached the target.  The first stage
    of every step is the derivative stored at the knot the step leaves, so a
    step costs one connection evaluation per further stage plus one at the
    knot it reaches (``counts``, shared by the sweeps of a path, counts each).
    Leaving the chart domain or meeting a singular metric stops the sweep
    with that error; reaching ``control.max_steps`` short of the target
    stops it with a ``ValueError`` naming the step limit.
    """
    knots = [origin]
    s, y, k1, _ = origin
    sgn = 1.0 if target >= 0 else -1.0
    while sgn * (target - s) > 1e-15:
        if len(knots) - 1 >= control.max_steps:
            return knots, ValueError(f"step limit: max_steps={control.max_steps} reached at s={s!r}")
        dt = sgn * min(control.step, abs(target - s))
        try:
            counts["stage"] += 1
            k2, _ = _rhs(metric, y + dt * 0.5 * k1)
            counts["stage"] += 1
            k3, _ = _rhs(metric, y + dt * 0.5 * k2)
            counts["stage"] += 1
            k4, _ = _rhs(metric, y + dt * k3)
            y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            counts["knot"] += 1
            k1, d2e = _rhs(metric, y, knot=True)
        except (ChartDomainError, SingularMetricError) as exc:
            return knots, exc
        s = s + dt
        knots.append((s, y, k1, d2e))
    return knots, None


def integrate_geodesic(
    metric: MetricField, p0, v0, s_max, control: Optional[StepControl] = None, s_min=0.0, tetrad=None
) -> GeodesicPath:
    """Integrate the geodesic equation from p0 with unit velocity v0.

    Covers proper times [s_min, s_max] (s_min may be negative; the path then
    extends backward through p0: a forward sweep, then a backward one).
    Leaving the chart domain, a singular metric or reaching ``max_steps``
    truncates the path: the error is kept as the path's ``error`` and its
    text as ``stats['reason']``.

    Args:
        s_max, s_min: finite, with s_max > s_min (``ValueError`` otherwise).
        control: its ``step`` must be > 0 (``ValueError`` otherwise).
        tetrad: optional 4x4 array, rows e_a^mu at p0, orthonormal with e_0
            equal to v0 (``ValueError`` otherwise).  It is parallel-transported
            in the same pass and returned as the path's ``tetrad``.
    """
    control = control or StepControl()
    if not control.step > 0:
        raise ValueError(f"need step > 0, got {control.step!r}")
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise ValueError(f"need finite s_min and s_max, got {s_min!r} and {s_max!r}")
    if s_max <= s_min:
        raise ValueError("need s_max > s_min")
    y0 = _initial_state(metric, p0, v0, tetrad)
    carried = tetrad is not None
    counts = {"stage": 0, "knot": 1}
    origin = (0.0, y0, *_rhs(metric, y0, knot=True))
    forward, error = _sweep(metric, origin, s_max, control, counts) if s_max > 0 else ([origin], None)
    backward, error_back = _sweep(metric, origin, s_min, control, counts) if s_min < 0 else ([origin], None)
    path = _path(metric, carried, counts, backward[:0:-1] + forward, error_back if error is None else error)
    if log.isEnabledFor(logging.DEBUG):
        tetrad_health = ""
        if path.tetrads is not None:
            tetrad_health = f", tetrad orthonormality drift {path.orthonormality_drift(metric):.3g}"
        log.debug(
            "geodesic on %s: rk4, %d steps, %d christoffel and %d christoffel_jet evaluations, norm drift %.3g%s",
            metric.name,
            path.stats["steps"],
            path.stats["christoffel_evals"],
            path.stats["christoffel_jet_evals"],
            path.stats["max_norm_drift"],
            tetrad_health,
        )
    return path


def _path(metric, carried, counts, knots, error):
    """The GeodesicPath through the knots (s, y, dy/ds, d2e) in order of s, truncated by error unless it is None."""
    n = len(knots)
    s_arr = np.array([kn[0] for kn in knots])
    ys = np.array([kn[1] for kn in knots])
    dys = np.array([kn[2] for kn in knots])
    x_arr, v_arr, a_arr = ys[:, :DIM], ys[:, DIM : 2 * DIM], dys[:, DIM : 2 * DIM]
    sampled = slice(0, n, max(1, n // 64))
    g = eval_metric(metric, x_arr[sampled])
    v = v_arr[sampled]
    drift = float(np.max(np.abs((v[:, None, :] @ g @ v[:, :, None])[:, 0, 0] - 1.0)))
    stats = {
        "steps": n - 1,
        "max_norm_drift": drift,
        "truncated": error is not None,
        "reason": None if error is None else str(error),
        "christoffel_evals": counts["stage"] + (0 if carried else counts["knot"]),
        "christoffel_jet_evals": counts["knot"] if carried else 0,
    }
    tetrads = ys[:, 2 * DIM :].reshape(n, DIM, DIM) if carried else None
    dense = None
    if n > 1:  # one dense output: columns x^mu, then e_a^mu when carried; derivatives (v, de/ds), (a, d2e)
        keep = np.r_[0:DIM, 2 * DIM : ys.shape[1]]
        d2y = np.hstack([a_arr, np.array([kn[3] for kn in knots])]) if carried else a_arr
        dense = QuinticDense(s_arr, ys[:, keep], dys[:, keep], d2y)
    return GeodesicPath(s_arr, x_arr, v_arr, a_arr, stats, tetrads, error, dense)


@dataclass
class ExperimentReport:
    """Measured initial accelerations for one free-particle launch case."""

    case_label: str
    v1_prime: float
    v2_prime: float
    accel_x1: float
    accel_x2: float
    dtprime_ds: float
    asymmetry: float

    def to_json_dict(self):
        return {
            "case": self.case_label,
            "v1_prime": self.v1_prime,
            "v2_prime": self.v2_prime,
            "accel_x1": self.accel_x1,
            "accel_x2": self.accel_x2,
            "dtprime_ds": self.dtprime_ds,
            "asymmetry": self.asymmetry,
        }


def free_particle_experiment(a_param, u_param, v_probe):
    """Launch a free particle along each transverse axis of the drifting chart.

    Two launches from the chart origin, both with coordinate speed
    ``v_probe``: case (a) along x1' (the drift direction), case (b) along
    x2'.  Reported accelerations are proper-time second derivatives read
    off the geodesic equation right-hand side at the origin; dt'/ds is
    included for conversion to coordinate time.  The asymmetry measure is
    the absolute difference of the two acceleration magnitudes.
    """
    if not 0.0 < v_probe < 1.0:
        raise ValueError("need 0 < v_probe < 1")
    if a_param < 0:
        raise ValueError("need a >= 0")
    model = make_friedmann(a_param, u_param)
    gz = pushed_metric_field(z_chart(model), model.metric, name="friedmann-drift-chart")
    origin = np.zeros(DIM)
    g, dg = metric_jet(gz, origin, order=1)  # one evaluation: checked as eval_metric, then solved as christoffel
    _check_lorentzian(gz, g, origin)
    gamma = _gamma_from_jets(g, dg, gz.name)

    def one_case(label, v1, v2):
        w = np.array([1.0, v1, v2, 0.0])
        n2 = float(w @ g @ w)
        if n2 <= 0.0:
            raise ValueError("probe speed is not subluminal at the origin")
        dt_ds = 1.0 / np.sqrt(n2)
        v0 = dt_ds * w
        acc = -np.einsum("mnr,n,r->m", gamma, v0, v0)
        return v0, acc, dt_ds

    _, acc_a, dt_a = one_case("a", v_probe, 0.0)
    _, acc_b, dt_b = one_case("b", 0.0, v_probe)
    mag_a = float(np.hypot(acc_a[1], acc_a[2]))
    mag_b = float(np.hypot(acc_b[1], acc_b[2]))
    asym = abs(mag_a - mag_b)
    rep_a = ExperimentReport("a", v_probe, 0.0, float(acc_a[1]), float(acc_a[2]), dt_a, asym)
    rep_b = ExperimentReport("b", 0.0, v_probe, float(acc_b[1]), float(acc_b[2]), dt_b, asym)
    return rep_a, rep_b
