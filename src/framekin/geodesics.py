"""Geodesic integration with in-pass tetrad transport, and the free-particle probe.

Worldlines are parameterized by proper time and integrated by one explicit
Runge-Kutta loop over a Butcher tableau: the classical 4th-order one with a
fixed step by default (reproducible runs), or the embedded Fehlberg 4(5)
one with adaptive steps, both selected through ``StepControl``.  Given an initial
tetrad, the same pass parallel-transports it: the state is (x, v, e_a), and
each stage's one connection evaluation feeds both the geodesic equation
a = -Gamma(v, v) and the transport equation de_a/ds = -Gamma(v, e_a).
Every step starts from the derivative stored at the knot it leaves.  Paths
and their tetrads carry piecewise-quintic dense representations built from
exact knot jets, so downstream consumers can evaluate positions,
velocities and tetrads, including derivative propagation, anywhere along
the path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    DIM,
    SIGNATURE,
    ChartDomainError,
    SingularMetricError,
    MetricField,
    as_point,
    christoffel,
    christoffel_jet,
    eval_metric,
)
from .hyperdual import value

log = logging.getLogger(__name__)


class StepSizeUnderflowError(ArithmeticError):
    """Adaptive integration could not meet the tolerance."""


@dataclass
class StepControl:
    """Integrator selection: 'rk4' fixed step or 'rk45' adaptive."""

    method: str = "rk4"
    step: float = 1e-3
    tol: float = 1e-10
    min_step: float = 1e-12
    max_steps: int = 2_000_000


@dataclass(frozen=True)
class _Tableau:
    """Explicit Runge-Kutta tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.1).

    The update weights are ``b / b_den``; ``b_low`` are the weights of the
    embedded lower-order solution, whose difference drives step control.
    """

    a: tuple
    b: tuple
    b_den: float = 1.0
    b_low: Optional[tuple] = None


_TABLEAUX = {
    "rk4": _Tableau(a=((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)), b=(1.0, 2.0, 2.0, 1.0), b_den=6.0),
    "rk45": _Tableau(  # Fehlberg 4(5), advancing with the 5th-order solution
        a=(
            (),
            (1 / 4,),
            (3 / 32, 9 / 32),
            (1932 / 2197, -7200 / 2197, 7296 / 2197),
            (439 / 216, -8, 3680 / 513, -845 / 4104),
            (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
        ),
        b=(16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55),
        b_low=(25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0),
    ),
}


def _rhs(metric, y, knot=False):
    """Derivative of the state y = (x, v[, e_a]) from one connection evaluation.

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
        gamma = christoffel(metric, x).gamma
    acc = -np.einsum("mnr,n,r->m", gamma, v, v)
    if not carried:
        return np.concatenate([v, acc]), None
    e = y[2 * DIM :].reshape(DIM, DIM)
    de = -np.einsum("mnr,n,ar->am", gamma, v, e)
    dy = np.concatenate([v, acc, de.ravel()])
    if not knot:
        return dy, None
    dgamma_ds = np.einsum("smnr,s,n->mr", dgamma, v, v) + np.einsum("mnr,n->mr", gamma, acc)
    d2e = -np.einsum("mr,ar->am", dgamma_ds, e) - np.einsum("mnr,n,ar->am", gamma, v, de)
    return dy, d2e.ravel()


def _weighted(weights, ks):
    """sum_i w_i k_i over the nonzero weights, starting from the first term,
    so the RK4 update rounds exactly like dt/6 (k1 + 2 k2 + 2 k3 + k4)."""
    terms = [w * k for w, k in zip(weights, ks) if w]
    return sum(terms[1:], terms[0])


def _norm2(metric, x, v):
    g = eval_metric(metric, x)
    return float(v @ g @ v)


def _horner_eval(coeffs, tau, derivative):
    """Horner evaluation of sum_j c_j tau^j (or its derivative)."""
    out = 0.0
    for j in range(5, derivative - 1, -1):
        fac = 1.0
        for d in range(derivative):
            fac *= j - d
        out = out * tau + fac * coeffs[j]
    return out


class QuinticDense:
    """Piecewise quintic Hermite dense output, dual-capable in s."""

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

    def eval(self, s, derivative=0):
        sval = value(s)
        k = int(np.searchsorted(self.s, sval, side="right") - 1)
        k = min(max(k, 0), len(self.s) - 2)
        tau = s - float(self.s[k])
        c = self.coeffs[k]
        return [_horner_eval(c[:, mu], tau, derivative) for mu in range(self.width)]


@dataclass
class GeodesicPath:
    """Proper-time parameterized geodesic with dense evaluation.

    ``tetrad`` is the transported tetrad when one was given to
    ``integrate_geodesic``.
    """

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    metric_id: str
    stats: dict
    metric: Optional[MetricField] = None
    tetrad: Optional[TransportedTetrad] = None
    _dense: Optional[QuinticDense] = None

    def __post_init__(self):
        if self._dense is None and len(self.s) > 1:
            self._dense = QuinticDense(self.s, self.points, self.velocities, self.accelerations)

    @property
    def s_min(self):
        return float(self.s[0])

    @property
    def s_max(self):
        return float(self.s[-1])

    def position(self, s):
        """Coordinates at proper time s (dual-capable)."""
        return self._dense.eval(s, derivative=0)

    def velocity(self, s):
        return self._dense.eval(s, derivative=1)

    def acceleration(self, s):
        return self._dense.eval(s, derivative=2)

    def to_csv(self, path):
        """Write samples as s,t,x1,x2,x3,u0,u1,u2,u3 with 17 digits."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("s,t,x1,x2,x3,u0,u1,u2,u3\n")
            for k in range(len(self.s)):
                row = [self.s[k], *self.points[k], *self.velocities[k]]
                f.write(",".join(f"{x:.17g}" for x in row) + "\n")


def _validate_initial(metric, x0, v0):
    n2 = _norm2(metric, x0, v0)
    if abs(n2 - 1.0) > 1e-8:
        raise ValueError(f"initial velocity not unit timelike: g(v,v)={n2}")
    if v0[0] <= 0:
        raise ValueError("initial velocity must be future pointing")


def _validate_tetrad(metric, x0, v0, tetrad):
    e0 = np.asarray(tetrad, dtype=float)
    g = eval_metric(metric, x0)
    if np.max(np.abs(e0 @ g @ e0.T - SIGNATURE)) > 1e-8:
        raise ValueError("initial tetrad is not orthonormal for this metric")
    if np.max(np.abs(e0[0] - v0)) > 1e-8:
        raise ValueError("initial tetrad must have e_0 equal to the path velocity")
    return e0


def _sweep(metric, start, s_target, control, tableau, counts):
    """Integrate from the knot ``start`` = (s, y, dy/ds, d2e) toward s_target.

    The first stage of every step is the derivative stored at the knot the
    step leaves, so a step costs one connection evaluation per further
    stage plus one at the knot it reaches.  The error norm of an embedded
    tableau covers (x, v) only: a carried tetrad never changes the steps.
    Returns (knots, steps, truncation reason or None, largest accepted
    error estimate or None).
    """
    sgn = 1.0 if s_target >= 0 else -1.0
    h = sgn * abs(control.step)
    knots = [start]
    s, y, k = start[0], start[1], start[2]
    truncated = None
    steps = 0
    max_err = None if tableau.b_low is None else 0.0
    while sgn * (s_target - s) > 1e-15 and steps < control.max_steps:
        dt = sgn * min(abs(h), abs(s_target - s))
        try:
            ks = [k]
            for row in tableau.a[1:]:
                yi = y
                for aij, kj in zip(row, ks):
                    if aij:
                        yi = yi + dt * aij * kj
                counts["stage"] += 1
                ks.append(_rhs(metric, yi)[0])
            y_new = y + dt / tableau.b_den * _weighted(tableau.b, ks)
            if tableau.b_low is not None:
                y_low = y + dt * _weighted(tableau.b_low, ks)
                err = float(np.max(np.abs(y_new[: 2 * DIM] - y_low[: 2 * DIM])))
                accept = err <= control.tol or abs(dt) <= control.min_step
                if accept and err > control.tol:
                    raise StepSizeUnderflowError(
                        f"step underflow at s={s}: error {err} above tolerance {control.tol}"
                    )
                scale = 0.9 * (control.tol / err) ** 0.2 if err > 0 else 2.0
                h = dt * min(4.0, max(0.1, scale))
                if abs(h) < control.min_step:
                    h = sgn * control.min_step
                if not accept:
                    continue
                max_err = max(max_err, err)
            counts["knot"] += 1
            k, d2e = _rhs(metric, y_new, knot=True)
        except (ChartDomainError, SingularMetricError) as exc:
            truncated = str(exc)
            break
        s, y = s + dt, y_new
        knots.append((s, y, k, d2e))
        steps += 1
    return knots, steps, truncated, max_err


def integrate_geodesic(
    metric: MetricField, p0, v0, s_max, control: Optional[StepControl] = None, s_min=0.0, tetrad=None
) -> GeodesicPath:
    """Integrate the geodesic equation from p0 with unit velocity v0.

    Covers proper times [s_min, s_max] (s_min may be negative; the path then
    extends backward through p0).  Leaving the chart domain truncates the
    path and records the reason in ``stats['truncated']``.

    Args:
        tetrad: optional 4x4 array, rows e_a^mu at p0, orthonormal with e_0
            equal to v0 (``ValueError`` otherwise).  It is parallel-transported
            in the same pass and returned as the path's ``tetrad``.
    """
    control = control or StepControl()
    tableau = _TABLEAUX.get(control.method)
    if tableau is None:
        raise ValueError(f"unknown integrator method {control.method!r}")
    p0 = as_point(p0, metric.chart_id)
    x0 = p0.array.copy()
    v0 = np.asarray(v0, dtype=float).copy()
    _validate_initial(metric, x0, v0)
    if s_max <= s_min:
        raise ValueError("need s_max > s_min")
    y0 = np.concatenate([x0, v0])
    if tetrad is not None:
        y0 = np.concatenate([y0, _validate_tetrad(metric, x0, v0, tetrad).ravel()])

    counts = {"stage": 0, "knot": 1}
    origin = (0.0, y0, *_rhs(metric, y0, knot=True))
    idle = ([origin], 0, None, None)
    forward = _sweep(metric, origin, s_max, control, tableau, counts) if s_max > 0 else idle
    backward = _sweep(metric, origin, s_min, control, tableau, counts) if s_min < 0 else idle
    knots = backward[0][:0:-1] + forward[0]
    truncated = forward[2] or backward[2]
    errors = [e for e in (forward[3], backward[3]) if e is not None]

    n = len(knots)
    s_arr = np.array([kn[0] for kn in knots])
    ys = np.array([kn[1] for kn in knots])
    dys = np.array([kn[2] for kn in knots])
    x_arr, v_arr, a_arr = ys[:, :DIM], ys[:, DIM : 2 * DIM], dys[:, DIM : 2 * DIM]
    drift = max(abs(_norm2(metric, x_arr[k], v_arr[k]) - 1.0) for k in range(0, n, max(1, n // 64)))
    stats = {
        "steps": forward[1] + backward[1],
        "max_step_error_estimate": max(errors) if errors else drift,
        "max_norm_drift": drift,
        "truncated": truncated is not None,
        "reason": truncated,
        "method": control.method,
        "christoffel_evals": counts["stage"] + (0 if tetrad is not None else counts["knot"]),
        "christoffel_jet_evals": counts["knot"] if tetrad is not None else 0,
    }
    transported = None
    if tetrad is not None:
        d2e = np.array([kn[3] for kn in knots])
        dense = QuinticDense(s_arr, ys[:, 2 * DIM :], dys[:, 2 * DIM :], d2e)
        transported = TransportedTetrad(x_arr, ys[:, 2 * DIM :].reshape(n, DIM, DIM), dense)
    if log.isEnabledFor(logging.DEBUG):
        tetrad_health = ""
        if transported is not None:
            tetrad_health = f", tetrad orthonormality drift {transported.orthonormality_drift(metric):.3g}"
        log.debug(
            "geodesic on %s: %s, %d steps, %d christoffel and %d christoffel_jet evaluations, "
            "norm drift %.3g%s",
            metric.name,
            control.method,
            stats["steps"],
            stats["christoffel_evals"],
            stats["christoffel_jet_evals"],
            drift,
            tetrad_health,
        )
    return GeodesicPath(s_arr, x_arr, v_arr, a_arr, metric.name, stats, metric, transported)


@dataclass
class TransportedTetrad:
    """Orthonormal tetrad parallel-transported along a geodesic.

    Row a of each 4x4 sample is the vector e_a at the path knot of the same
    index; e_0 is the path velocity.  Transport preserves inner products,
    so g(e_a, e_b) stays eta_{ab} up to integration error.
    """

    points: np.ndarray  # (n, 4) knot positions of the path
    samples: np.ndarray  # (n, 4, 4), [k, a, mu]
    _dense: QuinticDense

    def tetrad(self, s):
        """4x4 of scalars e[a][mu] at proper time s (dual-capable)."""
        flat = self._dense.eval(s, derivative=0)
        return [[flat[4 * a + mu] for mu in range(4)] for a in range(4)]

    def tetrad_rate(self, s):
        """First s-derivative of the tetrad components at s."""
        flat = self._dense.eval(s, derivative=1)
        return [[flat[4 * a + mu] for mu in range(4)] for a in range(4)]

    def orthonormality_drift(self, metric: MetricField) -> float:
        worst = 0.0
        for k in range(0, len(self.points), max(1, len(self.points) // 64)):
            g = eval_metric(metric, self.points[k])
            e = self.samples[k]
            worst = max(worst, float(np.max(np.abs(e @ g @ e.T - SIGNATURE))))
        return worst


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
    from .catalog import make_friedmann, z_chart
    from .maps import pushed_metric_field

    if not 0.0 < v_probe < 1.0:
        raise ValueError("need 0 < v_probe < 1")
    if a_param < 0:
        raise ValueError("need a >= 0")
    model = make_friedmann(a_param, u_param)
    gz = pushed_metric_field(z_chart(model), model.metric, name="friedmann-drift-chart")
    origin = np.zeros(DIM)
    g = eval_metric(gz, origin)
    gamma = christoffel(gz, origin).gamma

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
