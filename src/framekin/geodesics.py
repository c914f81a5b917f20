"""Geodesic integration, tetrad transport and the free-particle probe.

Worldlines are parameterized by proper time and integrated with a fixed-step
classical 4th-order Runge-Kutta scheme by default (reproducible runs); an
embedded adaptive 4(5) scheme is available through ``StepControl``.  Paths
carry a piecewise-quintic dense representation built from exact endpoint
jets (position, velocity, geodesic acceleration), so downstream consumers
can evaluate positions and velocities, including derivative propagation,
anywhere along the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (
    DIM,
    ChartDomainError,
    SingularMetricError,
    MetricField,
    as_point,
    christoffel,
    christoffel_jet,
    eval_metric,
)
from .hyperdual import value


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


def _geodesic_rhs(metric, x, v):
    gamma = christoffel(metric, x).gamma
    acc = -np.einsum("mnr,n,r->m", gamma, v, v)
    return acc


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
        n = len(self.s) - 1
        self.width = y.shape[1]
        self.coeffs = np.zeros((n, 6, self.width))
        for k in range(n):
            h = self.s[k + 1] - self.s[k]
            c0, c1, c2 = y[k], dy[k], 0.5 * d2y[k]
            a_res = y[k + 1] - c0 - c1 * h - c2 * h * h
            b_res = dy[k + 1] - c1 - d2y[k] * h
            c_res = d2y[k + 1] - d2y[k]
            m = np.array(
                [
                    [h**3, h**4, h**5],
                    [3 * h**2, 4 * h**3, 5 * h**4],
                    [6 * h, 12 * h**2, 20 * h**3],
                ]
            )
            c345 = np.linalg.solve(m, np.stack([a_res, b_res, c_res]))
            self.coeffs[k] = np.concatenate([np.stack([c0, c1, c2]), c345])

    def eval(self, s, derivative=0):
        sval = value(s)
        k = int(np.searchsorted(self.s, sval, side="right") - 1)
        k = min(max(k, 0), len(self.s) - 2)
        tau = s - float(self.s[k])
        c = self.coeffs[k]
        return [_horner_eval(c[:, mu], tau, derivative) for mu in range(self.width)]


@dataclass
class GeodesicPath:
    """Proper-time parameterized geodesic with dense evaluation."""

    s: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    metric_id: str
    stats: dict
    metric: Optional[MetricField] = None
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


def _rk4_sweep(metric, x0, v0, a0, s_target, h, max_steps):
    """Fixed-step RK4 from s=0 toward s_target (sign of s_target chosen).

    ``a0`` is the acceleration at (x0, v0); each step's first stage reuses
    the knot acceleration the previous step ended with.
    """
    sgn = 1.0 if s_target >= 0 else -1.0
    h = sgn * abs(h)
    ss, xs, vs, accs = [0.0], [x0.copy()], [v0.copy()], [a0]
    s, x, v, a1 = 0.0, x0.copy(), v0.copy(), a0
    truncated = None
    steps = 0
    while sgn * (s_target - s) > 1e-15 and steps < max_steps:
        dt = sgn * min(abs(h), abs(s_target - s))
        try:
            k1x, k1v = v, a1
            k2x = v + 0.5 * dt * k1v
            k2v = _geodesic_rhs(metric, x + 0.5 * dt * k1x, k2x)
            k3x = v + 0.5 * dt * k2v
            k3v = _geodesic_rhs(metric, x + 0.5 * dt * k2x, k3x)
            k4x = v + dt * k3v
            k4v = _geodesic_rhs(metric, x + dt * k3x, k4x)
            xn = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
            vn = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
            an = _geodesic_rhs(metric, xn, vn)
        except (ChartDomainError, SingularMetricError) as err:
            truncated = str(err)
            break
        s, x, v, a1 = s + dt, xn, vn, an
        ss.append(s)
        xs.append(x.copy())
        vs.append(v.copy())
        accs.append(an)
        steps += 1
    return ss, xs, vs, accs, steps, truncated


_RK45_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8, 3680 / 513, -845 / 4104],
    [-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_RK45_C = [0, 1 / 4, 3 / 8, 12 / 13, 1, 1 / 2]
_RK45_B5 = [16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]
_RK45_B4 = [25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0]


def _rk45_sweep(metric, x0, v0, a0, s_target, control):
    sgn = 1.0 if s_target >= 0 else -1.0
    h = sgn * abs(control.step)
    ss, xs, vs, accs = [0.0], [x0.copy()], [v0.copy()], [a0]
    s, x, v = 0.0, x0.copy(), v0.copy()
    y = np.concatenate([x, v])
    truncated = None
    steps = 0
    max_err = 0.0

    def rhs(yv):
        return np.concatenate([yv[DIM:], _geodesic_rhs(metric, yv[:DIM], yv[DIM:])])

    while sgn * (s_target - s) > 1e-15 and steps < control.max_steps:
        dt = sgn * min(abs(h), abs(s_target - s))
        try:
            ks = []
            for i in range(6):
                yi = y.copy()
                for j, aij in enumerate(_RK45_A[i]):
                    yi = yi + dt * aij * ks[j]
                ks.append(rhs(yi))
            y5 = y + dt * sum(b * k for b, k in zip(_RK45_B5, ks))
            y4 = y + dt * sum(b * k for b, k in zip(_RK45_B4, ks))
        except (ChartDomainError, SingularMetricError) as err:
            truncated = str(err)
            break
        err = float(np.max(np.abs(y5 - y4)))
        if err <= control.tol or abs(dt) <= control.min_step:
            if abs(dt) <= control.min_step and err > control.tol:
                raise StepSizeUnderflowError(
                    f"step underflow at s={s}: error {err} above tolerance {control.tol}"
                )
            s, y = s + dt, y5
            max_err = max(max_err, err)
            ss.append(s)
            xs.append(y[:DIM].copy())
            vs.append(y[DIM:].copy())
            accs.append(_geodesic_rhs(metric, y[:DIM], y[DIM:]))
            steps += 1
        scale = 0.9 * (control.tol / err) ** 0.2 if err > 0 else 2.0
        h = dt * min(4.0, max(0.1, scale))
        if abs(h) < control.min_step:
            h = sgn * control.min_step
    return ss, xs, vs, accs, steps, truncated, max_err


def integrate_geodesic(
    metric: MetricField, p0, v0, s_max, control: Optional[StepControl] = None, s_min=0.0
) -> GeodesicPath:
    """Integrate the geodesic equation from p0 with unit velocity v0.

    Covers proper times [s_min, s_max] (s_min may be negative; the path then
    extends backward through p0).  Leaving the chart domain truncates the
    path and records the reason in ``stats['truncated']``.
    """
    control = control or StepControl()
    p0 = as_point(p0, metric.chart_id)
    x0 = p0.array.copy()
    v0 = np.asarray(v0, dtype=float).copy()
    _validate_initial(metric, x0, v0)
    if s_max <= s_min:
        raise ValueError("need s_max > s_min")

    a0 = _geodesic_rhs(metric, x0, v0)

    def sweep(target):
        if control.method == "rk4":
            out = _rk4_sweep(metric, x0, v0, a0, target, control.step, control.max_steps)
            return (*out, None)
        if control.method == "rk45":
            return _rk45_sweep(metric, x0, v0, a0, target, control)
        raise ValueError(f"unknown integrator method {control.method!r}")

    ss, xs, vs, accs = [0.0], [x0], [v0], [a0]
    steps = 0
    truncated = None
    max_err = None
    if s_max > 0:
        fs, fx, fv, fa, fsteps, ftrunc, *rest = sweep(s_max)
        ss, xs, vs, accs = fs, fx, fv, fa
        steps += fsteps
        truncated = ftrunc
        max_err = rest[0] if rest else None
    if s_min < 0:
        bs, bx, bv, ba, bsteps, btrunc, *rest = sweep(s_min)
        steps += bsteps
        truncated = truncated or btrunc
        if rest and rest[0] is not None:
            max_err = max(max_err or 0.0, rest[0])
        ss = [*reversed(bs[1:]), *ss]
        xs = [*reversed(bx[1:]), *xs]
        vs = [*reversed(bv[1:]), *vs]
        accs = [*reversed(ba[1:]), *accs]

    s_arr = np.array(ss)
    x_arr = np.array(xs)
    v_arr = np.array(vs)
    a_arr = np.array(accs)
    drift = max(
        abs(_norm2(metric, x_arr[k], v_arr[k]) - 1.0) for k in range(0, len(s_arr), max(1, len(s_arr) // 64))
    )
    stats = {
        "steps": steps,
        "max_step_error_estimate": max_err if max_err is not None else drift,
        "max_norm_drift": drift,
        "truncated": truncated is not None,
        "reason": truncated,
        "method": control.method,
    }
    return GeodesicPath(s_arr, x_arr, v_arr, a_arr, metric.name, stats, metric)


@dataclass
class TransportedTetrad:
    """Orthonormal tetrad parallel-transported along a geodesic.

    Row a of each 4x4 sample is the vector e_a; e_0 is the path velocity.
    Transport preserves inner products, so g(e_a, e_b) stays eta_{ab} up to
    integration error.
    """

    path: GeodesicPath
    samples: np.ndarray  # (n, 4, 4), [k, a, mu]
    _dense: Optional[QuinticDense] = None

    def tetrad(self, s):
        """4x4 of scalars e[a][mu] at proper time s (dual-capable)."""
        flat = self._dense.eval(s, derivative=0)
        return [[flat[4 * a + mu] for mu in range(4)] for a in range(4)]

    def tetrad_rate(self, s):
        """First s-derivative of the tetrad components at s."""
        flat = self._dense.eval(s, derivative=1)
        return [[flat[4 * a + mu] for mu in range(4)] for a in range(4)]

    def orthonormality_drift(self, metric: MetricField) -> float:
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        worst = 0.0
        for k in range(0, len(self.path.s), max(1, len(self.path.s) // 64)):
            g = eval_metric(metric, self.path.points[k])
            e = self.samples[k]
            worst = max(worst, float(np.max(np.abs(e @ g @ e.T - eta))))
        return worst


def parallel_transport_tetrad(metric: MetricField, path: GeodesicPath, initial_tetrad) -> TransportedTetrad:
    """Transport an orthonormal tetrad along a path by De_a/ds = 0.

    Args:
        initial_tetrad: 4x4 array, rows e_a^mu at the path point s=0, with
            e_0 equal to the initial velocity.  Non-orthonormal input is
            rejected.
    """
    e0 = np.asarray(initial_tetrad, dtype=float)
    k0 = int(np.searchsorted(path.s, 0.0))
    k0 = min(max(k0, 0), len(path.s) - 1)
    g = eval_metric(metric, path.points[k0])
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    if np.max(np.abs(e0 @ g @ e0.T - eta)) > 1e-8:
        raise ValueError("initial tetrad is not orthonormal for this metric")
    if np.max(np.abs(e0[0] - path.velocities[k0])) > 1e-8:
        raise ValueError("initial tetrad must have e_0 equal to the path velocity")

    n = len(path.s)
    samples = np.zeros((n, 4, 4))
    samples[k0] = e0

    def rhs(s, e):
        x = np.array([value(c) for c in path.position(float(s))])
        v = np.array([value(c) for c in path.velocity(float(s))])
        gamma = christoffel(metric, x).gamma
        return -np.einsum("mnr,n,ar->am", gamma, v, e)

    def sweep(start, stop, step_dir):
        e = samples[start].copy()
        for k in range(start, stop, step_dir):
            s0, s1 = path.s[k], path.s[k + step_dir]
            h = s1 - s0
            k1 = rhs(s0, e)
            k2 = rhs(s0 + h / 2, e + h / 2 * k1)
            k3 = rhs(s0 + h / 2, e + h / 2 * k2)
            k4 = rhs(s1, e + h * k3)
            e = e + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            samples[k + step_dir] = e

    sweep(k0, n - 1, 1)
    sweep(k0, 0, -1)

    # Knot jets for the dense representation: first derivative from the
    # transport equation, second from its s-derivative along the path.
    d1 = np.zeros_like(samples)
    d2 = np.zeros_like(samples)
    for k in range(n):
        x, v, a = path.points[k], path.velocities[k], path.accelerations[k]
        gamma, dgamma = christoffel_jet(metric, x)
        e = samples[k]
        de = -np.einsum("mnr,n,ar->am", gamma, v, e)
        dgam_dt = np.einsum("smnr,s,n->mr", dgamma, v, v) + np.einsum("mnr,n->mr", gamma, a)
        d2[k] = -np.einsum("mr,ar->am", dgam_dt, e) - np.einsum("mnr,n,ar->am", gamma, v, de)
        d1[k] = de
    dense = QuinticDense(path.s, samples.reshape(n, 16), d1.reshape(n, 16), d2.reshape(n, 16))
    return TransportedTetrad(path, samples, dense)


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
