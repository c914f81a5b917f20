"""Geodesic integration with in-pass tetrad transport, and the free-particle probe.

Worldlines are parameterized by proper time and integrated by the classical
4th-order Runge-Kutta method with a fixed step (``StepControl``).  Given an initial
tetrad, the same pass parallel-transports it: the state is (x, v, e_a), and
each stage's one connection evaluation feeds both the geodesic equation
a = -Gamma(v, v) and the transport equation de_a/ds = -Gamma(v, e_a).
Every step starts from the derivative stored at the knot it leaves.
``integrate_geodesics`` runs the forward and backward sweeps of several
starts in lockstep: each keeps its own proper time, step size and knots,
and each stage evaluates the connection once for all of them, as a block
(or at a point when one sweep is left).  ``integrate_geodesic`` is its
one-start case.  Paths and their tetrads carry piecewise-quintic dense
representations built from exact knot jets, so downstream consumers can
evaluate positions, velocities, accelerations and tetrads with their first
two s-derivatives anywhere along the path, at one proper time or a block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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
)

log = logging.getLogger(__name__)


@dataclass
class StepControl:
    """Fixed RK4 step size, and the step count at which a sweep is cut short."""

    step: float = 1e-3
    max_steps: int = 2_000_000


def _rhs(metric, y, knot=False):
    """Derivative of the state y = (x, v[, e_a]) from one connection evaluation.

    y is one state (W,) or a block of states (N, W); a block makes one
    block connection call.  Returns (dy/ds, d2e) with d2e None unless a
    tetrad is carried and ``knot`` is set: then the connection comes with
    its gradient and d2e is the second s-derivative of the tetrad, the last
    knot jet of its dense output.
    """
    lead = y.shape[:-1]
    x, v = y[..., :DIM], y[..., DIM : 2 * DIM]
    carried = y.shape[-1] > 2 * DIM
    if knot and carried:
        gamma, dgamma = christoffel_jet(metric, x)
    else:
        gamma = christoffel(metric, x)
    acc = -np.einsum("...mnr,...n,...r->...m", gamma, v, v)
    if not carried:
        return np.concatenate([v, acc], axis=-1), None
    e = y[..., 2 * DIM :].reshape(lead + (DIM, DIM))
    de = -np.einsum("...mnr,...n,...ar->...am", gamma, v, e)
    dy = np.concatenate([v, acc, de.reshape(lead + (-1,))], axis=-1)
    if not knot:
        return dy, None
    dgamma_ds = np.einsum("...smnr,...s,...n->...mr", dgamma, v, v) + np.einsum("...mnr,...n->...mr", gamma, acc)
    d2e = -np.einsum("...mr,...ar->...am", dgamma_ds, e) - np.einsum("...mnr,...n,...ar->...am", gamma, v, de)
    return dy, d2e.reshape(lead + (-1,))


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

    def eval(self, s, derivative=0):
        """Derivative of the given order at proper time s: (width,) at a float, (N, width) at a block (N,)."""
        s = np.asarray(s, dtype=float)
        k = np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, len(self.s) - 2)
        tau = (s - self.s[k])[..., None]
        c = self.coeffs[k]
        out = 0.0
        for j in range(5, derivative - 1, -1):  # Horner
            out = out * tau + math.perm(j, derivative) * c[..., j, :]
        return out


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
        """Coordinates at proper time s, a float or a block (N,)."""
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
    if np.max(np.abs(e0 @ g @ e0.T - SIGNATURE)) > 1e-8:
        raise ValueError("initial tetrad is not orthonormal for this metric")
    if np.max(np.abs(e0[0] - v0)) > 1e-8:
        raise ValueError("initial tetrad must have e_0 equal to the path velocity")
    return np.concatenate([x0, v0, e0.ravel()])


class _Sweep:
    """One direction of one path: its own proper time, sign, step size, knots and counts."""

    def __init__(self, origin, target, control, counts):
        self.knots = [origin]  # (s, y, dy/ds, d2e)
        self.s = origin[0]
        self.target = target
        self.sgn = 1.0 if target >= 0 else -1.0
        self.step = abs(control.step)
        self.steps = 0
        self.reason = None  # why the sweep was truncated
        self.counts = counts  # connection evaluations, shared by the sweeps of a path

    def running(self, control):
        """Whether the sweep goes on; reaching ``control.max_steps`` short of the target truncates it."""
        if self.reason is None and self.steps >= control.max_steps and self.sgn * (self.target - self.s) > 1e-15:
            self.reason = f"step limit: max_steps={control.max_steps} reached at s={self.s!r}"
        return self.reason is None and self.sgn * (self.target - self.s) > 1e-15


def _evaluate(metric, y, rows, sweeps, calls, knot=False):
    """(rows, dy/ds, d2e) at the given rows of the state block y, from one connection call.

    Each row counts one stage or knot evaluation of its sweep.  One row goes
    to the connection as a point, several as a block.  A row whose point
    leaves the chart domain or meets a singular metric ends its sweep, with
    the reason a run of that point alone gives (see ``_failing_row``), and
    the rest are evaluated again without it.  The results have a row for
    every row of y, zero where nothing was evaluated; ``rows`` lists the
    evaluated ones.  A lone state y (W,) is evaluated as it is.
    """
    kind = "knot" if knot else "stage"
    for r in rows:
        sweeps[r].counts[kind] += 1
    name = "christoffel_jet" if knot and y.shape[-1] > 2 * DIM else "christoffel"
    while rows:
        calls[name] += 1
        try:
            dy, d2e = _rhs(metric, y if y.ndim == 1 else y[rows[0]] if len(rows) == 1 else y[rows], knot)
        except (ChartDomainError, SingularMetricError) as exc:
            bad, exc = _failing_row(metric, y, rows, knot, exc, calls, name)
            sweeps[bad].reason = str(exc)
            rows = [r for r in rows if r != bad]
            continue
        if y.ndim == 2 and len(rows) < len(y):
            dy, d2e = _spread(dy, rows, len(y)), _spread(d2e, rows, len(y))
        return rows, dy, d2e
    return rows, np.zeros(y.shape), None


def _failing_row(metric, y, rows, knot, exc, calls, name):
    """(row, error) for the error exc of the evaluation at rows: the row whose
    point fails when evaluated alone, and the error that point call raises.

    The rows are tried one at a time, starting with the one a block error
    names through ``sample``.  An error has no ``sample`` when a domain test
    or component function raised it for the block as a whole (the chart
    inverse of a pushed metric, say).  A block error that no point
    reproduces is raised.
    """
    if len(rows) == 1:
        return rows[0], exc
    named = [] if exc.sample is None else [rows[exc.sample]]
    for r in named + [r for r in rows if r not in named]:
        calls[name] += 1
        try:
            _rhs(metric, y[r], knot)
        except (ChartDomainError, SingularMetricError) as own:
            return r, own
    raise exc


def _spread(a, rows, n):
    """The per-row results a, one row per evaluated row, as n rows with zeros elsewhere."""
    if a is None:
        return None
    out = np.zeros((n, a.shape[-1]))
    out[rows] = a
    return out


def _sweep(metric, sweeps, control, calls):
    """Integrate a block of sweeps in lockstep, each from its last knot toward its target.

    Every step advances each running sweep by its own dt, and each stage
    evaluates the connection once for all of them (a point call when one
    sweep is left).  The first stage of every step is the derivative stored
    at the knot the step leaves, so a step costs one connection evaluation
    per further stage plus one at the knot it reaches.  A sweep that leaves
    the domain or meets a singular metric stops there with its reason; the
    others run on.  Per-sweep
    arithmetic is elementwise, so each sweep reproduces a run of its own
    bit for bit wherever the connection of a block equals that of its
    points (see ``hyperdual``).
    """
    while True:
        act = [sw for sw in sweeps if sw.running(control)]
        if not act:
            return
        dts = [sw.sgn * min(sw.step, abs(sw.target - sw.s)) for sw in act]
        if len(act) == 1:  # a lone state (W,), stepped without block bookkeeping
            _, y, k1, _ = act[0].knots[-1]
            dt = dts[0]
        else:
            dt = np.array(dts)[:, None]
            y, k1 = np.array([sw.knots[-1][1] for sw in act]), np.array([sw.knots[-1][2] for sw in act])
        rows = list(range(len(act)))
        rows, k2, _ = _evaluate(metric, y + dt * 0.5 * k1, rows, act, calls)
        rows, k3, _ = _evaluate(metric, y + dt * 0.5 * k2, rows, act, calls)
        rows, k4, _ = _evaluate(metric, y + dt * k3, rows, act, calls)
        y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows, k_new, d2e = _evaluate(metric, y_new, rows, act, calls, knot=True)
        for r in rows:
            sw, at = act[r], (... if y.ndim == 1 else r)  # a lone state is the whole array
            sw.s = sw.s + dts[r]
            sw.steps += 1
            sw.knots.append((sw.s, y_new[at], k_new[at], None if d2e is None else d2e[at]))


def integrate_geodesics(
    metric: MetricField, starts, s_max, control: Optional[StepControl] = None, s_min=0.0
) -> list:
    """Integrate one geodesic per start, all their sweeps in lockstep.

    Each start is ``(p0, v0, tetrad)`` with ``tetrad`` None or a 4x4 array
    (rows e_a^mu at p0, orthonormal with e_0 equal to v0); either every start
    carries a tetrad or none does.  Every path covers proper times
    [s_min, s_max] (s_min may be negative; the path then extends backward
    through p0), so a start makes up to two sweeps, forward and backward.
    All sweeps share one connection evaluation per stage; each path equals
    the one ``integrate_geodesic`` returns for its start alone wherever a
    block connection equals its points bit for bit (components built from
    arithmetic and ``sqrt``).  Leaving the chart domain, a singular metric
    or reaching ``max_steps`` truncates a path and records why in
    ``stats['reason']``.

    Returns one ``GeodesicPath`` per start, in order.
    """
    control = control or StepControl()
    if s_max <= s_min:
        raise ValueError("need s_max > s_min")
    y0 = [_initial_state(metric, *start) for start in starts]
    if not y0:
        raise ValueError("need at least one start")
    if len({len(y) for y in y0}) > 1:
        raise ValueError("either every start carries a tetrad or none does")
    carried = len(y0[0]) > 2 * DIM

    calls = {"christoffel": 0, "christoffel_jet": 0}
    pairs = []
    for y in y0:
        calls["christoffel_jet" if carried else "christoffel"] += 1
        origin = (0.0, y, *_rhs(metric, y, knot=True))
        counts = {"stage": 0, "knot": 1}
        pairs.append(
            (
                counts,
                _Sweep(origin, s_max, control, counts) if s_max > 0 else None,
                _Sweep(origin, s_min, control, counts) if s_min < 0 else None,
            )
        )
    sweeps = [sw for _, *pair in pairs for sw in pair if sw is not None]
    _sweep(metric, sweeps, control, calls)
    paths = [_path(metric, carried, *pair) for pair in pairs]
    if log.isEnabledFor(logging.DEBUG):
        for path in paths:
            tetrad_health = ""
            if path.tetrad is not None:
                tetrad_health = f", tetrad orthonormality drift {path.tetrad.orthonormality_drift(metric):.3g}"
            log.debug(
                "geodesic on %s: rk4, %d steps, %d christoffel and %d christoffel_jet evaluations, "
                "norm drift %.3g%s; %d sweeps in lockstep made %d christoffel and %d christoffel_jet calls",
                metric.name,
                path.stats["steps"],
                path.stats["christoffel_evals"],
                path.stats["christoffel_jet_evals"],
                path.stats["max_norm_drift"],
                tetrad_health,
                len(sweeps),
                calls["christoffel"],
                calls["christoffel_jet"],
            )
    return paths


def integrate_geodesic(
    metric: MetricField, p0, v0, s_max, control: Optional[StepControl] = None, s_min=0.0, tetrad=None
) -> GeodesicPath:
    """Integrate the geodesic equation from p0 with unit velocity v0.

    Covers proper times [s_min, s_max] (s_min may be negative; the path then
    extends backward through p0, and both sweeps run in lockstep).  Leaving
    the chart domain, a singular metric or reaching ``max_steps`` truncates
    the path and records why in ``stats['reason']``.

    Args:
        tetrad: optional 4x4 array, rows e_a^mu at p0, orthonormal with e_0
            equal to v0 (``ValueError`` otherwise).  It is parallel-transported
            in the same pass and returned as the path's ``tetrad``.
    """
    return integrate_geodesics(metric, [(p0, v0, tetrad)], s_max, control, s_min)[0]


def _path(metric, carried, counts, forward, backward):
    """The GeodesicPath of a start from its forward and backward sweeps (None when not run)."""
    done = [sw for sw in (forward, backward) if sw is not None]
    origin = done[0].knots[:1]
    knots = (backward.knots[:0:-1] if backward else []) + (forward.knots if forward else origin)
    truncated = next((sw.reason for sw in done if sw.reason is not None), None)

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
        "steps": sum(sw.steps for sw in done),
        "max_norm_drift": drift,
        "truncated": truncated is not None,
        "reason": truncated,
        "christoffel_evals": counts["stage"] + (0 if carried else counts["knot"]),
        "christoffel_jet_evals": counts["knot"] if carried else 0,
    }
    transported = None
    if carried:
        d2e = np.array([kn[3] for kn in knots])
        dense = QuinticDense(s_arr, ys[:, 2 * DIM :], dys[:, 2 * DIM :], d2e)
        transported = TransportedTetrad(x_arr, ys[:, 2 * DIM :].reshape(n, DIM, DIM), dense)
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

    def tetrad(self, s, derivative=0):
        """e[a, mu] (4, 4) at proper time s, or (N, 4, 4) at a block (N,); ``derivative`` in s."""
        flat = self._dense.eval(s, derivative)
        return flat.reshape(flat.shape[:-1] + (DIM, DIM))

    def orthonormality_drift(self, metric: MetricField) -> float:
        """max |g(e_a, e_b) - eta_ab| over about 64 knots, from one block metric evaluation."""
        sampled = slice(0, len(self.points), max(1, len(self.points) // 64))
        e = self.samples[sampled]
        g = eval_metric(metric, self.points[sampled])
        return float(np.max(np.abs(e @ g @ np.swapaxes(e, 1, 2) - SIGNATURE)))


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
    gamma = christoffel(gz, origin)

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
