"""Integrator, transport and free-particle experiment tests.

Closed-form oracles (in reference.py): the drifting geodesic of the expanding model has
coordinate velocity dx1/dt = u / (R (R^2+u^2)^(1/2)) and trajectory
x1(t) = u * integral_0^t dr / (R (R^2+u^2)^(1/2)); the experiment's initial
accelerations are assembled independently from the closed-form chart
connection.
"""

import logging

import numpy as np
import pytest

import framekin as fk
from framekin.catalog import z_chart
from framekin.maps import pushed_metric_field

from reference import drift_position_closed, drift_velocity_closed, experiment_accelerations_closed


def test_minkowski_straight_line(minkowski):
    ctrl = fk.StepControl(step=0.01)
    path = fk.integrate_geodesic(minkowski, (0, 1, 2, 3), (1, 0, 0, 0), 2.0, ctrl)
    for k in (0, 50, 200):
        s = path.s[k]
        assert np.allclose(path.points[k], [s, 1, 2, 3], atol=1e-14)
        assert np.allclose(path.velocities[k], [1, 0, 0, 0], atol=1e-14)


def test_comoving_start_stays_comoving():
    m = fk.make_friedmann(0.001)
    path = fk.integrate_geodesic(m.metric, (0, 0.5, 0.5, 0.5), (1, 0, 0, 0), 3.0, fk.StepControl(step=0.01))
    assert np.max(np.abs(path.points[:, 1:] - 0.5)) < 1e-14


def test_drifting_geodesic_matches_closed_velocity():
    a, u = 1e-3, 0.1005
    m = fk.make_friedmann(a, u)
    w = np.sqrt(1 + u * u)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 10.5, fk.StepControl(step=1e-3))
    worst = 0.0
    for k in range(0, len(path.s), 250):
        t = path.points[k][0]
        got = path.velocities[k][1] / path.velocities[k][0]
        worst = max(worst, abs(got - drift_velocity_closed(a, u, t)))
    assert path.points[-1][0] > 10.0
    assert worst < 1e-8


def test_norm_conservation():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 5.0, fk.StepControl(step=1e-3))
    assert path.stats["max_norm_drift"] < 1e-8


def test_fourth_order_convergence():
    a, u = 0.1, 0.5
    m = fk.make_friedmann(a, u)
    w = np.sqrt(1 + u * u)

    def max_err(step):
        path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 4.0, fk.StepControl(step=step))
        worst = 0.0
        for k in range(0, len(path.s), 7):
            t = path.points[k][0]
            worst = max(worst, abs(path.points[k][1] - drift_position_closed(a, u, t)))
        return worst

    e1, e2 = max_err(0.08), max_err(0.04)
    assert e1 > 1e-13  # above roundoff so the ratio is meaningful
    assert e1 / e2 >= 14.0


def test_leaving_domain_truncates_with_reason():
    m = fk.make_friedmann(0.1)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.5, fk.StepControl(step=0.05), s_min=-12.0)
    assert path.stats["truncated"]
    assert "domain" in path.stats["reason"]
    assert path.points[0][0] > -10.0


def test_step_limit_truncates_with_reason():
    m = fk.make_friedmann(1e-3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 1.0, fk.StepControl(step=0.01, max_steps=5))
    assert path.s[-1] == pytest.approx(0.05) and path.stats["steps"] == 5
    assert path.stats["truncated"]
    assert "max_steps=5" in path.stats["reason"]
    assert type(path.error) is ValueError and str(path.error) == path.stats["reason"]
    # a sweep that reaches its target on its last allowed step is not truncated
    full = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.05, fk.StepControl(step=0.01, max_steps=5))
    assert not full.stats["truncated"] and full.stats["reason"] is None and full.error is None


def test_rejects_non_unit_velocity():
    m = fk.make_friedmann(0.001)
    with pytest.raises(ValueError):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (2.0, 0, 0, 0), 1.0)


NAN, INF = float("nan"), float("inf")


def counted_metric(calls):
    """The a = 1e-3 expanding metric, recording each evaluation of its components in ``calls``."""
    metric = fk.make_friedmann(1e-3).metric
    return fk.MetricField(lambda c: calls.append(1) or metric.component_fn(c), name="counted")


@pytest.mark.parametrize("step", [0.0, -0.01, NAN])
def test_rejects_a_step_that_is_not_positive(step):
    # a zero step would run max_steps steps of length zero; the refusal comes before any evaluation
    calls = []
    with pytest.raises(ValueError, match=r"^need step > 0, got "):
        fk.integrate_geodesic(counted_metric(calls), (0, 0, 0, 0), (1, 0, 0, 0), 1.0, fk.StepControl(step, 10))
    assert calls == []


@pytest.mark.parametrize("s_max, s_min", [(NAN, 0.0), (INF, 0.0), (1.0, -INF), (1.0, NAN)])
def test_rejects_proper_time_bounds_that_are_not_finite(s_max, s_min):
    # a NaN bound would return a one-knot path marked complete; the refusal comes before any evaluation
    calls = []
    with pytest.raises(ValueError, match=r"^need finite s_min and s_max, got "):
        fk.integrate_geodesic(
            counted_metric(calls), (0, 0, 0, 0), (1, 0, 0, 0), s_max, fk.StepControl(0.01, 10), s_min=s_min
        )
    assert calls == []


def test_dense_output_consistency():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 2.0, fk.StepControl(step=0.01))
    s = 1.23456
    x = [float(v) for v in path.state(s)[0]]
    v = [float(c) for c in path.state(s, 1)[0]]
    t = x[0]
    assert v[1] / v[0] == pytest.approx(drift_velocity_closed(0.01, 0.3, t), abs=1e-10)


def test_dense_coefficients_match_per_interval_solve():
    # reference: one 3x3 solve per interval, the textbook quintic Hermite fit
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    for step, s_max in ((0.01, 1.0), (0.03, 1.005)):  # uniform, and ragged at both ends
        path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), s_max, fk.StepControl(step=step), s_min=-0.5)
        y, dy, d2y = path.points, path.velocities, path.accelerations
        for k in range(len(path.s) - 1):
            h = path.s[k + 1] - path.s[k]
            c0, c1, c2 = y[k], dy[k], 0.5 * d2y[k]
            rhs = np.stack([y[k + 1] - c0 - c1 * h - c2 * h * h, dy[k + 1] - c1 - d2y[k] * h, d2y[k + 1] - d2y[k]])
            mat = np.array([[h**3, h**4, h**5], [3 * h**2, 4 * h**3, 5 * h**4], [6 * h, 12 * h**2, 20 * h**3]])
            expect = np.concatenate([np.stack([c0, c1, c2]), np.linalg.solve(mat, rhs)])
            assert np.array_equal(path._dense.coeffs[k], expect)


def test_csv_export(tmp_path):
    m = fk.make_friedmann(0.001, 0.1005)
    u, w = 0.1005, np.sqrt(1 + 0.1005**2)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 0.1, fk.StepControl(step=0.01))
    out = tmp_path / "traj.csv"
    path.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,t,x1,x2,x3,u0,u1,u2,u3"
    assert len(lines) == len(path.s) + 1
    row = lines[1].split(",")
    assert len(row) == 9
    assert float(row[5]) == pytest.approx(w, abs=1e-15)


# -- tetrad transport ----------------------------------------------------------


def test_transport_constant_in_flat_space(minkowski):
    path = fk.integrate_geodesic(minkowski, (0, 0, 0, 0), (1, 0, 0, 0), 2.0, fk.StepControl(step=0.05), tetrad=np.eye(4))
    assert np.max(np.abs(path.tetrads - np.eye(4)[None])) < 1e-14


def comoving_transport(a=0.05):
    m = fk.make_friedmann(a)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 3.0, fk.StepControl(step=0.01), tetrad=np.eye(4))
    return m, path


def test_transport_comoving_scales_inverse_scale_factor():
    m, path = comoving_transport()
    # spatial legs contract like 1/R along the curve (hand-solved transport)
    for k in (50, 150, 299):
        r = m.scale.value(path.points[k][0])
        for i in (1, 2, 3):
            expect = np.zeros(4)
            expect[i] = 1.0 / r
            assert np.max(np.abs(path.tetrads[k][i] - expect)) < 1e-10
    assert path.orthonormality_drift(m.metric) < 1e-8


def test_transport_dense_between_knots():
    m, path = comoving_transport()
    for k in (0, 49, 150, 298):
        s = 0.5 * (path.s[k] + path.s[k + 1])
        x, e = path.state(s)
        r = m.scale.value(float(x[0]))
        for i in (1, 2, 3):
            expect = np.zeros(4)
            expect[i] = 1.0 / r
            assert np.max(np.abs(e[i] - expect)) < 1e-10


def test_transport_preserves_inner_products():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    e = np.eye(4)
    e[0] = [w, u, 0, 0]
    e[1] = [u, w, 0, 0]
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 4.0, fk.StepControl(step=0.01), tetrad=e)
    assert path.orthonormality_drift(m.metric) < 1e-8


def test_transport_rejects_bad_tetrad():
    m = fk.make_friedmann(0.01)
    with pytest.raises(ValueError):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 1.0, fk.StepControl(step=0.05), tetrad=2.0 * np.eye(4))


def test_transport_rejects_a_tetrad_with_a_nan_axis():
    tetrad = np.eye(4)
    tetrad[1] = np.nan
    ctrl = fk.StepControl(step=0.05)
    with pytest.raises(ValueError, match="initial tetrad is not orthonormal"):
        fk.integrate_geodesic(fk.minkowski_metric(), (0, 0, 0, 0), (1, 0, 0, 0), 0.1, ctrl, tetrad=tetrad)


def test_transported_e0_follows_velocity():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    e = np.eye(4)
    e[0] = [w, u, 0, 0]
    e[1] = [u, w, 0, 0]
    ctrl = fk.StepControl(step=0.01)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 2.0, ctrl, s_min=-1.0, tetrad=e)
    assert np.max(np.abs(path.tetrads[:, 0] - path.velocities)) < 1e-12


def test_connection_evaluations_per_rk4_step(monkeypatch):
    import framekin.geodesics as geo

    calls = {"christoffel": 0, "christoffel_jet": 0}

    def counted(name, fn):
        def wrapper(metric, p):
            assert np.ndim(p) == 1  # every evaluation is a point call, never a (1, 4) block
            calls[name] += 1
            return fn(metric, p)

        return wrapper

    monkeypatch.setattr(geo, "christoffel", counted("christoffel", geo.christoffel))
    monkeypatch.setattr(geo, "christoffel_jet", counted("christoffel_jet", geo.christoffel_jet))
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    ctrl = fk.StepControl(step=0.01)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 0.3, ctrl, s_min=-0.2)
    n = path.stats["steps"]
    assert n == 50
    assert calls == {"christoffel": 4 * n + 1, "christoffel_jet": 0}

    calls.update(christoffel=0, christoffel_jet=0)
    e = np.eye(4)
    e[0] = [w, u, 0, 0]
    e[1] = [u, w, 0, 0]
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 0.3, ctrl, s_min=-0.2, tetrad=e)
    assert calls == {"christoffel": 3 * n, "christoffel_jet": n + 1}
    assert (path.stats["christoffel_evals"], path.stats["christoffel_jet_evals"]) == (3 * n, n + 1)


def boost_tetrad(u, axis=1):
    w = np.sqrt(1 + u * u)
    e = np.eye(4)
    e[0, 0], e[0, axis], e[axis, 0], e[axis, axis] = w, u, u, w
    return e


def starts_at_three_points(carried):
    """Comoving and drifting starts at three points of the comoving chart at t = 0; boosts along x1 and x2."""
    out = []
    for p0, u, axis in (((0, 0, 0, 0), 0.0, 1), ((0, 0.1, 0, 0), 0.3, 1), ((0, 0, 0.2, -0.1), 0.15, 2)):
        e = boost_tetrad(u, axis)
        out.append((p0, e[0], e if carried else None))
    return out


def assert_sweeps_joined(path, backward, forward):
    """The path is its backward and its forward run, each run on its own, joined at the knot s = 0."""
    assert path.stats["steps"] == forward.stats["steps"] + backward.stats["steps"]
    k = len(backward.s) - 1  # the knot at s = 0
    for name in ("s", "points", "velocities", "accelerations"):
        assert np.array_equal(getattr(path, name)[k:], getattr(forward, name))
        assert np.array_equal(getattr(path, name)[: k + 1], getattr(backward, name))
    assert (path.tetrads is None) == (forward.tetrads is None) == (backward.tetrads is None)
    if path.tetrads is not None:
        assert np.array_equal(path.tetrads[k:], forward.tetrads)
        assert np.array_equal(path.tetrads[: k + 1], backward.tetrads)


def orthonormal_tetrad(g, e0):
    """Gram-Schmidt from the timelike e0 and the spatial axes, orthonormal for g."""
    e = []
    for b in (e0, *np.eye(4)[1:]):
        for f, eta in zip(e, (1.0, -1.0, -1.0)):
            b = b - eta * (f @ g @ b) * f
        e.append(b / np.sqrt(abs(b @ g @ b)))
    return np.array(e)


def cut_or_drift_chart(domain):
    """The expanding model cut off at t = -0.9, or its drift-adapted chart, whose pull-back
    fails past the big bang naming no sample."""
    model = fk.make_friedmann(0.5, 0.1)
    if domain == "cut":

        def comps(c):  # refuses t <= -0.9
            fk.refuse_outside("cut", c, np.logical_not(c[0] > -0.9))
            return model.metric.component_fn(c)

        return fk.MetricField(comps, name="cut")
    return pushed_metric_field(z_chart(model), model.metric, name="friedmann-drift-chart")


def assert_backward_sweep_truncated(m, p0, v0, tetrad, s_end):
    """The backward sweep to s = -3 leaves the domain before s_end; the forward one runs on to s = 3
    as a run of its own."""
    ctrl = fk.StepControl(step=0.05)
    path = fk.integrate_geodesic(m, p0, v0, 3.0, ctrl, s_min=-3.0, tetrad=tetrad)
    assert path.stats["truncated"]
    assert isinstance(path.error, fk.ChartDomainError) and str(path.error) == path.stats["reason"]
    assert path.s[-1] == 3.0 and -3.0 < path.s[0] < s_end
    forward = fk.integrate_geodesic(m, p0, v0, 3.0, ctrl, tetrad=tetrad)
    backward = fk.integrate_geodesic(m, p0, v0, 0.0, ctrl, s_min=-3.0, tetrad=tetrad)
    assert not forward.stats["truncated"] and forward.error is None
    assert backward.stats["reason"] == path.stats["reason"]
    assert_sweeps_joined(path, backward, forward)
    return path


def test_backward_truncation_leaves_the_forward_sweep_unchanged():
    # the cut model: every start's backward sweep leaves the domain, its forward sweep is untouched
    m = cut_or_drift_chart("cut")
    for carried in (False, True):
        for p0, v0, tetrad in starts_at_three_points(carried):
            path = assert_backward_sweep_truncated(m, p0, v0, tetrad, s_end=-0.5)
            assert "outside chart domain" in path.stats["reason"] and "sample" not in path.stats["reason"]


@pytest.mark.parametrize("carried", [False, True])
def test_truncation_without_a_sample_index(carried):
    # in the drift-adapted chart the components pull back through the chart, which raises past
    # the big bang naming no sample: the backward sweep must end there and the forward one run on
    m = cut_or_drift_chart("drift-chart")
    for p0 in ((0, 0, 0, 0), (0.2, 0.1, 0, 0)):
        e = orthonormal_tetrad(fk.eval_metric(m, p0), np.array([1.0, 0.2, 0.0, 0.0]))
        path = assert_backward_sweep_truncated(m, p0, e[0], e if carried else None, s_end=-1.0)
        assert path.stats["reason"] == "time outside the scale-factor domain"


def test_only_the_start_near_the_big_bang_truncates():
    # of three comoving starts only the middle one, near the big bang at t = -2, runs into the
    # boundary; each path is its backward and forward sweep run on their own, joined
    m = fk.make_friedmann(0.5)
    ctrl = fk.StepControl(step=0.05)
    truncated = []
    for t in (0.0, -1.7, 1.0):
        e = np.diag([1.0] + [1.0 / m.scale.value(t)] * 3)  # comoving, orthonormal at time t
        path = fk.integrate_geodesic(m.metric, (t, 0, 0, 0), e[0], 0.5, ctrl, s_min=-0.6, tetrad=e)
        forward = fk.integrate_geodesic(m.metric, (t, 0, 0, 0), e[0], 0.5, ctrl, tetrad=e)
        backward = fk.integrate_geodesic(m.metric, (t, 0, 0, 0), e[0], 0.0, ctrl, s_min=-0.6, tetrad=e)
        assert_sweeps_joined(path, backward, forward)
        truncated.append(path.stats["truncated"])
    assert truncated == [False, True, False]


def test_two_sided_connection_calls(monkeypatch):
    import framekin.geodesics as geo

    calls = []

    def counted(name, fn):
        def wrapper(metric, p):
            assert np.ndim(p) == 1  # a point call, never a (1, 4) block
            calls.append(name)
            return fn(metric, p)

        return wrapper

    monkeypatch.setattr(geo, "christoffel", counted("christoffel", geo.christoffel))
    monkeypatch.setattr(geo, "christoffel_jet", counted("christoffel_jet", geo.christoffel_jet))
    m = fk.make_friedmann(0.01, 0.3)
    for p0, v0, tetrad in starts_at_three_points(carried=True)[:2]:
        calls.clear()
        path = fk.integrate_geodesic(m.metric, p0, v0, 0.3, fk.StepControl(step=0.01), s_min=-0.2, tetrad=tetrad)
        # the origin's jet, then per step of both sweeps (30 forward, 20 back) three stages and a knot
        assert calls == ["christoffel_jet"] + (["christoffel"] * 3 + ["christoffel_jet"]) * 50
        assert path.stats["christoffel_evals"] == 3 * 50 and path.stats["christoffel_jet_evals"] == 51

    calls.clear()
    fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.05, fk.StepControl(step=0.01))
    assert calls == ["christoffel"] * (4 * 5 + 1)  # without a tetrad every evaluation is a point christoffel


def test_norm_and_orthonormality_drift_match_per_knot_reference():
    m = fk.make_friedmann(0.05, 0.3)
    e = boost_tetrad(0.3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), e[0], 1.0, fk.StepControl(step=0.007), s_min=-0.3, tetrad=e)
    n = len(path.s)
    knots = range(0, n, max(1, n // 64))
    drift = worst = 0.0
    for k in knots:
        v, ek, g = path.velocities[k], path.tetrads[k], fk.eval_metric(m.metric, path.points[k])
        drift = max(drift, abs(float(v @ g @ v) - 1.0))
        worst = max(worst, float(np.max(np.abs(ek @ g @ ek.T - np.diag([1.0, -1.0, -1.0, -1.0])))))
    assert path.stats["max_norm_drift"] == drift
    assert path.orthonormality_drift(m.metric) == worst


def test_adaptive_steps_independent_of_tetrad():
    # carrying a tetrad never changes the steps, the path, its norm drift or its dense positions
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    e = np.eye(4)
    e[0] = [w, u, 0, 0]
    e[1] = [u, w, 0, 0]
    ctrl = fk.StepControl(step=0.03)
    bare = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 3.0, ctrl, s_min=-1.0)
    carried = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 3.0, ctrl, s_min=-1.0, tetrad=e)
    for name in ("s", "points", "velocities", "accelerations"):
        assert np.array_equal(getattr(bare, name), getattr(carried, name))
    assert bare.stats["max_norm_drift"] == carried.stats["max_norm_drift"]
    assert carried.orthonormality_drift(m.metric) < 1e-8
    midpoints = 0.5 * (bare.s[:-1] + bare.s[1:])  # a block off the knots
    for k in (0, 1, 2):
        assert np.array_equal(bare.state(midpoints, k)[0], carried.state(midpoints, k)[0])


def test_state_reads_several_orders_as_it_reads_each():
    m = fk.make_friedmann(0.05)
    e = np.eye(4)
    ctrl = fk.StepControl(step=0.03)
    for tetrad in (None, e):
        path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.3, ctrl, s_min=-0.3, tetrad=tetrad)
        for s in (0.1234, np.array([-0.29, -0.01, 0.0, 0.05, 0.3])):
            for orders in ((0, 1, 2), (2, 0), (1,)):
                got = path.state(s, orders)
                assert len(got) == len(orders)
                for (x, t), k in zip(got, orders):
                    want_x, want_t = path.state(s, k)
                    assert np.array_equal(x, want_x)
                    assert (t is None) == (tetrad is None) and (t is None or np.array_equal(t, want_t))


def test_debug_log_reports_work_and_drift(caplog):
    m = fk.make_friedmann(0.05)
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.1, fk.StepControl(step=0.01), tetrad=np.eye(4))
    (record,) = [r for r in caplog.records if r.name == "framekin.geodesics"]
    text = record.getMessage()
    assert "rk4, 10 steps, 30 christoffel and 11 christoffel_jet evaluations" in text
    assert "norm drift" in text and "tetrad orthonormality drift" in text

    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        fk.integrate_geodesic(
            m.metric, (0, 0.5, 0, 0), (1, 0, 0, 0), 0.1, fk.StepControl(step=0.01), s_min=-0.05, tetrad=np.eye(4)
        )
    (record,) = [r for r in caplog.records if r.name == "framekin.geodesics"]
    # 10 steps forward and 5 back, plus the origin knot
    assert "rk4, 15 steps, 45 christoffel and 16 christoffel_jet evaluations" in record.getMessage()


@pytest.mark.parametrize("domain", ["cut", "drift-chart"])
def test_debug_log_counts_the_calls_of_a_truncated_run(caplog, monkeypatch, domain):
    # the evaluation that fails and ends the backward sweep is counted too
    import framekin.geodesics as geo

    calls = {"christoffel": 0, "christoffel_jet": 0}

    def counted(fn):
        def wrapper(metric, p):
            calls[fn.__name__] += 1
            return fn(metric, p)

        return wrapper

    m = cut_or_drift_chart(domain)
    e = orthonormal_tetrad(fk.eval_metric(m, (0, 0, 0, 0)), np.array([1.0, 0.2, 0.0, 0.0]))
    monkeypatch.setattr(geo, "christoffel", counted(geo.christoffel))
    monkeypatch.setattr(geo, "christoffel_jet", counted(geo.christoffel_jet))
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        path = fk.integrate_geodesic(m, (0, 0, 0, 0), e[0], 2.0, fk.StepControl(step=0.05), s_min=-3.0, tetrad=e)
    assert path.stats["truncated"]
    (record,) = [r for r in caplog.records if r.name == "framekin.geodesics"]
    made = f"{calls['christoffel']} christoffel and {calls['christoffel_jet']} christoffel_jet evaluations"
    assert made in record.getMessage()
    assert (path.stats["christoffel_evals"], path.stats["christoffel_jet_evals"]) == tuple(calls.values())
    assert "lockstep" not in record.getMessage()


# -- free-particle experiment ---------------------------------------------------


def test_experiment_flat_limit_zero():
    rep_a, rep_b = fk.free_particle_experiment(0.0, 0.1005, 0.01)
    assert rep_a.asymmetry == 0.0
    assert abs(rep_a.accel_x1) < 1e-15 and abs(rep_b.accel_x2) < 1e-15


def test_experiment_no_drift_isotropic():
    rep_a, rep_b = fk.free_particle_experiment(1e-3, 0.0, 0.01)
    assert abs(np.hypot(rep_a.accel_x1, rep_a.accel_x2) - np.hypot(rep_b.accel_x1, rep_b.accel_x2)) < 1e-15


def test_experiment_matches_closed_forms():
    a, u, v = 1e-3, 0.1005, 0.01
    rep_a, rep_b = fk.free_particle_experiment(a, u, v)
    model = fk.make_friedmann(a, u)
    (ca1, ca2), (cb1, cb2) = experiment_accelerations_closed(model, v)
    assert rep_a.accel_x1 == pytest.approx(ca1, rel=1e-10)
    assert rep_a.accel_x2 == pytest.approx(ca2, abs=1e-15)
    assert rep_b.accel_x1 == pytest.approx(cb1, rel=1e-10)
    assert rep_b.accel_x2 == pytest.approx(cb2, rel=1e-10)
    assert rep_a.asymmetry > 0
    assert rep_a.asymmetry == pytest.approx(
        abs(np.hypot(ca1, ca2) - np.hypot(cb1, cb2)), rel=1e-9
    )


def test_experiment_initial_acceleration_matches_second_differences():
    a, u, v = 1e-3, 0.1005, 0.01
    model = fk.make_friedmann(a, u)
    gz = fk.pushed_metric_field(fk.z_chart(model), model.metric)
    g0 = fk.eval_metric(gz, (0, 0, 0, 0))
    w = np.array([1.0, v, 0.0, 0.0])
    v0 = w / np.sqrt(w @ g0 @ w)
    h = 0.05
    path = fk.integrate_geodesic(gz, (0, 0, 0, 0), v0, h, fk.StepControl(step=h / 8), s_min=-h)
    dense_h = h / 2
    x_plus = np.array([float(c) for c in path.state(dense_h)[0]])
    x_minus = np.array([float(c) for c in path.state(-dense_h)[0]])
    x_zero = np.array([float(c) for c in path.state(0.0)[0]])
    second = (x_plus - 2 * x_zero + x_minus) / dense_h**2
    rep_a, _ = fk.free_particle_experiment(a, u, v)
    assert abs(second[1] - rep_a.accel_x1) < 1e-6
    assert abs(second[2] - rep_a.accel_x2) < 1e-6


def test_experiment_evaluates_the_drift_chart_metric_once(monkeypatch):
    import framekin.geodesics as geodesics

    calls = []
    real = geodesics.pushed_metric_field

    def pushed(*args, **kwargs):
        field = real(*args, **kwargs)
        comps = field.component_fn
        field.component_fn = lambda c: calls.append(c) or comps(c)
        return field

    expected = fk.free_particle_experiment(1e-3, 0.1005, 0.01)
    monkeypatch.setattr(geodesics, "pushed_metric_field", pushed)
    assert fk.free_particle_experiment(1e-3, 0.1005, 0.01) == expected
    assert len(calls) == 1  # one order-1 jet at the origin gives g, its checks and the connection


def test_experiment_rejects_bad_parameters():
    with pytest.raises(ValueError):
        fk.free_particle_experiment(1e-3, 0.1, 1.5)
    with pytest.raises(ValueError):
        fk.free_particle_experiment(-1e-3, 0.1, 0.01)


def test_experiment_asymmetry_vanishing_ladders():
    asym_a = [fk.free_particle_experiment(a, 0.1005, 0.01)[0].asymmetry for a in (1e-3, 1e-4, 1e-5)]
    assert asym_a[0] > asym_a[1] > asym_a[2]
    assert asym_a[2] <= 0.011 * asym_a[0]  # linear decay in a
    asym_u = [fk.free_particle_experiment(1e-3, u, 0.01)[0].asymmetry for u in (0.3, 0.1, 0.03)]
    assert asym_u[0] > asym_u[1] > asym_u[2]
