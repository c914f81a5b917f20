"""Integrator, transport and free-particle experiment tests.

Closed-form oracles: the drifting geodesic of the expanding model has
coordinate velocity dx1/dt = u / (R (R^2+u^2)^(1/2)) and trajectory
x1(t) = u * integral_0^t dr / (R (R^2+u^2)^(1/2)); the experiment's initial
accelerations are assembled independently from the closed-form chart
connection.
"""

import logging

import numpy as np
import pytest

import framekin as fk
from framekin.catalog import experiment_accelerations_closed, z_chart
from framekin.maps import pushed_metric_field
from framekin.oracles import adaptive_simpson


def drift_velocity_closed(a, u, t):
    r = 1.0 + a * t
    return u / (r * np.sqrt(r * r + u * u))


def drift_position_closed(a, u, t):
    return u * adaptive_simpson(lambda r: 1.0 / ((1 + a * r) * np.sqrt((1 + a * r) ** 2 + u * u)), 0.0, t)


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
    # a sweep that reaches its target on its last allowed step is not truncated
    full = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.05, fk.StepControl(step=0.01, max_steps=5))
    assert not full.stats["truncated"] and full.stats["reason"] is None


def test_rejects_non_unit_velocity():
    m = fk.make_friedmann(0.001)
    with pytest.raises(ValueError):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (2.0, 0, 0, 0), 1.0)


def test_dense_output_consistency():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 2.0, fk.StepControl(step=0.01))
    s = 1.23456
    x = [float(v) for v in path.position(s)]
    v = [float(c) for c in path.velocity(s)]
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
    tet = path.tetrad
    assert np.max(np.abs(tet.samples - np.eye(4)[None])) < 1e-14


def comoving_transport(a=0.05):
    m = fk.make_friedmann(a)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 3.0, fk.StepControl(step=0.01), tetrad=np.eye(4))
    return m, path


def test_transport_comoving_scales_inverse_scale_factor():
    m, path = comoving_transport()
    tet = path.tetrad
    # spatial legs contract like 1/R along the curve (hand-solved transport)
    for k in (50, 150, 299):
        r = m.scale.value(path.points[k][0])
        for i in (1, 2, 3):
            expect = np.zeros(4)
            expect[i] = 1.0 / r
            assert np.max(np.abs(tet.samples[k][i] - expect)) < 1e-10
    assert tet.orthonormality_drift(m.metric) < 1e-8


def test_transport_dense_between_knots():
    m, path = comoving_transport()
    for k in (0, 49, 150, 298):
        s = 0.5 * (path.s[k] + path.s[k + 1])
        r = m.scale.value(float(path.position(s)[0]))
        e = np.array(path.tetrad.tetrad(s), dtype=float)
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
    assert path.tetrad.orthonormality_drift(m.metric) < 1e-8


def test_transport_rejects_bad_tetrad():
    m = fk.make_friedmann(0.01)
    with pytest.raises(ValueError):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 1.0, fk.StepControl(step=0.05), tetrad=2.0 * np.eye(4))


def test_transported_e0_follows_velocity():
    m = fk.make_friedmann(0.01, 0.3)
    u, w = 0.3, np.sqrt(1.09)
    e = np.eye(4)
    e[0] = [w, u, 0, 0]
    e[1] = [u, w, 0, 0]
    ctrl = fk.StepControl(step=0.01)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 2.0, ctrl, s_min=-1.0, tetrad=e)
    assert np.max(np.abs(path.tetrad.samples[:, 0] - path.velocities)) < 1e-12


def test_connection_evaluations_per_rk4_step(monkeypatch):
    import framekin.geodesics as geo

    calls = {"christoffel": 0, "christoffel_jet": 0}  # evaluated points: a block call counts its rows

    def counted(name, fn):
        def wrapper(metric, p):
            calls[name] += len(p) if np.ndim(p) == 2 else 1
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


def lockstep_starts(carried):
    """Comoving and drifting starts at three points; boosts along x1 and x2."""
    out = []
    for p0, u, axis in (((0, 0, 0, 0), 0.0, 1), ((0, 0.1, 0, 0), 0.3, 1), ((0, 0, 0.2, -0.1), 0.15, 2)):
        e = boost_tetrad(u, axis)
        out.append((p0, e[0], e if carried else None))
    return out


def assert_same_path(got, want):
    for name in ("s", "points", "velocities", "accelerations"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.stats == want.stats
    assert np.array_equal(got._dense.coeffs, want._dense.coeffs)
    assert (got.tetrad is None) == (want.tetrad is None)
    if want.tetrad is not None:
        assert np.array_equal(got.tetrad.samples, want.tetrad.samples)
        assert np.array_equal(got.tetrad._dense.coeffs, want.tetrad._dense.coeffs)


@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("span", [(0.0, 0.6), (-0.5, 0.0), (-0.45, 0.2)])  # forward, backward, ragged
def test_lockstep_equals_separate_runs(carried, span):
    m = fk.make_friedmann(0.05, 0.3)
    s_min, s_max = span
    ctrl = fk.StepControl(step=0.03)
    starts = lockstep_starts(carried)
    paths = fk.integrate_geodesics(m.metric, starts, s_max, ctrl, s_min=s_min)
    assert len(paths) == len(starts)
    for (p0, v0, tetrad), path in zip(starts, paths):
        assert_same_path(path, fk.integrate_geodesic(m.metric, p0, v0, s_max, ctrl, s_min=s_min, tetrad=tetrad))


def test_lockstep_truncated_sweep_leaves_the_others_unchanged():
    # the expanding model cut off at t = -0.9: every backward sweep to s = -3
    # leaves the domain while the forward sweeps run on to s = 3
    model = fk.make_friedmann(0.5)
    m = fk.MetricField(model.metric.component_fn, name="cut", domain_fn=lambda c: c[0] > -0.9)
    ctrl = fk.StepControl(step=0.05)
    starts = lockstep_starts(carried=True)
    paths = fk.integrate_geodesics(m, starts, 3.0, ctrl, s_min=-3.0)
    for (p0, v0, tetrad), path in zip(starts, paths):
        assert path.stats["truncated"] and "outside chart domain" in path.stats["reason"]
        assert "sample" not in path.stats["reason"]  # named as a run of its own names it
        assert path.s[-1] == pytest.approx(3.0, abs=1e-12) and -3.0 < path.s[0] < -0.5
        assert_same_path(path, fk.integrate_geodesic(m, p0, v0, 3.0, ctrl, s_min=-3.0, tetrad=tetrad))


def test_lockstep_truncation_mid_block():
    # one start runs into the boundary while the others do not
    m = fk.make_friedmann(0.5)
    ctrl = fk.StepControl(step=0.05)
    starts = []
    for t in (0.0, -1.7, 1.0):
        e = np.diag([1.0] + [1.0 / m.scale.value(t)] * 3)  # comoving, orthonormal at time t
        starts.append(((t, 0, 0, 0), e[0], e))
    paths = fk.integrate_geodesics(m.metric, starts, 0.5, ctrl, s_min=-0.6)
    assert [p.stats["truncated"] for p in paths] == [False, True, False]
    for (p0, v0, tetrad), path in zip(starts, paths):
        assert_same_path(path, fk.integrate_geodesic(m.metric, p0, v0, 0.5, ctrl, s_min=-0.6, tetrad=tetrad))


def orthonormal_tetrad(g, e0):
    """Gram-Schmidt from the timelike e0 and the spatial axes, orthonormal for g."""
    e = []
    for b in (e0, *np.eye(4)[1:]):
        for f, eta in zip(e, (1.0, -1.0, -1.0)):
            b = b - eta * (f @ g @ b) * f
        e.append(b / np.sqrt(abs(b @ g @ b)))
    return np.array(e)


@pytest.mark.parametrize("carried", [False, True])
def test_lockstep_truncation_without_a_sample_index(carried):
    # in the drift-adapted chart the domain test inverts the chart, which
    # raises for a block as a whole past the big bang, naming no sample:
    # the backward sweep must end there and the forward one run on
    model = fk.make_friedmann(0.5, 0.1)
    gz = pushed_metric_field(z_chart(model), model.metric, name="friedmann-drift-chart")
    ctrl = fk.StepControl(step=0.05)
    starts = []
    for p0 in ((0, 0, 0, 0), (0.2, 0.1, 0, 0)):
        e = orthonormal_tetrad(fk.eval_metric(gz, p0), np.array([1.0, 0.2, 0.0, 0.0]))
        starts.append((p0, e[0], e if carried else None))
    paths = fk.integrate_geodesics(gz, starts, 3.0, ctrl, s_min=-3.0)
    for (p0, v0, tetrad), path in zip(starts, paths):
        assert path.stats["reason"] == "time outside the scale-factor domain"
        assert path.s[-1] == 3.0 and -3.0 < path.s[0] < -1.0
        assert_same_path(path, fk.integrate_geodesic(gz, p0, v0, 3.0, ctrl, s_min=-3.0, tetrad=tetrad))
        forward = fk.integrate_geodesic(gz, p0, v0, 3.0, ctrl, tetrad=tetrad)
        backward = fk.integrate_geodesic(gz, p0, v0, 0.0, ctrl, s_min=-3.0, tetrad=tetrad)
        assert not forward.stats["truncated"] and backward.stats["reason"] == path.stats["reason"]
        k = len(backward.s) - 1  # the knot at s = 0
        for name in ("s", "points", "velocities", "accelerations"):
            assert np.array_equal(getattr(path, name)[k:], getattr(forward, name))
            assert np.array_equal(getattr(path, name)[: k + 1], getattr(backward, name))
        if carried:
            assert np.array_equal(path.tetrad.samples[k:], forward.tetrad.samples)
            assert np.array_equal(path.tetrad.samples[: k + 1], backward.tetrad.samples)


def test_lockstep_connection_calls(monkeypatch):
    import framekin.geodesics as geo

    rows = []

    def counted(fn):
        def wrapper(metric, p):
            rows.append(len(p) if np.ndim(p) == 2 else 0)  # 0 marks a point call
            return fn(metric, p)

        return wrapper

    monkeypatch.setattr(geo, "christoffel", counted(geo.christoffel))
    monkeypatch.setattr(geo, "christoffel_jet", counted(geo.christoffel_jet))
    m = fk.make_friedmann(0.01, 0.3)
    starts = lockstep_starts(carried=True)[:2]
    paths = fk.integrate_geodesics(m.metric, starts, 0.3, fk.StepControl(step=0.01), s_min=-0.2)
    # one point call per origin; 20 steps of all four sweeps; 10 more of the two forward ones
    assert rows == [0, 0] + [4] * 4 * 20 + [2] * 4 * 10
    for path in paths:
        assert path.stats["christoffel_evals"] == 3 * 50 and path.stats["christoffel_jet_evals"] == 51

    rows.clear()
    fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.05, fk.StepControl(step=0.01))
    assert rows == [0] * (4 * 5 + 1)  # a lone sweep calls with points, never a (1, 4) block


def test_lockstep_rejects_mixed_starts():
    m = fk.make_friedmann(0.01)
    e = np.eye(4)
    with pytest.raises(ValueError, match="every start"):
        fk.integrate_geodesics(m.metric, [((0, 0, 0, 0), e[0], e), ((0, 0, 0, 0), e[0], None)], 0.1)
    with pytest.raises(ValueError, match="at least one"):
        fk.integrate_geodesics(m.metric, [], 0.1)


def test_norm_and_orthonormality_drift_match_per_knot_reference():
    m = fk.make_friedmann(0.05, 0.3)
    e = boost_tetrad(0.3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), e[0], 1.0, fk.StepControl(step=0.007), s_min=-0.3, tetrad=e)
    n = len(path.s)
    knots = range(0, n, max(1, n // 64))
    drift = worst = 0.0
    for k in knots:
        v, ek, g = path.velocities[k], path.tetrad.samples[k], fk.eval_metric(m.metric, path.points[k])
        drift = max(drift, abs(float(v @ g @ v) - 1.0))
        worst = max(worst, float(np.max(np.abs(ek @ g @ ek.T - np.diag([1.0, -1.0, -1.0, -1.0])))))
    assert path.stats["max_norm_drift"] == drift
    assert path.tetrad.orthonormality_drift(m.metric) == worst


def test_adaptive_steps_independent_of_tetrad():
    # carrying a tetrad never changes the steps, the path or its norm drift
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
    assert carried.tetrad.orthonormality_drift(m.metric) < 1e-8


def test_debug_log_reports_work_and_drift(caplog):
    m = fk.make_friedmann(0.05)
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.1, fk.StepControl(step=0.01), tetrad=np.eye(4))
    (record,) = [r for r in caplog.records if r.name == "framekin.geodesics"]
    text = record.getMessage()
    assert "rk4, 10 steps, 30 christoffel and 11 christoffel_jet evaluations" in text
    assert "norm drift" in text and "tetrad orthonormality drift" in text
    assert "1 sweeps in lockstep made 30 christoffel and 11 christoffel_jet calls" in text

    caplog.clear()
    e = np.eye(4)
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        starts = [((0, 0, 0, 0), e[0], e), ((0, 0.5, 0, 0), e[0], e)]
        fk.integrate_geodesics(m.metric, starts, 0.1, fk.StepControl(step=0.01), s_min=-0.05)
    texts = [r.getMessage() for r in caplog.records if r.name == "framekin.geodesics"]
    assert len(texts) == 2
    for text in texts:  # per path 10 + 5 steps; the four sweeps share 10 steps of calls, plus two origins
        assert "rk4, 15 steps, 45 christoffel and 16 christoffel_jet evaluations" in text
        assert "4 sweeps in lockstep made 30 christoffel and 12 christoffel_jet calls" in text


@pytest.mark.parametrize("domain", ["cut", "drift-chart"])
def test_debug_log_counts_the_calls_of_a_truncated_run(caplog, monkeypatch, domain):
    # the calls that find the failing sweep of a block are counted too
    import re

    import framekin.geodesics as geo

    calls = {"christoffel": 0, "christoffel_jet": 0}

    def counted(fn):
        def wrapper(metric, p):
            calls[fn.__name__] += 1
            return fn(metric, p)

        return wrapper

    model = fk.make_friedmann(0.5, 0.1)
    if domain == "cut":  # the block error names its sample
        m = fk.MetricField(model.metric.component_fn, name="cut", domain_fn=lambda c: c[0] > -0.9)
    else:  # it does not
        m = pushed_metric_field(z_chart(model), model.metric, name="friedmann-drift-chart")
    starts = []
    for p0 in ((0, 0, 0, 0), (0.1, 0, 0, 0)):
        e = orthonormal_tetrad(fk.eval_metric(m, p0), np.array([1.0, 0.2, 0.0, 0.0]))
        starts.append((p0, e[0], e))
    monkeypatch.setattr(geo, "christoffel", counted(geo.christoffel))
    monkeypatch.setattr(geo, "christoffel_jet", counted(geo.christoffel_jet))
    with caplog.at_level(logging.DEBUG, logger="framekin.geodesics"):
        paths = fk.integrate_geodesics(m, starts, 2.0, fk.StepControl(step=0.05), s_min=-3.0)
    assert all(p.stats["truncated"] for p in paths)
    texts = [r.getMessage() for r in caplog.records if r.name == "framekin.geodesics"]
    made = re.search(r"(\d+) sweeps in lockstep made (\d+) christoffel and (\d+) christoffel_jet calls", texts[0])
    assert made.groups() == ("4", str(calls["christoffel"]), str(calls["christoffel_jet"]))


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
    x_plus = np.array([float(c) for c in path.position(dense_h)])
    x_minus = np.array([float(c) for c in path.position(-dense_h)])
    x_zero = np.array([float(c) for c in path.position(0.0)])
    second = (x_plus - 2 * x_zero + x_minus) / dense_h**2
    rep_a, _ = fk.free_particle_experiment(a, u, v)
    assert abs(second[1] - rep_a.accel_x1) < 1e-6
    assert abs(second[2] - rep_a.accel_x2) < 1e-6


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
