"""Acceptance suite: one test per binding criterion, stated tolerances.

Each test prints a single PASS line once its assertions hold, so running
``pytest tests/test_acceptance.py -v -s`` gives a per-criterion summary.
All tolerances are pinned here, not deferred.
"""

import time

import numpy as np
import pytest

import framekin as fk
from framekin.catalog import (
    friedmann_connection_closed,
    theta_comoving_closed,
    theta_drifting_as_printed,
    theta_drifting_closed,
    z_chart_connection_closed,
    z_chart_metric_closed,
)
from framekin.equivalence import moving_lab_theta_closed_form
from framekin.oracles import fd_divergence

from test_geodesics import drift_position_closed, drift_velocity_closed


def _report(name):
    print(f"\nACCEPTANCE PASS: {name}")


def test_friedmann_connection_regression():
    rng = np.random.default_rng(1)
    models = [fk.make_friedmann(a, 0.15) for a in (1e-4, 1e-3, 0.1)]
    points = [(rng.uniform(0, 3), *rng.uniform(-2, 2, 3)) for _ in range(100)]
    start = time.perf_counter()
    worst = 0.0
    for m in models:
        for p in points:
            gam = fk.christoffel(m.metric, p)
            closed = friedmann_connection_closed(m.scale, p)
            worst = max(worst, float(np.max(np.abs(gam - closed))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"max deviation {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    _report(f"connection regression (max err {worst:.2e}, {elapsed:.2f}s)")


def test_z_chart_regression():
    m = fk.make_friedmann(1e-3, 0.1005)
    start = time.perf_counter()
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    rng = np.random.default_rng(2)
    worst_g = worst_gam = 0.0
    for _ in range(20):
        q = (rng.uniform(0, 2), *rng.uniform(-1, 1, 3))
        worst_g = max(worst_g, float(np.max(np.abs(fk.eval_metric(gz, q) - z_chart_metric_closed(m, cmap, q)))))
        worst_gam = max(
            worst_gam,
            float(np.max(np.abs(fk.christoffel(gz, q) - z_chart_connection_closed(m, cmap, q)))),
        )
    elapsed = time.perf_counter() - start
    assert worst_g < 1e-8, f"metric deviation {worst_g}"
    assert worst_gam < 1e-8, f"connection deviation {worst_gam}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(f"drift-chart regression (metric {worst_g:.2e}, connection {worst_gam:.2e}, {elapsed:.2f}s)")


def test_theta_comoving_reproduction():
    m = fk.make_friedmann(1e-3)
    worst = 0.0
    for t in (0.0, 0.3, 1.0, 2.5, 7.0):
        theta = fk.kinematic_decompose(m.metric, m.frame_comoving, (t, 0.4, -0.2, 0.9)).theta
        worst = max(worst, abs(theta - theta_comoving_closed(m.scale, t)))
    assert worst < 1e-9
    theta0 = fk.kinematic_decompose(m.metric, m.frame_comoving, (0, 0, 0, 0)).theta
    assert theta0 == pytest.approx(3.000e-3, abs=1e-12)
    _report(f"comoving expansion 3 Rdot/R (epoch value {theta0:.6e})")


def test_pirf_certification():
    m = fk.make_friedmann(1e-3, 0.1005)
    grid = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), n=3)
    res_v = fk.is_pirf(m.metric, m.frame_comoving, grid, tolerance=1e-8)
    res_z = fk.is_pirf(m.metric, m.frame_drifting, grid, tolerance=1e-8)
    assert res_v.is_pirf and res_v.max_accel < 1e-8 and res_v.max_wedge < 1e-8
    assert res_z.is_pirf and res_z.max_accel < 1e-8 and res_z.max_wedge < 1e-8
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    rot_samples = [(0.0, 1.0, 0.0, 0.0), (0.3, 0.5, 1.0, 0.2)]
    res_rot = fk.is_pirf(rot.metric, rot, rot_samples, tolerance=1e-8)
    vort = fk.kinematic_decompose(rot.metric, rot, rot_samples[0]).vorticity
    assert not res_rot.is_pirf
    assert float(np.max(np.abs(vort))) > 1e-3
    _report("pseudo-inertial certification (comoving and drifting pass, rotating fails)")


def test_drifting_expansion_oracle_agreement():
    worst = 0.0
    margin_ok = True
    for a in (1e-4, 1e-3, 1e-2):
        for v in (0.05, 0.1, 0.2):
            u = fk.drift_speed_to_momentum(v)
            m = fk.make_friedmann(a, u)
            theta = fk.kinematic_decompose(m.metric, m.frame_drifting, (0, 0, 0, 0)).theta
            oracle = fd_divergence(m.metric, m.frame_drifting, (0, 0, 0, 0))
            worst = max(worst, abs(theta - oracle))
            theta_v = fk.kinematic_decompose(m.metric, m.frame_comoving, (0, 0, 0, 0)).theta
            if abs(theta - theta_v) < 10 * 1e-8:
                margin_ok = False
            # emitted for the record: the as-printed closed form
            printed = theta_drifting_as_printed(m.scale, u, 0.0)
            derived = theta_drifting_closed(m.scale, u, 0.0)
            print(
                f"  theta_drifting a={a} v={v}: measured {theta:.12e} "
                f"derived {derived:.12e} as-printed {printed:.12e}"
            )
    assert worst < 1e-8, f"oracle disagreement {worst}"
    assert margin_ok, "expansion gap margin below 10x tolerance"
    _report(f"drifting-expansion oracle agreement (max gap {worst:.2e})")


def test_geodesic_closed_form_and_convergence():
    a, u = 1e-3, 0.1005
    m = fk.make_friedmann(a, u)
    w = np.sqrt(1 + u * u)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (w, u, 0, 0), 10.5, fk.StepControl(step=1e-3))
    assert path.points[-1][0] > 10.0
    worst = 0.0
    for k in range(0, len(path.s), 100):
        t = path.points[k][0]
        if t > 10.0:
            break
        got = path.velocities[k][1] / path.velocities[k][0]
        worst = max(worst, abs(got - drift_velocity_closed(a, u, t)))
    assert worst < 1e-8, f"velocity deviation {worst}"
    assert path.stats["max_norm_drift"] < 1e-8

    a2, u2 = 0.1, 0.5
    m2 = fk.make_friedmann(a2, u2)
    w2 = np.sqrt(1 + u2 * u2)

    def max_err(step):
        p = fk.integrate_geodesic(m2.metric, (0, 0, 0, 0), (w2, u2, 0, 0), 4.0, fk.StepControl(step=step))
        return max(
            abs(p.points[k][1] - drift_position_closed(a2, u2, p.points[k][0]))
            for k in range(0, len(p.s), 7)
        )

    e1, e2 = max_err(0.08), max_err(0.04)
    ratio = e1 / e2
    assert ratio >= 14.0, f"convergence ratio {ratio}"
    _report(f"geodesic closed form (max err {worst:.2e}, step-halving ratio {ratio:.1f})")


def test_normal_chart_conditions():
    m = fk.make_friedmann(0.3)
    p0 = (0.5, 0.1, -0.2, 0.3)
    r = m.scale.value(p0[0])
    chart = fk.build_normal_chart(m.metric, p0, np.diag([1.0, 1 / r, 1 / r, 1 / r]))
    pushed = chart.metric_in_chart(m.metric)
    g_dev = float(np.max(np.abs(fk.eval_metric(pushed, (0, 0, 0, 0)) - np.diag([1.0, -1, -1, -1]))))
    gam_dev = float(np.max(np.abs(fk.christoffel(pushed, (0, 0, 0, 0)))))
    assert g_dev < 1e-10
    assert gam_dev < 1e-8
    curv_dev, _, _ = fk.normal_chart_curvature_check(m.metric, chart)
    assert curv_dev < 1e-6
    exponent, _ = fk.metric_deviation_exponent(m.metric, chart)
    assert exponent >= 1.9
    _report(
        f"normal-chart conditions (metric {g_dev:.1e}, connection {gam_dev:.1e}, "
        f"curvature relation {curv_dev:.1e}, exponent {exponent:.3f})"
    )


def test_moving_lab_expansion_headline():
    start = time.perf_counter()
    a = 1e-3
    reports = {v: fk.moving_lab_expansion_pair(a, v) for v in (0.05, 0.1, 0.2)}
    for v, rep in reports.items():
        assert abs(rep.theta_lab) <= 1e-8, f"lab expansion at rest not zero at v={v}"
        assert abs(rep.theta_lab_moving - rep.theta_lab_moving_divergence_oracle) < 1e-8
        assert rep.theta_lab_moving > 0
    ratios = {v: rep.theta_lab_moving / (a * v * v) for v, rep in reports.items()}
    base = ratios[0.05]
    for v in (0.1, 0.2):
        assert abs(ratios[v] - base) / base < 0.05, f"speed-squared scaling broken at v={v}"
    rep_2a = fk.moving_lab_expansion_pair(2e-3, 0.2)
    lin = rep_2a.theta_lab_moving / reports[0.2].theta_lab_moving
    assert lin == pytest.approx(2.0, rel=0.05), f"linear scaling in a broken: {lin}"
    # coefficient against the published value: match confirms, a reproducible
    # mismatch must carry oracle-backed finding evidence
    rep = reports[0.1]
    print(f"  ratio theta'/(a v^2) = {rep.ratio_to_av2:.6f} (published coefficient 2)")
    if rep.matches_published_coefficient:
        assert abs(rep.ratio_to_av2 - 2.0) <= 0.2
    else:
        assert rep.finding is not None
        assert rep.finding["oracle_agreement"] < 1e-8
        assert rep.finding["measured_ratio"] == pytest.approx(
            moving_lab_theta_closed_form(a, 0.1) / (a * 0.01), rel=1e-6
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(
        f"moving-lab expansion (theta_L ~ 0, theta_L' coefficient {rep.ratio_to_av2:.4f}, "
        f"{'matched' if rep.matches_published_coefficient else 'finding attached'}, {elapsed:.1f}s)"
    )


def test_free_particle_experiment_asymmetry():
    rep_a, rep_b = fk.free_particle_experiment(1e-3, 0.1005, 0.01)
    assert rep_a.asymmetry > 0
    lad_a = [fk.free_particle_experiment(a, 0.1005, 0.01)[0].asymmetry for a in (1e-3, 3e-4, 1e-4)]
    assert lad_a[0] > lad_a[1] > lad_a[2]
    lad_u = [fk.free_particle_experiment(1e-3, u, 0.01)[0].asymmetry for u in (0.3, 0.1, 0.03)]
    assert lad_u[0] > lad_u[1] > lad_u[2]
    _report(f"free-particle asymmetry (value {rep_a.asymmetry:.3e}, monotone in a and u)")


def test_equivalence_verdicts():
    m = fk.make_friedmann(1e-3, 0.1005)
    v_vz = fk.equivalence_verdict(m.metric, m.frame_comoving, m.frame_drifting, (0, 0, 0, 0))
    assert v_vz.verdict == "NotEquivalent"

    a_param, v_param = 1e-3, 0.1
    u = fk.drift_speed_to_momentum(v_param)
    m2 = fk.make_friedmann(a_param, u)
    path = fk.integrate_geodesic(
        m2.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.25, fk.StepControl(step=2e-3), s_min=-0.25, tetrad=np.eye(4)
    )
    lab = fk.lab_frame_along_geodesic(m2.metric, path)
    cmap = fk.z_chart(m2)
    gz = fk.pushed_metric_field(cmap, m2.metric)
    moving = fk.deformed_frame(cmap, lab.frame, gz, label="lab-moving")
    v_ll = fk.equivalence_verdict(
        m2.metric, lab.frame, moving, (0, 0, 0, 0), metric_b=gz, p_b=(0, 0, 0, 0)
    )
    assert v_ll.verdict == "NotEquivalent"

    mink = fk.minkowski_metric()
    v_ii = fk.equivalence_verdict(
        mink, fk.inertial_frame(mink), fk.boosted_inertial_frame(0.6, mink), (0, 0, 0, 0)
    )
    assert v_ii.verdict == "Equivalent"
    _report("equivalence verdicts (comoving/drifting and lab pair differ, boosted inertial pair equivalent)")
