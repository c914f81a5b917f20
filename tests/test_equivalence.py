"""Equivalence verdicts and the moving-lab expansion comparison."""

import numpy as np
import pytest

import framekin as fk
from framekin.equivalence import moving_lab_theta_closed_form


def test_verdict_comoving_vs_drifting_not_equivalent(friedmann_small):
    m = friedmann_small
    verdict = fk.equivalence_verdict(m.metric, m.frame_comoving, m.frame_drifting, (0, 0, 0, 0))
    assert verdict.verdict == "NotEquivalent"
    # the expansion gap decides inequivalence on its own; the tilted
    # congruence also shears, and that magnitude is in fact the largest
    assert verdict.deltas["expansion"] > 10 * verdict.tolerance
    assert verdict.dominant_discriminant in ("expansion", "shear")
    assert verdict.deltas["shear"] == pytest.approx(
        np.sqrt(2.0 / 3.0) * 1e-3 * 0.1005**2 / np.sqrt(1 + 0.1005**2), rel=1e-3
    )


def test_verdict_inertial_vs_boosted_equivalent(minkowski):
    a = fk.inertial_frame(minkowski)
    b = fk.boosted_inertial_frame(0.6, minkowski)
    verdict = fk.equivalence_verdict(minkowski, a, b, (0.3, 1.0, -2.0, 0.4))
    assert verdict.verdict == "Equivalent"
    assert all(d < 1e-12 for d in verdict.deltas.values())


def test_verdict_is_symmetric(friedmann_small):
    m = friedmann_small
    v1 = fk.equivalence_verdict(m.metric, m.frame_comoving, m.frame_drifting, (0, 0, 0, 0))
    v2 = fk.equivalence_verdict(m.metric, m.frame_drifting, m.frame_comoving, (0, 0, 0, 0))
    assert v1.verdict == v2.verdict
    for key in v1.deltas:
        assert v1.deltas[key] == pytest.approx(v2.deltas[key], abs=1e-15)


def test_verdict_strict_mode(friedmann_small):
    m = friedmann_small
    verdict = fk.equivalence_verdict(
        m.metric, m.frame_comoving, m.frame_drifting, (0, 0, 0, 0), strict_components=True
    )
    assert "covariant_derivative" in verdict.deltas
    assert verdict.verdict == "NotEquivalent"


def test_verdict_evidence_payload(friedmann_small):
    m = friedmann_small
    verdict = fk.equivalence_verdict(m.metric, m.frame_comoving, m.frame_drifting, (0, 0, 0, 0))
    d = verdict.to_json_dict()
    assert d["evidence"]["frame_a"]["frame_label"] == "comoving"
    assert len(d["evidence"]["frame_b"]["shear"]) == 16


def test_nonequivalence_margin_over_parameter_floor():
    # the expansion gap stays 10x above the oracle tolerance from the
    # smallest covered parameters upward
    tol = 1e-8
    for a, v in ((1e-4, 0.05), (1e-3, 0.05), (1e-3, 0.2)):
        u = fk.drift_speed_to_momentum(v)
        m = fk.make_friedmann(a, u)
        tv = fk.kinematic_decompose(m.metric, m.frame_comoving, (0, 0, 0, 0)).theta
        tz = fk.kinematic_decompose(m.metric, m.frame_drifting, (0, 0, 0, 0)).theta
        assert abs(tv - tz) > 10 * tol


def test_deformed_frame_agrees_at_fixed_point(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    deformed = fk.deformed_frame(cmap, m.frame_comoving, gz)
    comps = np.array([float(c) for c in deformed.component_fn([0, 0, 0, 0])])
    assert np.allclose(comps, [1, 0, 0, 0], atol=1e-12)


def test_moving_lab_pair_flat_limit():
    rep = fk.moving_lab_expansion_pair(0.0, 0.1)
    assert abs(rep.theta_lab) < 1e-12
    assert abs(rep.theta_lab_moving) < 1e-12


def test_moving_lab_pair_values_and_oracles():
    rep = fk.moving_lab_expansion_pair(1e-3, 0.1)
    assert abs(rep.theta_lab) < 1e-8
    closed = moving_lab_theta_closed_form(1e-3, 0.1)
    assert rep.theta_lab_moving == pytest.approx(closed, rel=1e-9)
    assert abs(rep.theta_lab_moving - rep.theta_lab_moving_divergence_oracle) < 1e-8
    # strict transported-chart construction cancels the connection at the
    # epoch, hence measures zero there; recorded for transparency
    assert abs(rep.theta_lab_moving_transport_chart) < 1e-10
    # the verdict between the two lab congruences at the shared event
    assert abs(rep.theta_lab_moving - rep.theta_lab) > 10 * 1e-7


def test_moving_lab_scalings():
    thetas = {v: fk.moving_lab_expansion_pair(1e-3, v).theta_lab_moving for v in (0.05, 0.1, 0.2)}
    ratios = {v: thetas[v] / (1e-3 * v * v) for v in thetas}
    base = ratios[0.05]
    for v in (0.1, 0.2):
        assert abs(ratios[v] - base) / base < 0.05
    double_a = fk.moving_lab_expansion_pair(2e-3, 0.2).theta_lab_moving
    assert double_a / thetas[0.2] == pytest.approx(2.0, rel=0.05)


def test_moving_lab_coefficient_report():
    rep = fk.moving_lab_expansion_pair(1e-3, 0.1)
    assert rep.published_coefficient == 2.0
    assert rep.ratio_to_av2 == pytest.approx(0.50631, abs=1e-4)
    if not rep.matches_published_coefficient:
        assert rep.finding is not None
        assert rep.finding["oracle_agreement"] < 1e-8
        assert rep.finding["measured_ratio"] == rep.ratio_to_av2
    d = rep.to_json_dict()
    assert "theta_L" in d and "theta_Lprime" in d and "ratio_to_av2" in d


def test_lab_frames_not_equivalent_at_epoch():
    a_param, v_param = 1e-3, 0.1
    u = fk.drift_speed_to_momentum(v_param)
    m = fk.make_friedmann(a_param, u)
    ctrl = fk.StepControl(step=2e-3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.25, ctrl, s_min=-0.25, tetrad=np.eye(4))
    lab = fk.lab_frame_along_geodesic(m.metric, path)
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    moving = fk.deformed_frame(cmap, lab.frame, gz, label="lab-moving")
    verdict = fk.equivalence_verdict(
        m.metric, lab.frame, moving, (0, 0, 0, 0), metric_b=gz, p_b=(0, 0, 0, 0)
    )
    assert verdict.verdict == "NotEquivalent"
    assert verdict.deltas["expansion"] > 10 * verdict.tolerance
