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


# The pair's reports at three configs, captured from sweeps over s in [-0.25, 0.25]:
# how far the sweeps run beyond the epoch must not move a bit.
_PAIR_REPORTS = {
    (1e-3, 0.2): {
        "u": 0.20412414523193154,
        "theta_L": 0.0,
        "theta_Lprime": 2.103734943258639e-05,
        "theta_Lprime_transport_chart": -2.237564295507636e-19,
        "theta_Lprime_divergence_oracle": 2.1037349256575072e-05,
        "ratio_to_av2": 0.5259337358146597,
        "theta_comoving": 0.003,
        "theta_drifting": 0.003021037349432587,
        "oracle_agreement": 1.760113186926801e-13,
    },
    (3e-5, 0.05): {
        "u": 0.05006261743217589,
        "theta_L": 0.0,
        "theta_Lprime": 3.761745176834375e-08,
        "theta_Lprime_transport_chart": 0.0,
        "theta_Lprime_divergence_oracle": 3.761719525426787e-08,
        "ratio_to_av2": 0.5015660235779166,
        "theta_comoving": 9e-05,
        "theta_drifting": 9.003761745176835e-05,
        "oracle_agreement": 2.5651407588503076e-13,
    },
    (1e-2, 0.3): {
        "u": 0.3144854510165755,
        "theta_L": 0.0,
        "theta_Lprime": 0.0005050887486078241,
        "theta_Lprime_transport_chart": 1.1365526973575162e-19,
        "theta_Lprime_divergence_oracle": 0.0005050887488163966,
        "ratio_to_av2": 0.5612097206753601,
        "theta_comoving": 0.03,
        "theta_drifting": 0.03050508874860783,
        "oracle_agreement": 2.0857252557016093e-13,
    },
}


@pytest.mark.parametrize("a, v", list(_PAIR_REPORTS))
def test_moving_lab_pair_reports_bit_for_bit(a, v):
    pinned = dict(_PAIR_REPORTS[(a, v)])
    agreement = pinned.pop("oracle_agreement")
    got = fk.moving_lab_expansion_pair(a, v).to_json_dict()
    finding = got.pop("finding")
    assert got == {"a": a, "v": v, **pinned, "published_coefficient": 2.0, "matches_published_coefficient": False}
    assert np.signbit(got["theta_Lprime_transport_chart"]) == np.signbit(pinned["theta_Lprime_transport_chart"])
    assert {k: x for k, x in finding.items() if k not in ("summary", "note")} == {
        "measured_ratio": pinned["ratio_to_av2"],
        "published_coefficient": 2.0,
        "divergence_oracle": pinned["theta_Lprime_divergence_oracle"],
        "decomposition_value": pinned["theta_Lprime"],
        "oracle_agreement": agreement,
    }


def test_pair_integrates_the_validity_tube_only(monkeypatch):
    import framekin.equivalence as eq

    paths = []
    real = eq.integrate_geodesics

    def spy(*args, **kwargs):
        got = real(*args, **kwargs)
        paths.extend(got)
        return got

    monkeypatch.setattr(eq, "integrate_geodesics", spy)
    fk.moving_lab_expansion_pair(1e-3, 0.2)
    # the comoving and the drifting geodesic, each 25 steps of 2e-3 either way from the epoch
    assert len(paths) == 2
    for path in paths:
        assert (path.s_min, path.s_max) == (-0.05, 0.05)
        assert path.stats["steps"] == 50 and len(path.s) == 51
