"""Frame construction, kinematic decomposition and classification tests.

The independent expansion oracle is the scalar-density divergence computed
by finite differences (framekin.oracles.fd_divergence); it shares no code
path with the exact-derivative decomposition it checks.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framekin as fk
from framekin.frames import FrameCausalityError, SynchronizabilityClass, curl_and_wedge
from framekin.geometry import ChartDomainError, SingularMetricError
from framekin.hyperdual import jet
from framekin.oracles import fd_divergence

from conftest import random_points, survey_frames
from reference import covariant_derivative_field, pushed_frame_field, theta_comoving_closed, theta_drifting_closed


# -- construction -------------------------------------------------------------


def test_make_frame_comoving_no_rescale(friedmann_small):
    # the comoving components are unit as given: normalization leaves them exactly as they are
    for p in ((0.0, 0, 0, 0), (1.0, 2.0, -1.0, 0.5)):
        assert [float(c) for c in friedmann_small.frame_comoving.component_fn(list(p))] == [1.0, 0.0, 0.0, 0.0]


def test_make_frame_drifting_unit(friedmann_small):
    m = friedmann_small
    for p in ((0.0, 0, 0, 0), (1.0, 2.0, -1.0, 0.5)):
        g = fk.eval_metric(m.metric, p)
        q = np.array([float(c) for c in m.frame_drifting.component_fn(list(p))])
        assert abs(q @ g @ q - 1.0) < 1e-12
        # the catalog components are unit as given: normalization changes them only by rounding
        r, u = m.scale.value(p[0]), m.u
        assert np.max(np.abs(q / [np.sqrt(r * r + u * u) / r, u / (r * r), 1.0, 1.0] - [1, 1, 0, 0])) < 1e-14


def test_make_frame_rescales_and_flags(minkowski):
    f = fk.make_frame((2.0, 0.0, 0.0, 0.0), minkowski, label="double")
    q = [float(c) for c in f.component_fn([0, 0, 0, 0])]
    assert q == [1.0, 0.0, 0.0, 0.0]


def test_make_frame_rejects_spacelike(minkowski):
    # the refusal comes where the frame is evaluated, naming the frame and the point
    spacelike = fk.make_frame((0.5, 1.0, 0.0, 0.0), minkowski)
    with pytest.raises(FrameCausalityError, match=r"^Q: components not timelike at \[0.0, 0.0, 0.0, 0.0\]$"):
        spacelike.component_fn([0.0, 0.0, 0.0, 0.0])
    past = fk.make_frame((-1.0, 0.0, 0.0, 0.0), minkowski)
    with pytest.raises(FrameCausalityError, match=r"^Q: components not future pointing at \[0.0, 0.0, 0.0, 0.0\]$"):
        fk.kinematic_decompose(minkowski, past, (0.0, 0, 0, 0))


def test_building_a_frame_evaluates_nothing(monkeypatch):
    import framekin.catalog as catalog
    import framekin.frames as frames
    import framekin.geometry as geometry
    import framekin.maps as maps

    calls = []

    def counting(cls):  # the field class, counting each call of a field's components (and passing a frame's metric on)
        class Counting(cls):
            def __init__(self, component_fn, *args, **kwargs):
                super().__init__(lambda c, *g: calls.append(cls.__name__) or component_fn(c, *g), *args, **kwargs)

        return Counting

    for module in (geometry, maps, catalog, frames):  # every module that builds a metric or a frame field
        for cls in (fk.MetricField, fk.FrameField):
            if getattr(module, cls.__name__, None) is cls:
                monkeypatch.setattr(module, cls.__name__, counting(cls))
    m = fk.make_friedmann(1e-2, 0.3)
    fk.boosted_inertial_frame(0.4)
    fk.rotating_minkowski_frame(0.1, 1.0)
    assert calls == []
    ctrl = fk.StepControl(step=2e-3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.05, ctrl, s_min=-0.05, tetrad=np.eye(4))
    calls.clear()
    lab = fk.lab_frame_along_geodesic(m.metric, path)
    cmap = fk.z_chart(m)
    moved = fk.deformed_frame(lab, fk.pushed_metric_field(cmap, m.metric))
    assert calls == []
    # the fields are counted where they are evaluated
    fk.kinematic_decompose(m.metric, m.frame_drifting, (0.0, 0, 0, 0))
    assert "FrameField" in calls and "MetricField" in calls
    calls.clear()
    moved.component_fn([0.0, 0.0, 0.0, 0.0])
    assert calls.count("FrameField") == 2  # the deformed frame and the lab frame under it


def test_coframe_pairs_to_one(friedmann_small):
    p = (0.5, 0.1, 0.2, 0.3)
    q = np.array([float(c) for c in friedmann_small.frame_drifting.component_fn(list(p))])
    alpha = fk.eval_metric(friedmann_small.metric, p) @ q
    assert abs(alpha @ q - 1.0) < 1e-10


# -- decomposition ------------------------------------------------------------


def test_decompose_inertial_all_zero(minkowski):
    dec = fk.kinematic_decompose(minkowski, fk.inertial_frame(minkowski), (0.3, 1, 2, 3))
    assert dec.theta == 0.0
    assert np.count_nonzero(dec.accel) == 0
    assert np.count_nonzero(dec.vorticity) == 0
    assert np.count_nonzero(dec.shear) == 0


def test_decompose_comoving_matches_closed_form(friedmann_small):
    m = fk.make_friedmann(0.001)
    dec = fk.kinematic_decompose(m.metric, m.frame_comoving, (0.0, 0, 0, 0))
    assert dec.theta == pytest.approx(0.003, abs=1e-15)
    assert np.max(np.abs(dec.accel)) < 1e-15
    assert np.max(np.abs(dec.vorticity)) < 1e-15
    for t in (0.0, 0.5, 2.0):
        th = fk.kinematic_decompose(m.metric, m.frame_comoving, (t, 1, 2, 3)).theta
        assert th == pytest.approx(theta_comoving_closed(m.scale, t), abs=1e-12)


def test_decompose_drifting_matches_divergence_oracle(friedmann_small):
    m = friedmann_small
    for p in ((0.0, 0, 0, 0), (0.8, 0.5, -0.2, 0.1)):
        dec = fk.kinematic_decompose(m.metric, m.frame_drifting, p)
        oracle = fd_divergence(m.metric, m.frame_drifting, p)
        assert abs(dec.theta - oracle) < 1e-8
        closed = theta_drifting_closed(m.scale, m.u, p[0])
        assert dec.theta == pytest.approx(closed, rel=1e-12)


def _decomposition_invariants(metric, frame, p, tol=1e-10):
    dec = fk.kinematic_decompose(metric, frame, p)
    g = fk.eval_metric(metric, p)
    ginv = np.linalg.inv(g)
    q = np.array([float(c) for c in frame.component_fn(list(p))])
    q_lo = g @ q
    assert np.max(np.abs(dec.vorticity + dec.vorticity.T)) < tol
    assert np.max(np.abs(dec.shear - dec.shear.T)) < tol
    assert abs(np.einsum("mn,mn->", ginv, dec.shear)) < tol
    for arr in (dec.vorticity, dec.shear, dec.projection):
        assert np.max(np.abs(arr @ q)) < tol
    # reassembly reproduces the full covariant derivative
    nabla_lo = g @ covariant_derivative_field(metric, frame, p)
    rebuilt = (
        np.outer(dec.accel, q_lo)
        + dec.vorticity
        + dec.shear
        + dec.theta / 3.0 * dec.projection
    )
    assert np.max(np.abs(rebuilt - nabla_lo)) < tol
    return dec


def test_decomposition_completeness_50_random_points(friedmann_small, rng):
    m = friedmann_small
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    for p in random_points(rng, 50):
        _decomposition_invariants(m.metric, m.frame_comoving, p)
        _decomposition_invariants(m.metric, m.frame_drifting, p)
        _decomposition_invariants(rot.metric, rot, p)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=0.05),
    u=st.floats(min_value=-0.5, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=2.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
def test_decomposition_reassembly_property(a, u, t, x):
    m = fk.make_friedmann(a, u)
    _decomposition_invariants(m.metric, m.frame_drifting, (t, x, -x, 0.5 * x))


def test_rotating_frame_has_vorticity():
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    dec = fk.kinematic_decompose(rot.metric, rot, (0.0, 1.0, 0.0, 0.0))
    assert np.max(np.abs(dec.vorticity)) > 1e-3


def test_expansion_is_chart_invariant(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    zf = pushed_frame_field(cmap, m.frame_drifting, gz)
    for p in ((0.0, 0, 0, 0), (1.3, 0.4, -0.2, 0.6)):
        th = fk.kinematic_decompose(m.metric, m.frame_drifting, p).theta
        th_mapped = fk.kinematic_decompose(gz, zf, tuple(cmap.forward(p))).theta
        assert abs(th - th_mapped) < 1e-8


# -- rotation iff wedge (both directions) -------------------------------------


def test_wedge_iff_vorticity(friedmann_small, minkowski):
    m = friedmann_small
    cases = [
        (m.metric, m.frame_comoving),
        (m.metric, m.frame_drifting),
        (minkowski, fk.inertial_frame(minkowski)),
        (minkowski, fk.boosted_inertial_frame(0.4, minkowski)),
    ]
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    cases.append((rot.metric, rot))
    for metric, frame in cases:
        for p in ((0.0, 0.8, 0.3, -0.2), (0.5, 0.5, -0.5, 0.4)):
            _, _, wedge = curl_and_wedge(metric, frame, p)
            vort = fk.kinematic_decompose(metric, frame, p).vorticity
            small_wedge = np.max(np.abs(wedge)) <= 1e-10
            small_vort = np.max(np.abs(vort)) <= 1e-9
            assert small_wedge == small_vort


# -- synchronizability ---------------------------------------------------------


def test_coframe_from_jets_equals_the_jet_of_g_q():
    # the reference takes the jet of alpha_i = sum_j g_ij Q^j written in dual arithmetic
    samples = np.array(fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 5))
    for metric, frame in survey_frames():

        def alpha_fn(c):
            g, q = metric.component_fn(c), frame.component_fn(c)
            return [sum(g[i][j] * q[j] for j in range(4)) for i in range(4)]

        a, da = jet(alpha_fn, samples)
        alpha, two_form, _ = curl_and_wedge(metric, frame, samples)
        assert np.array_equal(alpha, a)
        assert np.array_equal(two_form, da - np.swapaxes(da, -1, -2))


def test_classify_comoving_proper_time(friedmann_small):
    m = friedmann_small
    res = fk.classify_synchronizability(
        m.metric, m.frame_comoving, fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5))
    )
    assert res.classification is SynchronizabilityClass.PROPER_TIME


def test_classify_drifting_in_adapted_chart(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    zf = pushed_frame_field(cmap, m.frame_drifting, gz)
    res = fk.classify_synchronizability(
        gz, zf, fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5))
    )
    assert res.classification is SynchronizabilityClass.PROPER_TIME


def test_classify_drifting_in_comoving_chart(friedmann_small):
    # closed coframe, but not the differential of this chart's time
    m = friedmann_small
    res = fk.classify_synchronizability(
        m.metric, m.frame_drifting, fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5))
    )
    assert res.classification is SynchronizabilityClass.LOCALLY_PROPER_TIME


def test_classify_lapse_frame_synchronizable():
    # static lapse: coframe is a positive multiple of the chart time form
    def comps(c):
        f = 1.0 + 0.1 * c[1] * c[1]
        return [[f, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]

    metric = fk.MetricField(comps, name="static-lapse")
    frame = fk.make_frame((1.0, 0.0, 0.0, 0.0), metric, label="static")
    res = fk.classify_synchronizability(
        metric, frame, fk.grid_samples((0, 0.1, -0.5, -0.5), (1, 0.9, 0.5, 0.5))
    )
    assert res.classification is SynchronizabilityClass.SYNCHRONIZABLE


def test_classify_rotating_non_synchronizable():
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    samples = [(0.0, 1.0, 0.5, 0.0), (0.2, 0.5, -1.0, 0.3), (0.0, 2.0, 0.0, 0.1)]
    res = fk.classify_synchronizability(rot.metric, rot, samples)
    assert res.classification is SynchronizabilityClass.NON
    assert res.wedge_max > 1e-3


def test_classify_empty_samples_error(friedmann_small):
    with pytest.raises(ValueError):
        fk.classify_synchronizability(friedmann_small.metric, friedmann_small.frame_comoving, [])


def test_grid_samples_is_the_float_array_the_blocks_read(friedmann_small):
    grid = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 3)
    assert type(grid) is np.ndarray and grid.dtype == np.float64 and grid.shape == (81, 4)
    assert grid[:2].tolist() == [[0.0, -0.5, -0.5, -0.5], [0.0, -0.5, -0.5, 0.0]]  # the last axis varies fastest
    assert grid[-1].tolist() == [1.0, 0.5, 0.5, 0.5]
    empty = fk.grid_samples((0, 0, 0, 0), (1, 1, 1, 1), 0)
    with pytest.raises(ValueError, match="^pseudo-inertial test needs at least one sample point$"):
        fk.is_pirf(friedmann_small.metric, friedmann_small.frame_comoving, empty)


# -- pseudo-inertial test -------------------------------------------------------


def test_is_pirf_comoving_and_drifting(friedmann_small):
    m = friedmann_small
    grid = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5))
    for frame in (m.frame_comoving, m.frame_drifting):
        res = fk.is_pirf(m.metric, frame, grid)
        assert res.is_pirf, (frame.label, res)


def test_is_pirf_rotating_fails():
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    samples = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.5, 0.0)]
    res = fk.is_pirf(rot.metric, rot, samples)
    assert not res.is_pirf
    assert res.max_wedge > 1e-3


def test_is_pirf_lab_frame_off_curve_fails():
    # only the base curve of a lab frame is in free fall; visible at strong
    # expansion (the linear scale factor suppresses the leading tidal term)
    m = fk.make_friedmann(0.5)
    ctrl = fk.StepControl(step=2e-3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.3, ctrl, s_min=-0.3, tetrad=np.eye(4))
    lab = fk.lab_frame_along_geodesic(m.metric, path, validity_radius=1.0)
    on_curve = fk.is_pirf(m.metric, lab, [(0.0, 0, 0, 0), (0.1, 0, 0, 0)])
    assert on_curve.is_pirf
    off = fk.is_pirf(m.metric, lab, [(0.0, 0.4, 0.0, 0.0)])
    assert not off.is_pirf
    assert off.max_accel > 1e-4


def test_serialization_shape(friedmann_small):
    dec = fk.kinematic_decompose(friedmann_small.metric, friedmann_small.frame_drifting, (0, 0, 0, 0))
    d = dec.to_json_dict()
    assert set(d) == {"theta", "accel", "vorticity", "shear", "point", "frame_label"}
    assert len(d["accel"]) == 4 and len(d["vorticity"]) == 16 and len(d["shear"]) == 16


# -- sample blocks against a per-point reference ---------------------------------


def _per_point_reference(metric, frame, samples):
    """The maxima classify_synchronizability and is_pirf report, one point at a time."""
    dal = wed = spat = tdev = acc = 0.0
    for sp in samples:
        alpha, two_form, wedge = curl_and_wedge(metric, frame, sp)
        loop_wedge = np.zeros((4, 4, 4))
        for m in range(4):
            for n in range(4):
                for r in range(4):
                    loop_wedge[m, n, r] = alpha[m] * two_form[n, r] - alpha[n] * two_form[m, r] + alpha[r] * two_form[m, n]
        assert np.array_equal(wedge, loop_wedge)
        dal = max(dal, float(np.max(np.abs(two_form))))
        wed = max(wed, float(np.max(np.abs(wedge))))
        spat = max(spat, float(np.max(np.abs(alpha[1:]))))
        tdev = max(tdev, float(abs(alpha[0] - 1.0)))
        acc = max(acc, float(np.max(np.abs(fk.kinematic_decompose(metric, frame, sp).accel))))
    return dal, wed, spat, tdev, acc


def _assert_block_results_match_reference(metric, frame, samples):
    dal, wed, spat, tdev, acc = _per_point_reference(metric, frame, samples)
    res = fk.classify_synchronizability(metric, frame, samples)
    assert (res.dalpha_max, res.wedge_max, res.alpha_spatial_max, res.alpha_time_dev_max) == (dal, wed, spat, tdev)
    assert res.n_samples == len(samples)
    pirf = fk.is_pirf(metric, frame, samples)
    assert (pirf.max_accel, pirf.max_wedge, pirf.n_samples) == (acc, wed, len(samples))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_block_classify_and_pirf_match_per_point_loop(n):
    samples = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), n)
    for metric, frame in survey_frames():
        _assert_block_results_match_reference(metric, frame, samples)


def test_partial_last_block_matches_per_point_loop(monkeypatch):
    import framekin.frames as frames

    monkeypatch.setattr(frames, "_BLOCK", 7)  # 81 samples: eleven full blocks and one of four
    samples = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 3)
    for metric, frame in survey_frames()[2:]:
        _assert_block_results_match_reference(metric, frame, samples)


def test_block_pushed_and_lab_frames_match_per_point_loop(friedmann_small):
    m = friedmann_small
    gz = fk.pushed_metric_field(fk.z_chart(m), m.metric)
    zf = pushed_frame_field(fk.z_chart(m), m.frame_drifting, gz)
    _assert_block_results_match_reference(gz, zf, fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 2))
    model = fk.make_friedmann(0.5)
    ctrl = fk.StepControl(step=2e-3)
    path = fk.integrate_geodesic(model.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.3, ctrl, s_min=-0.3, tetrad=np.eye(4))
    lab = fk.lab_frame_along_geodesic(model.metric, path, validity_radius=1.0)
    _assert_block_results_match_reference(model.metric, lab, [(0.0, 0, 0, 0), (0.1, 0.2, 0, 0), (0.0, 0.4, 0.0, 0.0)])


def test_block_failure_names_first_failing_sample():
    rot = fk.rotating_minkowski_frame(0.1, 1.0)
    grid = fk.grid_samples((0, -1.2, -0.5, 0), (1, 1.2, 0.5, 0), 3)  # x = -1.2 lies outside the cylinder
    with pytest.raises(ChartDomainError, match=r"sample 0 \[0.0, -1.2, -0.5, 0.0\]"):
        fk.is_pirf(rot.metric, rot, grid)
    with pytest.raises(ChartDomainError):
        fk.classify_synchronizability(rot.metric, rot, grid)
    with pytest.raises(ChartDomainError):
        fk.kinematic_decompose(rot.metric, rot, grid[0])

    flat = fk.minkowski_metric()
    tilted = fk.make_frame(lambda c: [1.0, c[1], 0.0, 0.0], flat, label="tilted")
    samples = [(0.0, 0.5, 0, 0), (0.0, 0.9, 0, 0), (0.0, 1.5, 0, 0), (0.0, 2.0, 0, 0)]
    for check in (fk.classify_synchronizability, fk.is_pirf):
        with pytest.raises(FrameCausalityError, match=r"not timelike at \[0.0, 1.5, 0.0, 0.0\]"):
            check(flat, tilted, samples)
    with pytest.raises(FrameCausalityError):
        fk.kinematic_decompose(flat, tilted, samples[2])

    def degenerate(c):  # g_11 vanishes at x = 0
        return [[1.0, 0.0, 0.0, 0.0], [0.0, -c[1] * c[1], 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]

    metric = fk.MetricField(degenerate, name="degenerate")
    frame = fk.make_frame((1.0, 0.0, 0.0, 0.0), metric, label="static")
    samples = [(0.0, 1.0, 0, 0), (0.0, 0.5, 0, 0), (0.0, 0.0, 0, 0), (0.0, 0.0, 1, 0)]
    with pytest.raises(SingularMetricError, match="at sample 2"):
        fk.is_pirf(metric, frame, samples)
    with pytest.raises(SingularMetricError):
        fk.kinematic_decompose(metric, frame, samples[2])


def test_debug_log_reports_samples_blocks_and_jets(monkeypatch, caplog):
    import framekin.frames as frames

    monkeypatch.setattr(frames, "_BLOCK", 50)
    m = fk.make_friedmann(1e-3, 0.1005)
    grid = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 3)
    with caplog.at_level(logging.DEBUG, logger="framekin.frames"):
        fk.classify_synchronizability(m.metric, m.frame_drifting, grid)
        fk.is_pirf(m.metric, m.frame_drifting, grid)
    lines = [r.getMessage() for r in caplog.records if r.name == "framekin.frames"]
    assert lines == [
        "synchronizability: 81 samples in 2 blocks, 4 jet evaluations",
        "pseudo-inertial test: 81 samples in 2 blocks, 4 jet evaluations",
    ]


def test_metric_evaluated_once_per_block(monkeypatch):
    import framekin.frames as frames

    monkeypatch.setattr(frames, "_BLOCK", 50)
    m = fk.make_friedmann(1e-3, 0.1005)
    grid = fk.grid_samples((0, -0.5, -0.5, -0.5), (1, 0.5, 0.5, 0.5), 3)  # 81 samples: two blocks
    expected = fk.is_pirf(m.metric, m.frame_drifting, grid), fk.classify_synchronizability(m.metric, m.frame_drifting, grid)
    calls = []
    component_fn = m.metric.component_fn
    m.metric.component_fn = lambda c: calls.append(1) or component_fn(c)
    assert fk.is_pirf(m.metric, m.frame_drifting, grid) == expected[0]
    assert len(calls) == 2  # one per block: the frame jet's normalization reads the metric jet's components
    calls.clear()
    assert fk.classify_synchronizability(m.metric, m.frame_drifting, grid) == expected[1]
    assert len(calls) == 2


def test_a_frame_normalized_against_another_metric_evaluates_its_own(monkeypatch):
    # the frame's normalization reads the decomposition's metric components only when its metric is that
    # same MetricField object; the rotating frame's light-cylinder metric is not plain minkowski
    rot = fk.rotating_minkowski_frame(0.1, 1.0)
    mink = fk.minkowski_metric()
    p = np.array([[0.0, 0.3, -0.2, 0.1], [0.5, -0.1, 0.4, 0.0]])
    calls = []
    for metric in (rot.metric, mink):
        monkeypatch.setattr(metric, "component_fn", lambda c, fn=metric.component_fn, n=metric.name: calls.append(n) or fn(c))
    own, plain = rot.metric.name, mink.name
    runs = (
        lambda metric: fk.kinematic_decompose(metric, rot, p).accel,
        lambda metric: curl_and_wedge(metric, rot, p)[2],
        lambda metric: fd_divergence(metric, rot, p[0]),
    )
    for run in runs:
        calls.clear()
        shared = run(rot.metric)
        assert calls == [own]
        calls.clear()
        assert np.array_equal(run(mink), shared)  # the two metrics have the same components
        assert calls == [plain, own]


def test_a_frame_keeps_its_own_metrics_domain_against_another_metric():
    # the rotating frame normalizes against its light-cylinder metric, whose components refuse radius 2
    # even when the decomposition's metric, plain minkowski, has no domain
    rot = fk.rotating_minkowski_frame(0.1, 1.0)
    refusal = r"^minkowski\(rotating-domain\): point {}\[0.0, 2.0, 0.0, 0.0\] outside chart domain$"
    with pytest.raises(ChartDomainError, match=refusal.format("")):
        fk.kinematic_decompose(fk.minkowski_metric(), rot, (0.0, 2.0, 0.0, 0.0))
    with pytest.raises(ChartDomainError, match=refusal.format("sample 1 ")):
        fk.kinematic_decompose(fk.minkowski_metric(), rot, [(0.0, 0.5, 0.0, 0.0), (0.0, 2.0, 0.0, 0.0)])
