"""Chart maps: Jacobians, the pushed metric and the transformation laws it obeys."""

import numpy as np
import pytest

import framekin as fk
from framekin.geometry import ChartDomainError
from framekin.oracles import pushed_frame_field, transform_connection

from conftest import boosted_tetrad


def test_jacobian_inverse_consistency(friedmann_small, friedmann_a03):
    m = fk.make_friedmann(1e-2, 0.3)
    w = np.sqrt(1.0 + 0.3**2)
    tetrad = np.eye(4)
    tetrad[0], tetrad[1] = [w, 0.3, 0, 0], [0.3, w, 0, 0]
    path = fk.integrate_geodesic(
        m.metric, (0, 0, 0, 0), (w, 0.3, 0, 0), 0.05, fk.StepControl(step=2e-3), s_min=-0.05, tetrad=tetrad
    )
    p0 = np.array([0.5, 0.1, -0.2, 0.3])
    cases = [  # the three kinds of chart map: the drift chart, a point normal chart, a sliding lab chart
        (fk.z_chart(friedmann_small), [(0.0, 0, 0, 0), (1.5, 0.7, -0.2, 0.4)]),
        (
            fk.build_normal_chart(friedmann_a03.metric, p0, boosted_tetrad(friedmann_a03, 0.5)).chart_map,
            [tuple(p0), tuple(p0 + [0.02, -0.01, 0.03, 0.01])],
        ),
        (fk.lab_frame_along_geodesic(m.metric, path).chart.chart_map, [(0.0, 0, 0, 0), (0.01, 0.02, -0.01, 0.03)]),
    ]
    for cmap, points in cases:
        for p in points:
            lam = cmap.jacobian(p)
            lam_inv = cmap.inverse_jacobian(tuple(cmap.forward(p)))
            assert np.max(np.abs(lam @ lam_inv - np.eye(4))) < 1e-12, cmap.name
            roundtrip = cmap.inverse(tuple(cmap.forward(p)))
            assert np.max(np.abs(roundtrip - np.array(p))) < 1e-10, cmap.name


def test_connection_transformation_law(friedmann_small):
    # connection of the pushed metric equals the transformed coefficients
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    for p in ((0.4, 0.3, -0.1, 0.2), (1.2, -0.5, 0.0, 0.9)):
        direct = fk.christoffel(gz, tuple(cmap.forward(p)))
        transformed = transform_connection(cmap, m.metric, p)
        assert np.max(np.abs(direct - transformed)) < 1e-8


def test_scalar_invariance_of_expansion(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    for frame in (m.frame_comoving, m.frame_drifting):
        pushed = pushed_frame_field(cmap, frame, gz)
        for p in ((0.0, 0, 0, 0), (0.9, 0.4, 0.2, -0.3)):
            th = fk.kinematic_decompose(m.metric, frame, p).theta
            th_pushed = fk.kinematic_decompose(gz, pushed, tuple(cmap.forward(p))).theta
            assert abs(th - th_pushed) < 1e-8


def test_riemann_transforms_as_tensor(friedmann_a03):
    # curvature of the pushed metric equals the curvature carried by the (1, 3) law; exercises
    # second derivatives through the full chart map and, for the normal chart, through its
    # closed-form inverse Jacobian
    m = fk.make_friedmann(0.3, 0.4)
    p0 = np.array([0.5, 0.1, -0.2, 0.3])
    normal = fk.build_normal_chart(m.metric, p0, boosted_tetrad(m, 0.5)).chart_map
    cases = [
        (fk.z_chart(m), [(0.4, 0.2, -0.1, 0.3), (1.1, -0.6, 0.5, 0.0)]),
        (normal, [tuple(p0), tuple(p0 + [0.02, -0.01, 0.03, 0.01])]),
    ]
    for cmap, points in cases:
        gz = fk.pushed_metric_field(cmap, m.metric)
        for p in points:
            lam = cmap.jacobian(p)
            lam_inv = np.linalg.inv(lam)
            source = fk.riemann(m.metric, p).riemann
            pushed = np.einsum("ma,abcd,bi,cj,dk->mijk", lam, source, lam_inv, lam_inv, lam_inv)
            direct = fk.riemann(gz, tuple(cmap.forward(p))).riemann
            assert np.max(np.abs(pushed - direct)) < 1e-8, cmap.name


def test_ricci_scalar_chart_invariant(friedmann_a03):
    m = friedmann_a03
    cmap = fk.z_chart(fk.make_friedmann(0.3, 0.25))
    gz = fk.pushed_metric_field(cmap, fk.make_friedmann(0.3, 0.25).metric)
    for p in ((0.5, 0.1, 0.0, -0.2), (1.4, 0.8, 0.3, 0.6)):
        s1 = fk.riemann(fk.make_friedmann(0.3, 0.25).metric, p).scalar
        s2 = fk.riemann(gz, tuple(cmap.forward(p))).scalar
        assert abs(s1 - s2) < 1e-9


def test_connection_law_through_normal_chart(friedmann_a03):
    # the transformation law also holds through the polynomial normal map,
    # whose inverse carries exact second derivatives
    m = friedmann_a03
    p0 = (0.5, 0.1, -0.2, 0.3)
    r = m.scale.value(p0[0])
    chart = fk.build_normal_chart(m.metric, p0, np.diag([1.0, 1 / r, 1 / r, 1 / r]))
    pushed = chart.metric_in_chart(m.metric)
    probe = np.array(p0) + np.array([0.004, -0.002, 0.003, 0.001])
    direct = fk.christoffel(pushed, tuple(chart.forward(tuple(probe))))
    transformed = transform_connection(chart.chart_map, m.metric, tuple(probe))
    assert np.max(np.abs(direct - transformed)) < 1e-8


def test_pushed_domain_maps_a_block_back_in_one_call():
    model = fk.make_friedmann(0.5)
    calls = []

    def inverse_fn(c):  # a translation by 0.5 along x^0, counting its calls
        calls.append(1)
        return [c[0] - 0.5, c[1], c[2], c[3]]

    identity = np.eye(4).tolist()
    cmap = fk.ChartMap(lambda c: [c[0] + 0.5, c[1], c[2], c[3]], inverse_fn, "translation", lambda c: identity)
    pushed = fk.pushed_metric_field(cmap, model.metric)
    assert pushed.name == "friedmann(a=0.5)@translation"
    block = np.zeros((30, 4))
    pushed.check_domain(block)
    assert len(calls) == 1
    fk.eval_metric(pushed, block)
    assert len(calls) == 3  # once for the domain, once for the components
    block[4, 0] = -2.6  # x^0 - 0.5 = -3.1 lies before the big bang at -2
    with pytest.raises(ChartDomainError, match="point sample 4 ") as err:
        pushed.check_domain(block)
    assert err.value.sample == 4 and len(calls) == 4
