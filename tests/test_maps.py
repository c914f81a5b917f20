"""Pushforward algebra: transformation laws, functoriality, covariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framekin as fk
from framekin.maps import transform_connection
from framekin.geometry import ChartDomainError


def test_identity_map_leaves_components():
    cmap = fk.identity_map()
    t = np.arange(16.0).reshape(4, 4)
    out = fk.pushforward_tensor(cmap, t, (1, 1), (0.3, 1, 2, 3))
    assert np.array_equal(out, t)


def test_dilation_doubles_contravariant_components():
    cmap = fk.linear_map(2.0 * np.eye(4), name="dilation")
    vec = np.array([1.0, -2.0, 3.0, 0.5])
    out = fk.pushforward_tensor(cmap, vec, (1, 0), (0.1, 0.2, 0.3, 0.4))
    assert np.allclose(out, 2.0 * vec)
    cov = fk.pushforward_tensor(cmap, vec, (0, 1), (0.1, 0.2, 0.3, 0.4))
    assert np.allclose(cov, 0.5 * vec)


def test_boost_is_symmetry_of_flat_metric(minkowski):
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    cmap = fk.boost_map(0.6)
    pushed = fk.pushforward_tensor(cmap, eta, (0, 2), (0.2, -0.4, 1.0, 2.0))
    assert np.max(np.abs(pushed - eta)) < 1e-12

    def eta_field(coords):
        return eta

    samples = [(0.0, 0.0, 0.0, 0.0), (1.0, 2.0, -1.0, 0.5)]
    assert fk.is_symmetry(cmap, eta_field, (0, 2), samples)


def test_translation_is_symmetry_of_expanding_metric(friedmann_small):
    metric = friedmann_small.metric

    def g_field(coords):
        return fk.eval_metric(metric, tuple(coords))

    cmap = fk.translation_map((0.0, 0.7, -0.3, 0.2))
    samples = [(0.0, 0, 0, 0), (0.8, 0.5, 0.5, 0.5)]
    assert fk.is_symmetry(cmap, g_field, (0, 2), samples)


def test_boost_is_not_symmetry_of_expanding_metric(friedmann_small):
    metric = friedmann_small.metric

    def g_field(coords):
        return fk.eval_metric(metric, tuple(coords))

    cmap = fk.boost_map(0.3)
    samples = [(0.5, 0.2, 0.0, 0.0)]
    assert not fk.is_symmetry(cmap, g_field, (0, 2), samples)


def test_any_map_is_symmetry_of_zero_tensor():
    zero = np.zeros((4, 4, 4))

    def zero_field(coords):
        return zero

    cmap = fk.boost_map(0.9)
    assert fk.is_symmetry(cmap, zero_field, (1, 2), [(0, 0, 0, 0)])


def test_is_symmetry_empty_samples_error():
    with pytest.raises(ValueError):
        fk.is_symmetry(fk.identity_map(), lambda c: np.zeros(4), (1, 0), [])


@settings(max_examples=20, deadline=None)
@given(data=st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16))
def test_pushforward_functoriality(data):
    t = np.array(data).reshape(4, 4)
    inner = fk.boost_map(0.4)
    outer = fk.linear_map(np.diag([1.0, 2.0, 0.5, 1.5]), name="stretch")
    composed = outer.compose(inner)
    p = (0.3, -0.2, 0.9, 0.1)
    once = fk.pushforward_tensor(composed, t, (1, 1), p)
    mid = fk.pushforward_tensor(inner, t, (1, 1), p)
    twice = fk.pushforward_tensor(outer, mid, (1, 1), tuple(inner.forward(p)))
    assert np.max(np.abs(once - twice)) < 1e-9


def test_jacobian_inverse_consistency(friedmann_small):
    cmap = fk.z_chart(friedmann_small)
    for p in ((0.0, 0, 0, 0), (1.5, 0.7, -0.2, 0.4)):
        lam = cmap.jacobian(p)
        lam_inv = cmap.inverse_jacobian(tuple(cmap.forward(p)))
        assert np.max(np.abs(lam @ lam_inv - np.eye(4))) < 1e-12
        roundtrip = cmap.inverse(tuple(cmap.forward(p)))
        assert np.max(np.abs(roundtrip - np.array(p))) < 1e-10


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
        pushed = fk.pushed_frame_field(cmap, frame, gz)
        for p in ((0.0, 0, 0, 0), (0.9, 0.4, 0.2, -0.3)):
            th = fk.kinematic_decompose(m.metric, frame, p).theta
            th_pushed = fk.kinematic_decompose(gz, pushed, tuple(cmap.forward(p))).theta
            assert abs(th - th_pushed) < 1e-8


def test_pushforward_shape_mismatch():
    with pytest.raises(ValueError):
        fk.pushforward_tensor(fk.identity_map(), np.zeros((4, 3)), (1, 1), (0, 0, 0, 0))


def test_riemann_transforms_as_tensor(friedmann_a03):
    # curvature of the pushed metric equals the pushed curvature tensor;
    # exercises second derivatives through the full chart composition
    m = fk.make_friedmann(0.3, 0.4)
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    for p in ((0.4, 0.2, -0.1, 0.3), (1.1, -0.6, 0.5, 0.0)):
        source = fk.riemann(m.metric, p).riemann
        pushed = fk.pushforward_tensor(cmap, source, (1, 3), p)
        direct = fk.riemann(gz, tuple(cmap.forward(p))).riemann
        assert np.max(np.abs(pushed - direct)) < 1e-8


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
    cmap = fk.translation_map((0.5, 0.0, 0.0, 0.0))
    calls = []
    inverse_fn = cmap.inverse_fn
    cmap.inverse_fn = lambda c: calls.append(1) or inverse_fn(c)
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
