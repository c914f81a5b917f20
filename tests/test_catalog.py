"""Model catalog: scale factor, drift chart, quadrature, rotating fixture."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import framekin as fk
from framekin.hyperdual import jet

from reference import (
    adaptive_simpson,
    friedmann_connection_closed,
    invert_monotone,
    pushed_frame_field,
    theta_drifting_as_printed,
    theta_drifting_closed,
    z_chart_connection_closed,
    z_chart_metric_closed,
)


def test_make_friedmann_flat_limit():
    m = fk.make_friedmann(0.0, 0.0)
    g = fk.eval_metric(m.metric, (5.0, 1.0, 2.0, 3.0))
    assert np.array_equal(g, np.diag([1.0, -1.0, -1.0, -1.0]))
    dec = fk.kinematic_decompose(m.metric, m.frame_comoving, (0, 0, 0, 0))
    assert dec.theta == 0.0


def test_make_friedmann_drift_speed():
    m = fk.make_friedmann(1e-3, 0.1005)
    assert abs(m.v - 0.1) < 1e-4
    assert fk.drift_speed_to_momentum(m.v) == pytest.approx(0.1005, rel=1e-12)


def test_drift_speed_stable_for_huge_momentum():
    # the drifting frame overflows before v could: its first evaluation refuses it, naming the frame
    m = fk.make_friedmann(1e-3, 1e300)
    assert m.v == 1.0
    with pytest.raises(fk.FrameCausalityError, match=r"drifting: components not finite at \[0.0, 0.0, 0.0, 0.0\]"):
        fk.kinematic_decompose(m.metric, m.frame_drifting, (0, 0, 0, 0))
    for u in (0.0, 1e-8, 0.1005, 0.3, 0.5, 3.0):
        assert fk.make_friedmann(1e-3, u).v == u / np.sqrt(1.0 + u * u)


def test_make_friedmann_scale_values():
    m = fk.make_friedmann(0.5)
    assert fk.eval_metric(m.metric, (1.0, 0, 0, 0))[1, 1] == pytest.approx(-2.25, abs=1e-15)
    assert m.scale.value(0.0) == 1.0
    with pytest.raises(ValueError):
        fk.make_friedmann(-0.1)


def test_quadrature_against_closed_forms():
    assert adaptive_simpson(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)
    assert adaptive_simpson(np.cos, 0.0, 1.3) == pytest.approx(np.sin(1.3), abs=1e-13)


def test_invert_monotone():
    t = invert_monotone(lambda x: x**3 + x, lambda x: 3 * x * x + 1, 10.0, -1.0, 5.0)
    assert t**3 + t == pytest.approx(10.0, abs=1e-11)


def test_connection_closed_form_regression(rng):
    # christoffel against the closed families at 100 random points per value
    for a in (1e-4, 1e-3, 0.1):
        m = fk.make_friedmann(a, 0.2)
        for _ in range(100):
            p = (rng.uniform(0, 3), *rng.uniform(-2, 2, 3))
            gam = fk.christoffel(m.metric, p)
            assert np.max(np.abs(gam - friedmann_connection_closed(m.scale, p))) < 1e-10


def test_z_chart_identity_when_no_drift():
    m = fk.make_friedmann(1e-3, 0.0)
    cmap = fk.z_chart(m)
    p = (1.7, 0.3, -0.8, 0.2)
    assert np.max(np.abs(cmap.forward(p) - np.array(p))) < 1e-12


def test_z_chart_origin_fixed(friedmann_small):
    cmap = fk.z_chart(friedmann_small)
    assert np.max(np.abs(cmap.forward((0, 0, 0, 0)))) < 1e-14


def test_z_chart_time_integral_flat_closed_form():
    # with no expansion the time integral is t sqrt(1+u^2) exactly
    m = fk.make_friedmann(0.0, 0.35)
    cmap = fk.z_chart(m)
    u = 0.35
    for t in (0.3, 1.0, 7.5):
        image = cmap.forward((t, 0.0, 0, 0))
        assert abs(image[0] - t * np.sqrt(1 + u * u)) < 1e-12


def _quad_f_h(a, u, t):
    def r(s):
        return 1.0 + a * s

    big_f = adaptive_simpson(lambda s: np.sqrt(r(s) ** 2 + u * u) / r(s), 0.0, t)
    big_h = adaptive_simpson(lambda s: 1.0 / (r(s) * np.sqrt(r(s) ** 2 + u * u)), 0.0, t)
    return big_f, big_h


@pytest.mark.parametrize("a", [0.0, 1e-7, 1e-5, 1e-3, 0.3])
@pytest.mark.parametrize("u", [0.0, 0.1005, 0.5])
def test_z_chart_closed_form_against_quadrature(a, u):
    cmap = fk.z_chart(fk.make_friedmann(a, u))
    for t in (-0.5, 0.3, 1.0, 2.5):
        big_f, big_h = _quad_f_h(a, u, t)
        image = cmap.forward((t, 0.0, 0.0, 0.0))
        assert abs(image[0] - big_f) < 1e-12 and abs(image[1] + u * big_h) < 1e-12
    for q in ((-0.4, 0.3, 0.5, -1.0), (0.5, -2.0, 0.0, 0.0), (2.0, 1.5, 1.0, 1.0)):
        back = jet(lambda c: cmap.pullback_fn(c)[0], q, order=0)[0]
        assert np.max(np.abs(cmap.forward(back) - np.array(q))) < 1e-12
        if a < 1e-3:
            continue  # the quadrature bracket below needs the domain edge in view

        def big_g(t):
            big_f, big_h = _quad_f_h(a, u, t)
            return big_f - u * u * big_h

        def g_rate(t):
            return (1.0 + a * t) / np.sqrt((1.0 + a * t) ** 2 + u * u)

        t_ref = invert_monotone(big_g, g_rate, q[0] + u * q[1], -1.0, 10.0, tol=1e-13)
        assert abs(back[0] - t_ref) < 1e-12
        assert abs(back[1] - (q[1] + u * _quad_f_h(a, u, t_ref)[1])) < 1e-12


@pytest.mark.parametrize("u", [0.0, 0.1005, 0.5])
def test_z_chart_continuous_at_zero_expansion(u):
    # the charts differ by O(a t^2), so the points stay near the origin; a
    # cancelling form such as (W - W0)/a would miss by eps/a = 1e-4
    tiny, flat = fk.z_chart(fk.make_friedmann(1e-12, u)), fk.z_chart(fk.make_friedmann(0.0, u))
    for p in ((0.0, 0.0, 0.0, 0.0), (0.5, 0.3, -0.8, 0.2), (-0.5, 0.4, 0.0, 1.0)):
        assert np.max(np.abs(tiny.forward(p) - flat.forward(p))) < 1e-12
        back_tiny, back_flat = (jet(lambda c: cmap.pullback_fn(c)[0], p, order=0)[0] for cmap in (tiny, flat))
        assert np.max(np.abs(back_tiny - back_flat)) < 1e-12
        assert np.max(np.abs(jet(tiny.forward_fn, p)[1].T - jet(flat.forward_fn, p)[1].T)) < 1e-12


@pytest.mark.parametrize("a, u", [(1.0, 5e-324), (1e8, 5e-324), (1e8, -5e-324)])
def test_z_chart_takes_the_no_drift_form_for_a_subnormal_drift_product(a, u):
    # 1 / (a u) overflows for a subnormal a u, and inf times a zero gradient part was a NaN
    # in the x1 component of the inverse map; H = G/R is exact there, as at u = 0
    cmap, flat = fk.z_chart(fk.make_friedmann(a, u)), fk.z_chart(fk.make_friedmann(a, 0.0))
    p = np.array([0.0, 0.3, -0.2, 0.1])
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # an underflow is harmless
        back, back_flat = (lambda c: cmap.pullback_fn(c)[0]), (lambda c: flat.pullback_fn(c)[0])
        for fn, ref in ((cmap.forward_fn, flat.forward_fn), (back, back_flat)):
            got, want = jet(fn, p, order=2), jet(ref, p, order=2)
            assert all(np.isfinite(g).all() for g in got)
            assert all(np.max(np.abs(g - w)) < 1e-12 for g, w in zip(got, want))


def test_z_chart_domain_edge():
    # W0 + a z <= |u| has no preimage: R would vanish or turn imaginary;
    # here W0 = 1.0440..., so the edge sits at z = (|u| - W0)/a = -7.440...
    for u in (0.3, -0.3):
        cmap = fk.z_chart(fk.make_friedmann(0.1, u))
        with pytest.raises(fk.ChartDomainError):
            cmap.forward((-10.5, 0.0, 0.0, 0.0))
        for z in (-7.45, -8.0):
            with pytest.raises(fk.ChartDomainError):
                jet(lambda c: cmap.pullback_fn(c)[0], (z - u, 1.0, 0.0, 0.0), order=0)[0]
        assert np.all(np.isfinite(jet(lambda c: cmap.pullback_fn(c)[0], (-7.43 - u, 1.0, 0.0, 0.0), order=0)[0]))


def test_z_chart_metric_matches_printed_coefficient(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = (rng.uniform(0, 2), *rng.uniform(-1, 1, 3))
        got = fk.eval_metric(gz, q)
        want = z_chart_metric_closed(m, cmap, q)
        assert np.max(np.abs(got - want)) < 1e-8


def test_z_chart_connection_matches_derived_closed_forms(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = (rng.uniform(0, 2), *rng.uniform(-1, 1, 3))
        got = fk.christoffel(gz, q)
        want = z_chart_connection_closed(m, cmap, q)
        assert np.max(np.abs(got - want)) < 1e-8


def test_drifting_frame_is_time_axis_of_its_chart(friedmann_small):
    m = friedmann_small
    cmap = fk.z_chart(m)
    gz = fk.pushed_metric_field(cmap, m.metric)
    zf = pushed_frame_field(cmap, m.frame_drifting, gz)
    for q in ((0.0, 0, 0, 0), (1.1, 0.5, -0.7, 0.2)):
        comps = np.array([float(c) for c in zf.component_fn(list(q))])
        assert np.max(np.abs(comps - [1, 0, 0, 0])) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=10.0),
    x=st.floats(min_value=-10.0, max_value=10.0),
)
def test_z_chart_roundtrip_property(t, x):
    m = fk.make_friedmann(1e-3, 0.1005)
    cmap = fk.z_chart(m)
    p = (t, x, 2.0, -3.0)
    back = jet(lambda c: cmap.pullback_fn(c)[0], tuple(cmap.forward(p)), order=0)[0]
    assert np.max(np.abs(back - np.array(p))) < 1e-10


def test_theta_forms_disagree_at_second_order():
    # the as-printed expansion form is recorded but differs from the direct
    # computation at order v^2; the direct form is the oracle-backed one
    scale = fk.ScaleFactor(1e-3)
    direct = theta_drifting_closed(scale, 0.1005, 0.0)
    printed = theta_drifting_as_printed(scale, 0.1005, 0.0)
    assert direct != pytest.approx(printed, abs=1e-9)
    assert direct == pytest.approx(3e-3 + 0.5e-3 * 0.1**2, abs=1e-7)


def test_rotating_frame_construction_and_errors():
    rot = fk.rotating_minkowski_frame(0.1, 5.0)
    q = np.array([float(c) for c in rot.component_fn([0.0, 1.0, 0.0, 0.0])])
    gam = 1.0 / np.sqrt(1 - 0.01)
    assert np.allclose(q, [gam, 0.0, 0.1 * gam, 0.0], atol=1e-14)
    with pytest.raises(ValueError):
        fk.rotating_minkowski_frame(0.3, 5.0)  # light cylinder inside the cap
    rot0 = fk.rotating_minkowski_frame(0.0, 5.0)
    dec = fk.kinematic_decompose(rot0.metric, rot0, (0, 1, 0, 0))
    assert dec.theta == 0.0 and np.count_nonzero(dec.vorticity) == 0


def test_scale_factor_domain():
    m = fk.make_friedmann(0.1)
    with pytest.raises(fk.ChartDomainError):
        fk.eval_metric(m.metric, (-10.5, 0, 0, 0))
    # the domain is t > t_min = -2 exactly, at a point and in a block, for values and for jets
    metric = fk.make_friedmann(0.5).metric
    edge, inside = (-2.0, 0.0, 0.0, 0.0), (np.nextafter(-2.0, 0.0), 0.0, 0.0, 0.0)
    for evaluate in (fk.eval_metric, fk.christoffel):
        with pytest.raises(fk.ChartDomainError, match=r"^friedmann\(a=0.5\): point \[-2.0, 0.0, 0.0, 0.0\] outside"):
            evaluate(metric, edge)
        with pytest.raises(fk.ChartDomainError, match=r": point sample 1 \[-2.0, 0.0, 0.0, 0.0\] outside"):
            evaluate(metric, [inside, edge])
    for p in (inside, [inside, inside]):
        assert np.isfinite(fk.eval_metric(metric, p)).all()
        # the connection accepts the point and refuses its metric, where R^2 ~ 1e-32, as singular
        with pytest.raises(fk.SingularMetricError):
            fk.christoffel(metric, p)
    with pytest.raises(fk.ChartDomainError, match=r"point \[nan, 0.0, 0.0, 0.0\] outside"):  # a pull-back may give NaN
        metric.component_fn([math.nan, 0.0, 0.0, 0.0])
