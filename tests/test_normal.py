"""Normal-chart conditions and lab frames along geodesics."""

from types import SimpleNamespace

import numpy as np
import pytest

import framekin as fk
from framekin.geodesics import QuinticDense
from framekin.hyperdual import HyperDual, block_values, chain, jet, value
from framekin.normal import TubeDomainError

from conftest import boosted_tetrad, lab_chart, tube_pullback_fn
from reference import covariant_derivative_field

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def comoving_tetrad(model, t):
    r = model.scale.value(t)
    return np.diag([1.0, 1.0 / r, 1.0 / r, 1.0 / r])


def test_minkowski_chart_is_identity(minkowski):
    chart = fk.build_normal_chart(minkowski, (0.4, 1.0, -2.0, 0.3), np.eye(4)).chart_map
    p = np.array([0.4, 1.0, -2.0, 0.3])
    offs = np.array([0.01, -0.02, 0.005, 0.015])
    xi = chart.forward(tuple(p + offs))
    assert np.max(np.abs(xi - offs)) < 1e-14
    back = jet(lambda c: chart.pullback_fn(c)[0], tuple(xi), order=0)[0]
    assert np.max(np.abs(back - (p + offs))) < 1e-14


def test_base_point_conditions(friedmann_a03):
    m = friedmann_a03
    p0 = (0.5, 0.1, -0.2, 0.3)
    chart = fk.build_normal_chart(m.metric, p0, comoving_tetrad(m, 0.5))
    pushed = chart.metric_in_chart(m.metric)
    g0 = fk.eval_metric(pushed, (0, 0, 0, 0))
    assert np.max(np.abs(g0 - ETA)) < 1e-10
    gam0 = fk.christoffel(pushed, (0, 0, 0, 0))
    assert np.max(np.abs(gam0)) < 1e-8
    assert np.max(np.abs(chart.chart_map.forward(p0))) < 1e-14


def test_curvature_derivative_relation(friedmann_a03):
    m = friedmann_a03
    chart = fk.build_normal_chart(m.metric, (0.5, 0.1, -0.2, 0.3), comoving_tetrad(m, 0.5))
    dgamma = fk.christoffel_jet(chart.metric_in_chart(m.metric), (0, 0, 0, 0))[1]
    dev, expected = fk.normal_chart_curvature_check(chart, dgamma)
    assert np.max(np.abs(expected)) > 1e-3  # the relation is not vacuous here
    assert dev < 1e-6


@pytest.mark.parametrize("a", [1e-3, 0.3])
@pytest.mark.parametrize("p0", [(0.0, 0.0, 0.0, 0.0), (0.5, 0.1, -0.2, 0.3)])
def test_exact_connection_derivative_matches_the_richardson_stencil(a, p0):
    # the check reads d Gamma of the chart-expressed metric from its jet; the stencil is the reference
    from reference import fd_connection_derivatives

    m = fk.make_friedmann(a)
    chart = fk.build_normal_chart(m.metric, p0, comoving_tetrad(m, p0[0]))
    pushed = chart.metric_in_chart(m.metric)
    exact = fk.christoffel_jet(pushed, (0, 0, 0, 0))[1]
    stencil = fd_connection_derivatives(pushed, (0, 0, 0, 0), step=1e-3)
    assert np.max(np.abs(exact)) > 1e-7  # not vacuous
    assert np.max(np.abs(exact - stencil)) < 1e-11


def test_metric_deviation_quadratic_growth(friedmann_a03):
    m = friedmann_a03
    chart = fk.build_normal_chart(m.metric, (0.5, 0.0, 0.0, 0.0), comoving_tetrad(m, 0.5))
    exponent, ladder = fk.metric_deviation_exponent(chart, chart.metric_in_chart(m.metric))
    assert exponent >= 1.9
    assert all(d > 0 for _, d in ladder)


def test_roundtrip_second_order_inverse(friedmann_a03):
    m = friedmann_a03
    p0 = np.array([0.5, 0.1, -0.2, 0.3])
    chart = fk.build_normal_chart(m.metric, tuple(p0), comoving_tetrad(m, 0.5)).chart_map
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x = p0 + rng.uniform(-0.01, 0.01, 4)
        back = jet(lambda c: chart.pullback_fn(c)[0], tuple(chart.forward(tuple(x))), order=0)[0]
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-5  # Newton inversion makes the pair exact, well under the bound


def test_normal_chart_is_the_scalar_taylor_polynomial(friedmann_a03):
    # reference: x = x0 + y - Gamma(y, y) / 2 + C(y, y, y), y = xi^a e_a, as scalar arithmetic
    import framekin.normal as nm

    m = friedmann_a03
    x0 = np.array([0.5, 0.1, -0.2, 0.3])
    e = boosted_tetrad(m, 0.5)
    gamma, dgamma = nm.christoffel_jet(m.metric, x0)
    cubic = nm._cubic_coefficient(gamma, dgamma)
    r4 = range(4)

    def taylor(xi):
        y = [sum(e[a, mu] * xi[a] for a in r4) for mu in r4]
        quad = [sum(gamma[mu, n, r] * y[n] * y[r] for n in r4 for r in r4) for mu in r4]
        cube = [sum(cubic[mu, l, n, r] * y[l] * y[n] * y[r] for l in r4 for n in r4 for r in r4) for mu in r4]
        return [x0[mu] + y[mu] - 0.5 * quad[mu] + cube[mu] for mu in r4]

    def taylor_jacobian(xi):  # rows [mu][a] of d x^mu / d xi^a, differentiated by hand
        y = [sum(e[b, mu] * xi[b] for b in r4) for mu in r4]
        def entry(mu, a):
            lin = sum(gamma[mu, n, r] * e[a, n] * y[r] for n in r4 for r in r4)
            sq = sum(cubic[mu, l, n, r] * e[a, l] * y[n] * y[r] for l in r4 for n in r4 for r in r4)
            return e[a, mu] - lin + 3.0 * sq

        return [[entry(mu, a) for a in r4] for mu in r4]

    cmap = fk.build_normal_chart(m.metric, x0, e).chart_map
    block = np.random.default_rng(2).uniform(-0.04, 0.04, (5, 4))
    for fn, ref in ((lambda c: cmap.pullback_fn(c)[0], taylor), (lambda c: cmap.pullback_fn(c)[1], taylor_jacobian)):
        for got, want in zip(jet(fn, block, order=2), jet(ref, block, order=2)):
            assert np.max(np.abs(got - want)) < 1e-13


def test_normal_chart_block_equals_its_points(friedmann_a03):
    # the chart is array code over blocks: a block of chart points evaluates as its points do,
    # bit for bit, through the map and through its inverse Jacobian, at every jet order
    m = friedmann_a03
    block = np.random.default_rng(1).uniform(-0.04, 0.04, (7, 4))
    for tetrad in (comoving_tetrad(m, 0.5), boosted_tetrad(m, 0.5)):
        cmap = fk.build_normal_chart(m.metric, (0.5, 0.1, -0.2, 0.3), tetrad).chart_map
        for fn in (lambda c: cmap.pullback_fn(c)[0], lambda c: cmap.pullback_fn(c)[1]):
            for order in (0, 1, 2):
                batched = jet(fn, block, order)
                for k, xi in enumerate(block):
                    for arr_block, arr_point in zip(batched, jet(fn, xi, order)):
                        assert np.array_equal(arr_block[k], arr_point)


def test_normal_chart_forward_undoes_inverse_to_second_order(friedmann_a03):
    # the Newton inverse takes its derivatives from the inverse function theorem: composed with
    # the map it inverts, it gives the identity Jacobian and a zero Hessian
    m = friedmann_a03
    cmap = fk.build_normal_chart(m.metric, (0.5, 0.1, -0.2, 0.3), boosted_tetrad(m, 0.5)).chart_map
    block = np.random.default_rng(3).uniform(-0.04, 0.04, (5, 4))
    for xi in (block[0], block):
        value_, jac, hess = jet(lambda c: cmap.forward_fn(cmap.pullback_fn(c)[0]), xi, order=2)
        assert np.max(np.abs(value_ - xi)) < 1e-12
        assert np.max(np.abs(jac - np.eye(4))) < 1e-12
        assert np.max(np.abs(hess)) < 1e-12


def test_rejects_non_orthonormal_tetrad(friedmann_a03):
    with pytest.raises(ValueError):
        fk.build_normal_chart(friedmann_a03.metric, (0.5, 0, 0, 0), np.eye(4))


def test_rejects_a_tetrad_with_a_nan_axis():
    # a bad input, refused as one (ValueError), not as a numeric failure of the chart
    tetrad = np.eye(4)
    tetrad[1] = np.nan
    with pytest.raises(ValueError, match="tetrad not orthonormal"):
        fk.build_normal_chart(fk.minkowski_metric(), (0, 0, 0, 0), tetrad)


def test_cubic_term_overflow_is_refused_without_a_warning():
    # a boosted tetrad (gamma = 100) scales the cubic term by gamma^3: at a = 1e151 the term is finite
    # but six times it, the map's constant second Jacobian derivative, is not
    import warnings

    from framekin.normal import NonFiniteConnectionError

    m = fk.make_friedmann(1e151)
    gam = 100.0
    gv = gam * np.sqrt(1.0 - 1.0 / gam**2)
    tetrad = np.array([[gam, gv, 0, 0], [gv, gam, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteConnectionError, match="connection products overflow the cubic map term"):
            fk.build_normal_chart(m.metric, (0, 0, 0, 0), tetrad)


def test_chart_serialization(friedmann_a03):
    m = friedmann_a03
    chart = fk.build_normal_chart(m.metric, (0.5, 0, 0, 0), comoving_tetrad(m, 0.5))
    d = chart.to_json_dict()
    assert set(d) == {"base_point", "tetrad", "gamma_at_p0", "validity_radius"}
    assert len(d["gamma_at_p0"]) == 64


# -- lab frames along geodesics -------------------------------------------------


def build_comoving_lab(a, span=0.25, step=2e-3, radius=0.05):
    m = fk.make_friedmann(a)
    ctrl = fk.StepControl(step=step)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), span, ctrl, s_min=-span, tetrad=np.eye(4))
    lab = fk.lab_frame_along_geodesic(m.metric, path, validity_radius=radius)
    return m, lab, path


def test_flat_lab_frame_is_constant(minkowski):
    path = fk.integrate_geodesic(
        minkowski, (0, 0, 0, 0), (1, 0, 0, 0), 0.5, fk.StepControl(step=0.02), s_min=-0.5, tetrad=np.eye(4)
    )
    lab = fk.lab_frame_along_geodesic(minkowski, path, validity_radius=1.0)
    for p in ((0.0, 0, 0, 0), (0.2, 0.3, -0.1, 0.2)):
        q = [value(c) for c in lab.component_fn(list(p))]
        assert np.max(np.abs(np.array(q) - [1, 0, 0, 0])) < 1e-12
    dec = fk.kinematic_decompose(minkowski, lab, (0.1, 0.2, 0.1, -0.1))
    assert abs(dec.theta) < 1e-12


def test_lab_frame_matches_velocity_on_curve():
    m, lab, path = build_comoving_lab(1e-2)
    for t in (-0.2, 0.0, 0.1, 0.2):
        q = np.array([value(c) for c in lab.component_fn([t, 0, 0, 0])])
        v = np.array([value(c) for c in path.state(t, 1)[0]])
        assert np.max(np.abs(q - v)) < 1e-8


def test_lab_frame_chart_conditions_on_curve():
    m, _, path = build_comoving_lab(1e-2)
    pushed = fk.pushed_metric_field(lab_chart(m.metric, path), m.metric)
    for s in (0.0, 0.1, -0.15):
        g = fk.eval_metric(pushed, (s, 0, 0, 0))
        assert np.max(np.abs(g - ETA)) < 1e-8
        gam = fk.christoffel(pushed, (s, 0, 0, 0))
        assert np.max(np.abs(gam)) < 1e-8


def test_lab_frame_wedge_vanishes_on_curve():
    from framekin.frames import curl_and_wedge

    m, lab, _ = build_comoving_lab(1e-2)
    for t in (0.0, 0.1):
        _, _, wedge = curl_and_wedge(m.metric, lab, (t, 0, 0, 0))
        assert np.max(np.abs(wedge)) < 1e-8


def test_lab_expansion_zero_at_epoch():
    m, lab, path = build_comoving_lab(1e-3)
    assert abs(fk.kinematic_decompose(m.metric, lab, (0.0, 0, 0, 0)).theta) < 1e-8
    # the covariant divergence of the raw (unnormalized) lab field vanishes there too
    chart = lab_chart(m.metric, path)

    def raw(c):  # column 0 of the chart's inverse Jacobian
        return [row[0] for row in chart.pullback_fn(chart.forward_fn(c))[1]]

    raw_field = SimpleNamespace(component_fn=raw)
    assert abs(np.trace(covariant_derivative_field(m.metric, raw_field, (0.0, 0, 0, 0)))) < 1e-8
    # while the comoving congruence expands at the same event
    theta_v = fk.kinematic_decompose(m.metric, m.frame_comoving, (0.0, 0, 0, 0)).theta
    assert theta_v == pytest.approx(3e-3, abs=1e-12)


def test_lab_expansion_small_time_band():
    # on the curve the measured expansion stays within the small band spanned
    # by zero and the reference profile -3 t (Rdot/R)^2; over this range the
    # band is below 4e-7 and both comparisons are asserted
    a = 1e-3
    m, lab, _ = build_comoving_lab(a, span=0.3)
    for t in (0.02, 0.05, 0.1):
        theta = fk.kinematic_decompose(m.metric, lab, (t, 0, 0, 0)).theta
        printed = -3.0 * t * (a / (1 + a * t)) ** 2
        assert abs(theta) < 4e-7
        assert abs(theta - printed) < 4e-7


def test_lab_frame_free_fall_only_on_curve():
    m = fk.make_friedmann(0.5)
    ctrl = fk.StepControl(step=2e-3)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.3, ctrl, s_min=-0.3, tetrad=np.eye(4))
    lab = fk.lab_frame_along_geodesic(m.metric, path, validity_radius=1.0)
    on = fk.kinematic_decompose(m.metric, lab, (0.0, 0, 0, 0))
    assert np.max(np.abs(on.accel)) < 1e-8
    off = fk.kinematic_decompose(m.metric, lab, (0.0, 0.4, 0, 0))
    assert np.max(np.abs(off.accel)) > 10 * 1e-8


def test_validity_tube_enforced():
    m, lab, path = build_comoving_lab(1e-2, radius=0.05)
    with pytest.raises(TubeDomainError):
        fk.kinematic_decompose(m.metric, lab, (0.0, 0.2, 0, 0)).theta
    with pytest.raises(ValueError):
        fk.lab_frame_along_geodesic(m.metric, path, validity_radius=-1.0)
    # a path as long as the tube is wide, as the moving-lab pair integrates it:
    # a point on the curve beyond its end has a foot time outside the path
    m, lab, _ = build_comoving_lab(1e-2, span=0.05, radius=0.05)
    with pytest.raises(TubeDomainError, match="foot time"):
        fk.kinematic_decompose(m.metric, lab, (0.06, 0, 0, 0)).theta
    assert abs(fk.kinematic_decompose(m.metric, lab, (0.04, 0, 0, 0)).theta) < 1e-12


@pytest.mark.parametrize("radius", [0.0, float("nan")])
def test_lab_frame_refuses_a_radius_that_is_not_positive(radius):
    # under a NaN radius no slice radius would ever count as too wide: r > nan is false
    m, _, path = build_comoving_lab(1e-2)
    with pytest.raises(ValueError, match="^validity radius must be positive, got "):
        fk.lab_frame_along_geodesic(m.metric, path, validity_radius=radius)


def test_validity_tube_checks_each_sample_of_a_block():
    m, lab, _ = build_comoving_lab(1e-2, radius=0.05)
    # each row inside the tube, though the rows after the first span more than the radius together
    block = [[0, 0, 0, 0], [0.04, 0, 0, 0], [0.04, 0, 0, 0]]
    alone = [fk.kinematic_decompose(m.metric, lab, p).theta for p in block]
    assert np.array_equal(fk.kinematic_decompose(m.metric, lab, block).theta, alone)
    assert np.array_equal(fk.kinematic_decompose(m.metric, lab, block[:2]).theta, alone[:2])
    # the bad sample is named, and refused for its foot time, not for the slice radius
    with pytest.raises(TubeDomainError, match=r"^lab: foot time 0.3 outside path range at sample 1 \[0.3, 0.0, 0.0, 0.0\]$"):
        fk.kinematic_decompose(m.metric, lab, [[0, 0, 0, 0], [0.3, 0, 0, 0], [0, 0, 0, 0]]).theta


def test_lab_frame_needs_transported_tetrad():
    m = fk.make_friedmann(1e-2)
    path = fk.integrate_geodesic(m.metric, (0, 0, 0, 0), (1, 0, 0, 0), 0.1, fk.StepControl(step=0.01), s_min=-0.1)
    with pytest.raises(ValueError, match="no tetrad"):
        fk.lab_frame_along_geodesic(m.metric, path)


def test_tube_chart_evaluates_each_foot_point_once(monkeypatch):
    import framekin.normal as nm

    feet = []
    real = nm.christoffel_jet

    def counted(metric, x):
        feet.extend(map(tuple, np.reshape(x, (-1, 4))))  # the rows of a block call
        return real(metric, x)

    monkeypatch.setattr(nm, "christoffel_jet", counted)
    fk.moving_lab_expansion_pair(1e-3, 0.2)
    # two lab charts share only the epoch as a foot point: 9 evaluated points (77 without reuse)
    assert len(feet) == 9 and len(set(feet)) == 8


def test_tube_chart_jet_cache_is_bounded(monkeypatch):
    import framekin.normal as nm

    m, _, path = build_comoving_lab(1e-2)
    tube = nm._TubeChart(m.metric, path)
    tube._JET_CACHE_SIZE = 2
    feet = [(0.0, 0, 0, 0), (0.01, 0, 0, 0), (0.0, 0, 0, 0), (-0.0, 0, 0, 0), (0.0, 0, 0, 0)]
    calls = []
    real = nm.christoffel_jet
    monkeypatch.setattr(nm, "christoffel_jet", lambda metric, x: calls.append(tuple(x)) or real(metric, x))
    jets = [tube._connection_jet(list(x)) for x in feet]
    # a repeat is reused; -0.0 is a point of its own and evicts the oldest, 0.0, which is evaluated again
    assert [c[0] for c in calls] == [0.0, 0.01, 0.0, 0.0]
    assert [bool(np.signbit(c[0])) for c in calls] == [False, False, True, False]
    assert len(tube._jets) == 2
    for x, (gamma, dgamma) in zip(feet, jets):
        want = real(m.metric, x)
        assert np.array_equal(gamma, want[0]) and np.array_equal(dgamma, want[1])


# -- the sliding chart as array code -----------------------------------------------

# off-curve chart points inside the tube of the drifting lab below
OFF_CURVE = np.array(
    [[0.05, 0.02, -0.01, 0.03], [-0.11, 0.0, 0.04, -0.02], [0.12, -0.03, 0.0, 0.01], [0.0, 0.01, 0.02, 0.0]]
)


def drifting_tube(a=1e-2, u=0.3):
    import framekin.normal as nm

    m = fk.make_friedmann(a, u)
    w = np.sqrt(1.0 + u * u)
    tetrad = np.eye(4)
    tetrad[0], tetrad[1] = [w, u, 0, 0], [u, w, 0, 0]
    path = fk.integrate_geodesic(
        m.metric, (0, 0, 0, 0), (w, u, 0, 0), 0.25, fk.StepControl(step=2e-3), s_min=-0.25, tetrad=tetrad
    )
    return nm._TubeChart(m.metric, path)


def richardson(fn, xi, h=1e-4):
    """[b, ...] = d fn / d xi^b by central differences, Richardson refined."""
    out = []
    for b in range(4):
        axis = np.eye(4)[b]
        d1, d2 = ((fn(xi + k * axis) - fn(xi - k * axis)) / (2 * k) for k in (h, h / 2))
        out.append((4.0 * d2 - d1) / 3.0)
    return np.array(out)


def test_tube_chart_jacobian_is_the_jet_of_its_map():
    # the values-only map, which the Newton solve runs, against the pull-back's Jacobian
    tube = drifting_tube()
    pullback_fn = tube_pullback_fn(tube)

    def map_fn(xi):
        return chain(xi, *tube._map(block_values(xi)[0], rates=False))

    _, dx = jet(map_fn, OFF_CURVE)  # [n, a, mu]
    jac = np.array(pullback_fn(list(OFF_CURVE.T))[1])  # [mu, a, n]
    assert np.max(np.abs(np.moveaxis(jac, -1, 0) - np.swapaxes(dx, 1, 2))) < 1e-12
    for k, xi in enumerate(OFF_CURVE):
        point = np.array(pullback_fn(list(xi))[1])
        assert np.array_equal(point, jac[..., k])  # a block equals its points
        # the map's own Jacobian is exact: no term of it is held constant
        measured = richardson(lambda p: np.array(map_fn(list(p))), xi)
        assert np.max(np.abs(dx[k] - measured)) < 1e-10


def test_raw_lab_field_rate_matches_central_differences():
    tube = drifting_tube()

    def raw(xi):  # column 0 of the Jacobian: the raw lab field
        return [row[0] for row in tube_pullback_fn(tube)(xi)[1]]

    _, exact = jet(raw, OFF_CURVE)  # [n, b, mu]
    for k, xi in enumerate(OFF_CURVE):
        measured = richardson(lambda p: np.array(raw(list(p))), xi)
        assert np.max(np.abs(exact[k] - measured)) < 1e-8


def drifting_lab(monkeypatch, a=1e-2, u=0.3):
    """A drifting geodesic's lab chart, and its lab frame's raw (unnormalized) field caught on its way to make_frame."""
    import framekin.normal as nm

    raw = []
    real = nm.make_frame
    monkeypatch.setattr(nm, "make_frame", lambda fn, *args, **kw: raw.append(fn) or real(fn, *args, **kw))
    tube = drifting_tube(a, u)
    fk.lab_frame_along_geodesic(tube.metric, tube.path)
    return lab_chart(tube.metric, tube.path), raw[0]


def test_raw_lab_field_gradient_is_the_inverse_jacobian_column(monkeypatch):
    # one map evaluation at the solved chart point gives the field and, through J^-1, its rate
    chart, raw = drifting_lab(monkeypatch)

    def reference(c):  # column 0 of the inverse Jacobian at the dual chart point
        return [row[0] for row in chart.pullback_fn(chart.forward_fn(c))[1]]

    points = np.array([[0.0, 0.0, 0.0, 0.0], [0.05, 0.03, -0.01, 0.02], [-0.1, 0.0, 0.03, -0.02]])
    for p in (points[0], points):
        (got, dgot), (want, dwant) = jet(raw, p), jet(reference, p)
        assert np.array_equal(got, want)
        assert np.max(np.abs(dgot - dwant)) <= 1e-12 * np.max(np.abs(dwant))


def test_pair_work_counts(monkeypatch):
    # one Newton solve per query block of a lab field (each lab chart at the epoch, the comoving one also
    # on the oracle's stencil: the deformed frame at the epoch reuses theta_L's), which also gives the points
    # its tube check reads; 7 tube-chart map evaluations in all, on float arrays
    import framekin.normal as nm

    maps, solves = [], []
    real_map, real_newton = nm._TubeChart._map, nm.dual_newton_invert

    def spy_map(tube, xi, rates):
        maps.append(xi)
        return real_map(tube, xi, rates)

    monkeypatch.setattr(nm._TubeChart, "_map", spy_map)
    monkeypatch.setattr(nm, "dual_newton_invert", lambda *args: solves.append(args) or real_newton(*args))
    reads = []
    real_eval = QuinticDense.eval
    monkeypatch.setattr(QuinticDense, "eval", lambda dense, s, orders: reads.append(orders) or real_eval(dense, s, orders))
    fk.moving_lab_expansion_pair(1e-3, 0.2)
    assert (len(maps), len(solves)) == (7, 3)
    assert all(type(xi) is np.ndarray and xi.dtype == np.float64 and xi.ndim == 2 for xi in maps)
    assert len(reads) == len(maps)  # one dense-output read per map, at every derivative order it needs


def test_pair_computes_no_discarded_rates_and_solves_the_comoving_epoch_once(monkeypatch):
    # the oracle's stencil evaluates the lab field on floats, which carry no derivative: its map skips the
    # rates; the deformed frame at the image epoch, (0, 0, 0, 0) bit for bit, reuses theta_L's solve
    import framekin.normal as nm

    dual, rated, solved = [], [], []
    real_make, real_map, real_forward = nm.make_frame, nm._TubeChart._map, nm._TubeChart.forward_fn

    def make(fn, metric, label):
        def raw(coords):
            dual.append(any(isinstance(c, HyperDual) for c in coords))
            return fn(coords)

        return real_make(raw, metric, label=label)

    def spy_map(tube, xi, rates):
        if rates:
            rated.append(dual[-1])
        return real_map(tube, xi, rates)

    def spy_forward(tube, coords):
        solved.append((tube, np.column_stack(coords).tolist()))
        return real_forward(tube, coords)

    monkeypatch.setattr(nm, "make_frame", make)
    monkeypatch.setattr(nm._TubeChart, "_map", spy_map)
    monkeypatch.setattr(nm._TubeChart, "forward_fn", spy_forward)
    fk.moving_lab_expansion_pair(1e-3, 0.2)
    assert dual == [True, True, True, False]  # theta_L, the drifting lab, theta_Lprime, the oracle's stencil
    assert rated == [True, True]
    comoving = solved[0][0]
    assert [x for tube, x in solved if tube is comoving] == [[[0.0, 0.0, 0.0, 0.0]], solved[-1][1]]
    assert len(solved[-1][1]) == 16


def test_lab_field_keeps_a_bounded_number_of_solved_blocks(monkeypatch):
    import framekin.normal as nm

    monkeypatch.setattr(nm._TubeChart, "_JET_CACHE_SIZE", 2)
    solves = []
    real_forward = nm._TubeChart.forward_fn
    monkeypatch.setattr(nm._TubeChart, "forward_fn", lambda tube, c: solves.append(c[0]) or real_forward(tube, c))
    m, lab, _ = build_comoving_lab(1e-2)
    a, b, c, wide = [0.0, 0, 0, 0], [0.01, 0.02, 0, 0], [-0.01, 0, 0.03, 0], [0.0, 0.2, 0, 0]
    first = jet(lab.component_fn, a)
    for p in (a, b, a, c, a):
        got = jet(lab.component_fn, p)
        if p is a:
            assert all(np.array_equal(x, y) for x, y in zip(got, first))
    # a repeat is not solved again until c evicts it; a refused block is never kept
    assert solves == [0.0, 0.01, -0.01, 0.0]
    for _ in range(2):
        with pytest.raises(TubeDomainError, match="slice radius"):
            jet(lab.component_fn, wide)
    assert solves[4:] == [0.0, 0.0]
