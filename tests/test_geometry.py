"""Connection, curvature and covariant-derivative checks.

Independent oracles: central finite differences for metric and connection
derivatives, and one computer-algebra value for the curvature scalar of the
expanding model (derived offline with sympy from the closed-form metric
under the package's sign convention; for the linear scale factor the scalar
is -6 a^2 / R^2, giving exactly -216/529 at a = 3/10, t = 1/2).
"""

import math
import re
import warnings

import numpy as np
import pytest

import framekin as fk
from framekin.geometry import ChartDomainError, MetricSignatureError, SingularMetricError, _invert, christoffel_jet
from framekin.hyperdual import DIM, first, jet, value

from conftest import random_points
from reference import covariant_derivative_field, fd_metric_derivatives, fd_riemann_from_connection

CAS_RICCI_SCALAR = -216.0 / 529.0  # a=0.3, t=0.5


def test_eval_metric_minkowski(minkowski):
    g = fk.eval_metric(minkowski, (0.3, 1.0, -2.0, 0.5))
    assert np.array_equal(g, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_eval_metric_friedmann_values():
    m = fk.make_friedmann(0.5)
    g = fk.eval_metric(m.metric, (1.0, 3.0, -2.0, 0.1))
    assert np.allclose(g, np.diag([1.0, -2.25, -2.25, -2.25]), atol=0, rtol=0)
    m2 = fk.make_friedmann(0.001)
    g2 = fk.eval_metric(m2.metric, (0.0, 5.0, 5.0, 5.0))
    assert np.array_equal(g2, np.diag([1.0, -1.0, -1.0, -1.0]))


def test_eval_metric_domain_error():
    m = fk.make_friedmann(0.5)
    with pytest.raises(ChartDomainError):
        fk.eval_metric(m.metric, (-2.5, 0.0, 0.0, 0.0))


def test_domain_refusal_runs_once_per_point_or_block():
    # a metric with a domain refuses outside points in its components: one call sees a point or a block
    model = fk.make_friedmann(0.5)
    calls = []

    def comps(c):
        calls.append([np.shape(value(x)) for x in c])
        fk.refuse_outside("cut", c, np.logical_not(c[0] > -1.0))
        return model.metric.component_fn(c)

    metric = fk.MetricField(comps, name="cut")
    fk.eval_metric(metric, (0.5, 0.1, 0.2, 0.3))
    assert calls == [[()] * 4]  # four floats
    calls.clear()
    block = np.zeros((20, 4))
    fk.christoffel(metric, block)
    assert calls == [[(20,)] * 4]  # four coordinate columns
    calls.clear()
    block[[7, 9], 0] = -1.5
    with pytest.raises(ChartDomainError, match=r"cut: point sample 7 \[-1.5, 0.0, 0.0, 0.0\] outside chart domain"):
        fk.eval_metric(metric, block)
    assert len(calls) == 1


def test_eval_metric_signature_error():
    # two positive directions is not Lorentzian
    def comps(c):
        return [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]

    bad = fk.MetricField(comps)
    with pytest.raises(MetricSignatureError):
        fk.eval_metric(bad, (0, 0, 0, 0))
    with pytest.raises(MetricSignatureError, match="sample 0"):
        fk.eval_metric(bad, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(MetricSignatureError):
        fk.riemann(bad, (0, 0, 0, 0))


def test_non_finite_components_name_the_metric_and_point():
    # at t = 1e306 the scale factor of friedmann(a=0.001) is 1e303, so R^2 overflows to inf
    m = fk.make_friedmann(1e-3)
    with pytest.raises(MetricSignatureError, match=r"friedmann\(a=0.001\): components not finite at \[1e\+306,") as err:
        fk.eval_metric(m.metric, (1e306, 0, 0, 0))
    assert "sample" not in str(err.value)
    with pytest.raises(MetricSignatureError, match="components not finite at sample 1 "):
        fk.eval_metric(m.metric, [(0, 0, 0, 0), (1e306, 0, 0, 0), (1e307, 0, 0, 0)])


def test_signature_check_of_components_near_the_largest_float():
    # finite and symmetric, but g + g^T overflows: the check halves before it adds
    big = np.diag([1.0, -1.5e308, -1.5e308, -1.5e308])
    metric = fk.MetricField(lambda c: big.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(fk.eval_metric(metric, (0, 0, 0, 0)), big)


def test_riemann_evaluates_the_metric_once(friedmann_a03):
    calls = []

    def counted(c):
        calls.append(1)
        return friedmann_a03.metric.component_fn(c)

    metric = fk.MetricField(counted, name="counted")
    curv = fk.riemann(metric, (0.5, 0.1, 0.2, 0.3))
    assert len(calls) == 1
    assert np.array_equal(curv.einstein, fk.riemann(friedmann_a03.metric, (0.5, 0.1, 0.2, 0.3)).einstein)


def test_block_metric_and_connection_equal_single_points(friedmann_a03, minkowski, rng):
    drifting = fk.make_friedmann(0.3, 0.2)
    z_metric = fk.pushed_metric_field(fk.z_chart(drifting), drifting.metric)  # all 16 components dual
    block = np.array(random_points(rng, 20))
    for metric in (friedmann_a03.metric, z_metric, minkowski):
        g = fk.eval_metric(metric, block)
        con = fk.christoffel(metric, block)
        assert g.shape == (20, 4, 4) and con.shape == (20, 4, 4, 4)
        for k, p in enumerate(block):
            assert np.array_equal(g[k], fk.eval_metric(metric, p))
            assert np.array_equal(con[k], fk.christoffel(metric, p))
    block[7, 0] = -10.0  # before the big bang of a = 0.3
    with pytest.raises(ChartDomainError, match="sample 7"):
        fk.christoffel(friedmann_a03.metric, block)
    with pytest.raises(ChartDomainError) as err:
        fk.christoffel(friedmann_a03.metric, block[7])
    assert "sample" not in str(err.value)


@pytest.mark.parametrize("model", [(0.3, 0.0), (1e-3, 0.1005), (0.05, 0.3)])
def test_block_connection_jet_equals_single_points(model, rng):
    metric = fk.make_friedmann(*model).metric
    block = np.array(random_points(rng, 9))
    gamma, dgamma = christoffel_jet(metric, block)
    assert gamma.shape == (9, 4, 4, 4) and dgamma.shape == (9, 4, 4, 4, 4)
    for k, p in enumerate(block):
        g1, dg1 = christoffel_jet(metric, p)
        assert np.array_equal(gamma[k], g1) and np.array_equal(dgamma[k], dg1)
    block[4, 0] = np.nan
    with pytest.raises(ChartDomainError, match="sample 4"):
        christoffel_jet(metric, block)


def test_singular_metric_error_names_its_sample():
    def comps(c):
        lapse = c[0]  # the metric degenerates at t = 0
        return [[lapse, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]

    metric = fk.MetricField(comps, name="degenerate")
    block = np.array([[1.0, 0, 0, 0], [0.5, 0, 0, 0], [0.0, 0, 0, 0]])
    for evaluate in (fk.christoffel, christoffel_jet):
        with pytest.raises(SingularMetricError, match="at sample 2"):
            evaluate(metric, block)
        with pytest.raises(SingularMetricError) as err:
            evaluate(metric, block[2])
        assert "sample" not in str(err.value)


def lapse_metric():
    """diag(t, -1 - x^2, -1, -1): singular at t = 0, cond = t at x = 0 for t >= 1, not finite once x^2 overflows."""

    def comps(c):
        return [[c[0], 0.0, 0.0, 0.0], [0.0, -1.0 - c[1] * c[1], 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]

    return fk.MetricField(comps, name="lapse")


@pytest.mark.parametrize(
    "t, x, refusal",
    [
        (0.0, 0.0, "metric numerically singular, cond=inf"),
        (0.99e13, 0.0, None),
        (1.01e13, 0.0, "metric numerically singular, cond=1.01e+13"),
        (1.0, 1e200, "singular metric, det="),
    ],
)
def test_connection_refuses_singular_and_non_finite_metrics(t, x, refusal):
    # the inversion refuses a non-finite metric, then one whose condition number exceeds 1e13,
    # alike at a point and in a block, where it names the sample
    metric = lapse_metric()
    point = np.array([t, x, 0.0, 0.0])
    block = np.array([[1.0, 0, 0, 0], [2.0, 0.5, 0, 0], point])
    for evaluate in (fk.christoffel, lambda m, p: christoffel_jet(m, p)[1]):
        with np.errstate(over="ignore"):  # x^2 overflows
            if refusal is None:
                assert np.isfinite(evaluate(metric, point)).all() and np.isfinite(evaluate(metric, block)).all()
                continue
            with pytest.raises(SingularMetricError, match="^lapse: " + re.escape(refusal)) as err:
                evaluate(metric, point)
            assert "sample" not in str(err.value)
            with pytest.raises(SingularMetricError, match="^lapse: " + re.escape(refusal) + ".* at sample 2$"):
                evaluate(metric, block)


def _invert_by_eigenvalues(g, name):
    """The inversion as it was before the norm bound: every metric's condition decided by eigvalsh."""
    where = "" if g.ndim == 2 else " at sample {}"
    bad = first(~np.logical_and.reduce(np.isfinite(g), axis=(-2, -1)))
    if bad is not None:
        message = f"{name}: singular metric, det={np.ravel(np.linalg.det(g))[bad]}" + where.format(bad)
        raise SingularMetricError(message)
    lam = np.abs(np.linalg.eigvalsh(g))
    lam.sort(axis=-1)
    bad = first(lam[..., 0] <= 1e-13 * lam[..., -1])
    if bad is not None:
        lo, hi = lam.reshape(-1, DIM)[bad, [0, -1]].tolist()
        message = f"{name}: metric numerically singular, cond={hi / lo if lo else math.inf:.2e}" + where.format(bad)
        raise SingularMetricError(message)
    return np.linalg.inv(g)


def _lorentzian(rng, magnitudes):
    """Symmetric Q diag(lambda) Q^T with |lambda| = magnitudes, one lambda positive and three negative, Q a
    random orthogonal matrix."""
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    lam = -np.asarray(magnitudes, dtype=float)
    lam[rng.integers(4)] *= -1
    g = (q * lam) @ q.T
    return 0.5 * (g + g.T)


def _decision_fixtures():
    """Metrics around the refusal line: cond_2 log-uniform over 1e11..1e15, nearly rank-1 ones whose
    |g|_F |g^-1|_F is cond_2 to a part in 1e12 (a third of them within 2% of 1e13, where the rounding of
    eigvalsh and inv decides), well-conditioned ones at extreme scales, exactly singular and non-finite ones."""
    rng = np.random.default_rng(16)
    mats = []
    for _ in range(400):
        cond, scale = 10 ** rng.uniform(11, 15), 10 ** rng.uniform(-3, 3)
        mats.append(scale * _lorentzian(rng, [1, 10 ** -rng.uniform(0, math.log10(cond)), 1 / cond, 1]))
    for k in range(600):  # sigma = (1, ~1e-6, ~1e-6, 1/cond): the Frobenius bound is tight
        cond = 10 ** rng.uniform(11.5, 13.5) if k < 400 else rng.uniform(0.98e13, 1.02e13)  # the last at the line
        mats.append(_lorentzian(rng, [1, *(10 ** rng.uniform(-6.5, -5.5, 2)), 1 / cond]))
    for scale in (1e150, 1e-150, 1e300, 1e-300, 1e200, 1e-200):
        mats += [scale * _lorentzian(rng, [1, 2, 3, 4]), scale * _lorentzian(rng, [1, 1, 1, 1e-14])]
    singular = np.diag([1.0, -1.0, -1.0, -1.0])
    singular[:2, :2] = 1.0
    mats.append(singular)
    for bad in (math.inf, -math.inf, math.nan):
        for k in ((0, 0), (1, 1), (0, 2)):
            g = np.diag([1.0, -1.0, -1.0, -1.0])
            g[k] = g[k[::-1]] = bad
            mats.append(g)
    return mats


def _outcome(invert, g):
    try:
        return invert(g, "m")
    except Exception as exc:  # the type and message, which names the sample, are compared
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        both = isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        return both and a.shape == b.shape and np.array_equal(a, b)
    return a == b


@pytest.mark.filterwarnings("ignore:invalid value encountered in det")  # a NaN metric's refusal; see below
def test_invert_decides_as_the_eigenvalues_do():
    # the norm bound only accepts early: every refusal, message, sample and inverse is the eigvalsh decision's
    mats = _decision_fixtures()
    outcomes = [_outcome(_invert_by_eigenvalues, g) for g in mats]
    assert 0.2 * len(mats) < sum(isinstance(o, tuple) for o in outcomes) < 0.8 * len(mats)  # both sides tested
    assert any(isinstance(o, tuple) and "cond=inf" in o[1] for o in outcomes)  # inv raised LinAlgError there
    assert sum(isinstance(o, tuple) and "det=" in o[1] for o in outcomes) == 9
    accepted = [(g, o) for g, o in zip(mats, outcomes) if isinstance(o, np.ndarray)]
    bounds = [float(np.vdot(g, g)) * float(np.vdot(o, o)) for g, o in accepted]
    assert min(bounds) < 1e24 <= max(b for b in bounds if math.isfinite(b))  # accepted by the bound and past it
    for g, expected in zip(mats, outcomes):
        assert _same(_outcome(_invert, g), expected), g
    order = np.random.default_rng(17).permutation(len(mats))
    for k in range(0, len(mats), 10):  # blocks of 10 (the last shorter), most holding a refused sample
        block = np.stack([mats[j] for j in order[k : k + 10]])
        assert _same(_outcome(_invert, block), _outcome(_invert_by_eigenvalues, block))
        for j in range(len(block)):  # the block up to sample j: each first refusal in turn
            assert _same(_outcome(_invert, block[: j + 1]), _outcome(_invert_by_eigenvalues, block[: j + 1]))


def test_invert_adds_no_numpy_warning():
    # the bound is taken where overflow, inf * 0 and NaN raise no floating-point warning: finite metrics at
    # extreme scales warn not at all, and a non-finite one only as its determinant in the refusal did before
    rng = np.random.default_rng(3)
    finite = [s * _lorentzian(rng, [1, 2, 3, 4]) for s in (1e150, 1e-150, 1e300, 1e-300)]
    finite += [s * np.diag([1.0, -1.0, -1.0, -1.0]) for s in (1e150, 1e-150, 1e300, 1e-300)]
    non_finite = [np.diag([bad, -1.0, -1.0, -1.0]) for bad in (math.inf, -math.inf, math.nan)]
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in finite + non_finite:
            for arg in (g, g[None], np.stack([eta, g]), np.stack([g, eta])):
                outcome = _outcome(_invert, arg)
                assert _same(outcome, _outcome(_invert_by_eigenvalues, arg))
                assert isinstance(outcome, np.ndarray) or outcome[0] is SingularMetricError or g is non_finite[2]


def test_inverse_metric_examples(minkowski):
    inv = fk.inverse_metric(minkowski, (0, 0, 0, 0))
    assert np.array_equal(inv, np.diag([1.0, -1.0, -1.0, -1.0]))
    m = fk.make_friedmann(0.5)
    inv = fk.inverse_metric(m.metric, (1.0, 0, 0, 0))
    assert np.allclose(inv, np.diag([1.0, -1 / 2.25, -1 / 2.25, -1 / 2.25]), atol=1e-15)


def test_inverse_metric_random_lorentzian(rng):
    # random symmetric Lorentzian matrix: product with the original is identity
    for _ in range(20):
        pert = rng.normal(scale=0.1, size=(4, 4))
        mat = np.diag([1.0, -1.0, -1.0, -1.0]) + 0.5 * (pert + pert.T)
        eig = np.linalg.eigvalsh(mat)
        if not (np.sum(eig > 0) == 1 and np.sum(eig < 0) == 3 and mat[0, 0] > 0):
            continue
        metric = fk.MetricField(lambda c, _m=mat: [[_m[i, j] for j in range(4)] for i in range(4)])
        inv = fk.inverse_metric(metric, (0, 0, 0, 0))
        assert np.max(np.abs(inv @ mat - np.eye(4))) < 1e-13


def test_christoffel_minkowski_zero(minkowski):
    gam = fk.christoffel(minkowski, (1.0, 2.0, 3.0, 4.0))
    assert np.count_nonzero(gam) == 0


def test_christoffel_friedmann_values():
    m = fk.make_friedmann(0.001)
    gam = fk.christoffel(m.metric, (0.0, 0.3, -0.7, 0.2))
    assert gam[0, 1, 1] == pytest.approx(0.001, abs=1e-15)
    assert gam[1, 0, 1] == pytest.approx(0.001, abs=1e-15)
    assert gam[1, 0, 0] == 0.0 and gam[2, 0, 0] == 0.0 and gam[3, 0, 0] == 0.0


def test_christoffel_symmetry_and_compatibility(friedmann_small, minkowski, rng):
    # metric compatibility reassembled from the exact jets at 100 points each
    for metric in (friedmann_small.metric, minkowski):
        for p in random_points(rng, 100):
            g, dg, _ = jet(metric.component_fn, p, order=2)
            gam = fk.christoffel(metric, p)
            assert np.max(np.abs(gam - np.einsum("mrn->mnr", gam))) == 0.0
            nabla_g = (
                dg
                - np.einsum("arm,an->rmn", gam, g)
                - np.einsum("arn,ma->rmn", gam, g)
            )
            assert np.max(np.abs(nabla_g)) < 1e-10


def test_exact_vs_finite_difference_metric_derivatives(friedmann_a03, rng):
    for p in random_points(rng, 10):
        _, dg, _ = jet(friedmann_a03.metric.component_fn, p, order=2)
        fd = fd_metric_derivatives(friedmann_a03.metric, p, step=1e-5)
        assert np.max(np.abs(dg - fd)) < 1e-6


def test_riemann_minkowski_zero(minkowski):
    curv = fk.riemann(minkowski, (0.0, 1.0, 2.0, 3.0))
    assert np.count_nonzero(curv.riemann) == 0
    assert curv.scalar == 0.0
    assert np.count_nonzero(curv.einstein) == 0


def test_riemann_against_fd_oracle(friedmann_a03):
    p = (0.4, 0.2, -0.1, 0.7)
    exact = fk.riemann(friedmann_a03.metric, p).riemann
    oracle = fd_riemann_from_connection(friedmann_a03.metric, p, step=1e-4)
    assert np.max(np.abs(exact - oracle)) < 1e-6


def test_riemann_antisymmetry_and_bianchi(friedmann_a03, rng):
    for p in random_points(rng, 10):
        rm = fk.riemann(friedmann_a03.metric, p).riemann
        assert np.max(np.abs(rm + np.einsum("abdc->abcd", rm))) < 1e-9
        cyclic = rm + np.einsum("acdb->abcd", rm) + np.einsum("adbc->abcd", rm)
        assert np.max(np.abs(cyclic)) < 1e-9


def test_ricci_scalar_cas_fixture():
    m = fk.make_friedmann(0.3)
    curv = fk.riemann(m.metric, (0.5, 1.3, -0.4, 0.9))
    assert curv.scalar == pytest.approx(CAS_RICCI_SCALAR, abs=1e-12)


def test_curvature_contractions(friedmann_a03, rng):
    for p in random_points(rng, 5):
        curv = fk.riemann(friedmann_a03.metric, p)
        ric, scalar, einstein = curv.ricci, curv.scalar, curv.einstein
        assert np.max(np.abs(ric - ric.T)) < 1e-10
        g = fk.eval_metric(friedmann_a03.metric, p)
        ginv = np.linalg.inv(g)
        assert abs(np.einsum("mn,mn->", ginv, ric) - scalar) < 1e-10
        assert np.array_equal(einstein, ric - 0.5 * scalar * g)
        offdiag = einstein - np.diag(np.diag(einstein))
        assert np.max(np.abs(offdiag)) < 1e-12


def test_covariant_derivative_field(minkowski, friedmann_small):
    inertial = fk.inertial_frame(minkowski)
    nabla = covariant_derivative_field(minkowski, inertial, (0, 0, 0, 0))
    assert np.count_nonzero(nabla) == 0

    m = friedmann_small
    p = (0.7, 0.1, 0.2, 0.3)
    nabla_v = covariant_derivative_field(m.metric, m.frame_comoving, p)
    r, rd = m.scale.value(p[0]), m.scale.rate(p[0])
    assert np.trace(nabla_v) == pytest.approx(3 * rd / r, abs=1e-14)
    # comoving lines are free falling: contraction with the frame vanishes
    q = np.array([1.0, 0, 0, 0])
    assert np.max(np.abs(nabla_v @ q)) < 1e-15


def test_z_chart_connection_zero_families(friedmann_small):
    # in the drift-adapted chart the time-time and mixed families vanish
    gz = fk.pushed_metric_field(fk.z_chart(friedmann_small), friedmann_small.metric)
    for q in ((0.5, 0.2, -0.3, 0.8), (2.0, -1.0, 0.4, 0.0)):
        gam = fk.christoffel(gz, q)
        for i in (1, 2, 3):
            assert abs(gam[i, 0, 0]) < 1e-12
        for l in range(4):
            assert abs(gam[0, 0, l]) < 1e-12
