"""Unit timelike frame fields and their kinematic decomposition.

A reference frame is a unit timelike, future-pointing vector field; each of
its integral lines is an observer worldline.  The covariant derivative of
the frame's metric dual splits into acceleration, vorticity, shear and
expansion parts against the rest-space projector:

    Q_{mu;nu} = a_mu Q_nu + omega_{mu nu} + sigma_{mu nu} + (Theta/3) h_{mu nu}

with h = g - alpha (x) alpha.  Vorticity and shear are projected orthogonal
to the frame, shear is trace-free, and the five parts reassemble the full
covariant derivative exactly; the expansion rate Theta (units: inverse
time) is the covariant divergence Q^mu_{;mu}.

Building a frame evaluates nothing.  Causality is checked where the frame is
evaluated: the components must be finite, timelike and future pointing at
every point asked for, and the first point where they are not is named.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .geometry import DIM, MetricField, _gamma_from_jets
from .hyperdual import as_jet, block_values, first, seed, sqrt, value

log = logging.getLogger(__name__)

# Samples per block in classify_synchronizability and is_pirf: one jet call
# covers a block, and peak memory stays bounded however many samples.
_BLOCK = 4096
# Jet evaluations per block, as the DEBUG log counts them: the metric's and the frame's, in _jets.
_JETS_PER_BLOCK = 2


class FrameCausalityError(ValueError):
    """Frame components are not timelike future-pointing where evaluated."""


@dataclass
class FrameField:
    """A unit timelike vector field in a chart; ``component_fn(coords[, g])`` returns the components normalized against
    ``metric``, reading its components at coords from ``g`` when the caller already evaluated them."""

    component_fn: Callable
    label: str
    metric: MetricField


def make_frame(components, metric: MetricField, label="Q") -> FrameField:
    """Build a frame field, normalizing to unit length pointwise.  Nothing is evaluated here.

    Args:
        components: either a length-4 constant sequence or a dual-capable
            function coords -> 4 components.
        metric: metric used for normalization and causality checks.
        label: display name.

    The returned field's ``component_fn`` raises ``FrameCausalityError``,
    naming the first bad point, where the norm is not finite or the
    components are spacelike, null or past pointing.
    """
    if callable(components):
        raw_fn = components
    else:
        const = [float(c) for c in components]

        def raw_fn(coords, _c=const):
            return list(_c)

    def normalized_fn(coords, g=None):
        """q / g(q, q)^(1/2) skipping literal 0.0 components of g, raising at the first point where q is not timelike
        future pointing."""
        q = list(raw_fn(coords))
        g = metric.component_fn(coords) if g is None else g
        norm2 = sum(g[i][j] * q[i] * q[j] for i, j in np.ndindex(DIM, DIM) if not isinstance(g[i][j], float) or g[i][j])
        n2 = value(norm2)
        checks = (
            (first(~np.isfinite(n2)), "finite"),
            (first(n2 <= 0.0), "timelike"),
            (first(value(q[0]) <= 0.0), "future pointing"),
        )
        for bad, what in checks:
            if bad is not None:
                where = block_values(coords)[0][bad].tolist()
                raise FrameCausalityError(f"{label}: components not {what} at {where}")
        inv = 1.0 / sqrt(norm2)
        return [qi * inv for qi in q]

    return FrameField(normalized_fn, label, metric)


@dataclass
class KinematicDecomposition:
    """Acceleration, vorticity, shear, expansion and projector at a point (or batch-first, a block)."""

    theta: float
    accel: np.ndarray
    vorticity: np.ndarray
    shear: np.ndarray
    projection: np.ndarray
    point: np.ndarray
    frame_label: str

    def to_json_dict(self):
        return {
            "theta": self.theta,
            "accel": list(self.accel),
            "vorticity": list(self.vorticity.reshape(-1)),
            "shear": list(self.shear.reshape(-1)),
            "point": self.point.tolist(),
            "frame_label": self.frame_label,
        }


def kinematic_decompose(metric: MetricField, frame: FrameField, p) -> KinematicDecomposition:
    """Split the covariant derivative of a frame into its kinematic parts, at a point or a block."""
    return _decompose(metric, frame, p)[0]


def _jets(metric, frame, p, connection=False):
    """(p, g, dg, gamma, q, dq): order-1 metric and frame jets at a point or block, with the connection (refusing a
    singular metric before the frame is evaluated) or None; a frame normalized against metric reads its components."""
    p = metric.check_domain(p)
    coords = seed(p, 1)
    comps = metric.component_fn(coords)
    g, dg = as_jet(comps, 1, p.shape[:-1])
    gamma = _gamma_from_jets(g, dg, metric.name) if connection else None
    q, dq = as_jet(frame.component_fn(coords, *[comps] if frame.metric is metric else []), 1, p.shape[:-1])
    return p, g, dg, gamma, q, dq


def _decompose(metric, frame, p):
    """(decomposition, (g, dg, q, dq)): ``kinematic_decompose`` and the metric and frame jets it used."""
    p, g, dg, gamma, q, dq = _jets(metric, frame, p, connection=True)

    nabla = np.swapaxes(dq, -1, -2) + np.einsum("...mnr,...r->...mn", gamma, q)  # Q^mu_{;nu}
    nabla_lo = g @ nabla  # Q_{mu;nu}
    q_lo = (g @ q[..., None])[..., 0]
    theta = np.trace(nabla, axis1=-2, axis2=-1)
    accel = (nabla_lo @ q[..., None])[..., 0]
    h_lo = g - q_lo[..., :, None] * q_lo[..., None, :]
    hmix = np.eye(DIM) - q[..., :, None] * q_lo[..., None, :]  # h^a_m
    proj = np.einsum("...am,...bn,...ab->...mn", hmix, hmix, nabla_lo)
    vort = 0.5 * (proj - np.swapaxes(proj, -1, -2))
    shear = 0.5 * (proj + np.swapaxes(proj, -1, -2)) - (theta / 3.0)[..., None, None] * h_lo
    theta = float(theta) if theta.ndim == 0 else theta
    return KinematicDecomposition(theta, accel, vort, shear, h_lo, p, frame.label), (g, dg, q, dq)


def curl_and_wedge(metric: MetricField, frame: FrameField, p):
    """(alpha, d alpha, alpha ^ d alpha) at a point or, batch axis first, a block.

    The 2-form is d alpha_{mu nu} = d_mu alpha_nu - d_nu alpha_mu and the
    3-form components are the cyclic combination
    alpha_mu (d alpha)_{nu rho} - alpha_nu (d alpha)_{mu rho}
    + alpha_rho (d alpha)_{mu nu}.
    """
    _, g, dg, _, q, dq = _jets(metric, frame, p)
    return _forms(g, dg, q, dq)


def _forms(g, dg, q, dq):
    """``curl_and_wedge`` from the metric and frame jets: alpha = g q, d_s alpha = d_s g q + g d_s q."""
    a = np.einsum("...ij,...j->...i", g, q)
    dalpha = np.einsum("...sij,...j->...si", dg, q) + np.einsum("...ij,...sj->...si", g, dq)
    tf = dalpha - np.swapaxes(dalpha, -1, -2)  # [mu, nu] = d_mu alpha_nu - d_nu alpha_mu
    wedge = (
        a[..., :, None, None] * tf[..., None, :, :]
        - a[..., None, :, None] * tf[..., :, None, :]
        + a[..., None, None, :] * tf[..., :, :, None]
    )
    return a, tf, wedge


class SynchronizabilityClass(str, enum.Enum):
    PROPER_TIME = "ProperTimeSynchronizable"
    SYNCHRONIZABLE = "Synchronizable"
    LOCALLY_PROPER_TIME = "LocallyProperTimeSynchronizable"
    LOCALLY = "LocallySynchronizable"
    NON = "NonSynchronizable"


@dataclass
class SynchronizabilityResult:
    """Classification plus the raw norms it was decided on.

    The two strongest classes compare the coframe against the evaluation
    chart's own time differential, so they are chart-relative statements;
    the weaker classes are chart-free.  Callers can re-threshold using the
    reported norms.
    """

    classification: SynchronizabilityClass
    dalpha_max: float
    wedge_max: float
    alpha_spatial_max: float
    alpha_time_dev_max: float
    threshold: float
    n_samples: int

    def to_json_dict(self):
        return {**asdict(self), "classification": self.classification.value}


def classify_synchronizability(
    metric: MetricField, frame: FrameField, sample_points, threshold=1e-8
) -> SynchronizabilityResult:
    """Classify a frame by the exterior algebra of its coframe on samples.

    A form counts as zero when its largest component over the samples stays
    below ``threshold`` in chart units.  The classification never claims
    more than the sampled points support.
    """
    blocks = _blocks(sample_points, "synchronizability")
    dal = wed = spat = tdev = 0.0
    for block in blocks:
        alpha, two_form, wedge = curl_and_wedge(metric, frame, block)
        _refuse_non_finite(frame, block, "coframe or its derivatives", alpha, two_form, wedge)
        dal = max(dal, float(np.max(np.abs(two_form))))
        wed = max(wed, float(np.max(np.abs(wedge))))
        spat = max(spat, float(np.max(np.abs(alpha[:, 1:]))))
        tdev = max(tdev, float(np.max(np.abs(alpha[:, 0] - 1.0))))
    if wed > threshold:
        cls = SynchronizabilityClass.NON
    elif spat <= threshold and tdev <= threshold:
        cls = SynchronizabilityClass.PROPER_TIME
    elif dal <= threshold:
        cls = SynchronizabilityClass.LOCALLY_PROPER_TIME
    elif spat <= threshold:
        cls = SynchronizabilityClass.SYNCHRONIZABLE
    else:
        cls = SynchronizabilityClass.LOCALLY
    return SynchronizabilityResult(cls, dal, wed, spat, tdev, threshold, sum(map(len, blocks)))


@dataclass
class PirfResult:
    """Free-fall and rotation evidence for the pseudo-inertial test."""

    is_pirf: bool
    max_accel: float
    max_wedge: float
    tolerance: float
    n_samples: int

    def to_json_dict(self):
        return asdict(self)


def is_pirf(metric: MetricField, frame: FrameField, sample_points, tolerance=1e-8) -> PirfResult:
    """Frame in free fall with vanishing rotation on the sampled set.

    True iff the acceleration covector and the 3-form alpha ^ d alpha stay
    below ``tolerance`` (max-abs over components and samples).
    """
    blocks = _blocks(sample_points, "pseudo-inertial test")
    max_accel = max_wedge = 0.0
    for block in blocks:
        dec, jets = _decompose(metric, frame, block)
        _, _, wedge = _forms(*jets)
        _refuse_non_finite(frame, block, "acceleration or rotation", dec.accel, wedge)
        max_accel = max(max_accel, float(np.max(np.abs(dec.accel))))
        max_wedge = max(max_wedge, float(np.max(np.abs(wedge))))
    ok = max_accel < tolerance and max_wedge < tolerance
    return PirfResult(ok, max_accel, max_wedge, tolerance, sum(map(len, blocks)))


def _refuse_non_finite(frame, block, what, *evidence):
    """Raise ArithmeticError at the first sample of a block where some evidence is not finite: a
    running maximum would skip a NaN, so no verdict may rest on one."""
    bad = first(~np.logical_and.reduce([np.isfinite(e).reshape(len(block), -1).all(axis=1) for e in evidence]))
    if bad is not None:
        raise ArithmeticError(f"{frame.label}: {what} not finite at {block[bad].tolist()}")


def _blocks(sample_points, what):
    """(N, 4) blocks of at most _BLOCK rows from an (N, 4) array or a sequence of points, logged at DEBUG."""
    samples = np.asarray(sample_points, dtype=float)
    if len(samples) == 0:
        raise ValueError(f"{what} needs at least one sample point")
    blocks = [samples[k : k + _BLOCK] for k in range(0, len(samples), _BLOCK)]
    n = len(blocks)
    log.debug("%s: %d samples in %d blocks, %d jet evaluations", what, len(samples), n, _JETS_PER_BLOCK * n)
    return blocks


def grid_samples(lo, hi, n=3):
    """An n^4 coordinate grid over a box as an (n^4, 4) float array, the default sampling pattern."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(DIM)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, DIM)
