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
"""

from __future__ import annotations

import enum
import logging
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DIM, MetricField, as_points, eval_metric, metric_jet, _gamma_from_jets
from .hyperdual import block_values, first, jet, seed, sqrt, value

log = logging.getLogger(__name__)

# Samples per block in classify_synchronizability and is_pirf: one jet call
# covers a block, and peak memory stays bounded however many samples.
_BLOCK = 4096


class FrameCausalityError(ValueError):
    """Frame components are not timelike future-pointing where evaluated."""


@dataclass
class FrameField:
    """A unit timelike vector field expressed in a chart.

    ``component_fn`` returns the normalized components; ``raw_fn`` is the
    user-supplied form before unit normalization.  ``was_rescaled`` records
    whether normalization changed anything at the construction samples.
    """

    component_fn: Callable
    label: str
    metric: MetricField
    raw_fn: Optional[Callable] = None
    was_rescaled: bool = False


def make_frame(components, metric: MetricField, label="Q", sample_points=None) -> FrameField:
    """Build a frame field, normalizing to unit length pointwise.

    Args:
        components: either a length-4 constant sequence or a dual-capable
            function coords -> 4 components.
        metric: metric used for normalization and causality checks.
        label: display name.
        sample_points: points used to decide the ``was_rescaled`` flag and to
            validate causality eagerly (defaults to the chart origin).

    Raises:
        FrameCausalityError: if the norm is not finite or the components are
            spacelike, null or past pointing at any sampled point (also raised
            lazily at evaluation).
    """
    if callable(components):
        raw_fn = components
    else:
        const = [float(c) for c in components]

        def raw_fn(coords, _c=const):
            return list(_c)

    def raw_norm2(coords):
        """(q, g(q, q)), raising at the first point where q is not timelike future pointing."""
        q = list(raw_fn(coords))
        g = metric.component_fn(coords)
        norm2 = sum(g[i][j] * q[i] * q[j] for i in range(DIM) for j in range(DIM))
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
        return q, norm2

    def normalized_fn(coords):
        q, norm2 = raw_norm2(coords)
        inv = 1.0 / sqrt(norm2)
        return [qi * inv for qi in q]

    samples = as_points([np.zeros(DIM)] if sample_points is None else list(sample_points))
    _, norm2 = raw_norm2(seed(samples, order=0))
    rescaled = first(np.abs(value(norm2) - 1.0) > 1e-10) is not None
    return FrameField(normalized_fn, label, metric, raw_fn, rescaled)


def coframe(metric: MetricField, frame: FrameField, p) -> np.ndarray:
    """Metric dual alpha_mu = g_{mu nu} Q^nu of a frame at a point."""
    p = as_points(p)
    g = eval_metric(metric, p)
    (q,) = jet(frame.component_fn, p, order=0)
    return g @ q


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


def _decompose(metric, frame, p):
    """(decomposition, (g, dg, q, dq)): ``kinematic_decompose`` and the metric and frame jets it used."""
    p = as_points(p)
    g, dg = metric_jet(metric, p, order=1)
    gamma = _gamma_from_jets(g, dg, metric.name)
    q, dq = jet(frame.component_fn, p)

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
    p = as_points(p)
    return _forms(*metric_jet(metric, p, order=1), *jet(frame.component_fn, p))


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
    blocks = _blocks(sample_points, "synchronizability", 2)
    dal = wed = spat = tdev = 0.0
    for block in blocks:
        alpha, two_form, wedge = curl_and_wedge(metric, frame, block)
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
    blocks = _blocks(sample_points, "pseudo-inertial test", 2)
    max_accel = max_wedge = 0.0
    for block in blocks:
        dec, jets = _decompose(metric, frame, block)
        _, _, wedge = _forms(*jets)
        max_accel = max(max_accel, float(np.max(np.abs(dec.accel))))
        max_wedge = max(max_wedge, float(np.max(np.abs(wedge))))
    ok = max_accel < tolerance and max_wedge < tolerance
    return PirfResult(ok, max_accel, max_wedge, tolerance, sum(map(len, blocks)))


def _blocks(sample_points, what, jets_per_block):
    """Sample points as (N, 4) blocks of at most _BLOCK rows, logged at DEBUG."""
    samples = np.asarray(list(sample_points), dtype=float)
    if len(samples) == 0:
        raise ValueError(f"{what} needs at least one sample point")
    blocks = [samples[k : k + _BLOCK] for k in range(0, len(samples), _BLOCK)]
    n = len(blocks)
    log.debug("%s: %d samples in %d blocks, %d jet evaluations", what, len(samples), n, jets_per_block * n)
    return blocks


def grid_samples(lo, hi, n=3):
    """An n^4 coordinate grid over a box, the default sampling pattern."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.linspace(lo[i], hi[i], n) for i in range(DIM)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, DIM)
    return [tuple(p) for p in pts]
