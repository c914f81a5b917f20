"""Frame deformation and physical-equivalence verdicts.

Two frames are compared through the kinematic invariants of their covariant
derivative (acceleration, vorticity, shear, expansion), which makes the
verdict chart-independent.

``deformed_frame`` implements the deformation of a frame by a chart
correspondence: the deformed field has, in the image chart, the same
component functions of the image coordinates that the original field has of
the source coordinates.  When the correspondence is not an isometry the
deformed frame is a genuinely different physical congruence, and comparing
it with the original is what decides whether two chart-adapted experimental
setups are distinguishable.

``moving_lab_expansion_pair`` runs that comparison end to end for the
expanding model: the inertial lab frame carried by a comoving geodesic has
zero expansion at the epoch point, while the same lab recipe transplanted
into the chart adapted to a drifting geodesic picks up an expansion

    theta' = a ((3 - v^2) / sqrt(1 - v^2) - 3) = (a v^2 / 2) (1 + O(v^2))

at the same point: nonzero, quadratic in the relative speed and linear in
the expansion parameter.  The strict sliding-chart construction along the
drifting geodesic is also evaluated and reported; it gives zero at the
point by construction, which is why the deformation route is the one that
carries the discriminating signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import drift_speed_to_momentum, make_friedmann, z_chart
from .frames import FrameField, kinematic_decompose, make_frame
from .geodesics import StepControl, integrate_geodesic
from .geometry import DIM, MetricField, SingularMetricError, as_points, inverse_metric
from .maps import pushed_metric_field
from .normal import lab_frame_along_geodesic
from .oracles import fd_divergence

PUBLISHED_COEFFICIENT = 2.0
# The pair's geodesics take one RK4 step of LAB_STEP each way from the epoch;
# LAB_TUBE_RADIUS is the slice radius of its lab charts' validity tube.
LAB_STEP = 2e-3
LAB_TUBE_RADIUS = 0.05


def _invariant_magnitudes(metric, dec, p):
    """Chart-independent scalars of a decomposition.

    Magnitudes are the frame's own contractions: |a| = sqrt(|a_mu a^mu|)
    and likewise for the vorticity and shear tensors, so frames living in
    different charts compare meaningfully.
    """
    ginv = inverse_metric(metric, p)
    acc2 = abs(float(np.einsum("m,n,mn->", dec.accel, dec.accel, ginv)))
    vort2 = abs(float(np.einsum("mn,ma,nb,ab->", dec.vorticity, ginv, ginv, dec.vorticity)))
    shear2 = abs(float(np.einsum("mn,ma,nb,ab->", dec.shear, ginv, ginv, dec.shear)))
    return {
        "expansion": dec.theta,
        "acceleration": np.sqrt(acc2),
        "vorticity": np.sqrt(vort2),
        "shear": np.sqrt(shear2),
    }


@dataclass
class EquivalenceVerdict:
    """Outcome of the kinematic-invariant comparison of two frames."""

    verdict: str  # "Equivalent" | "NotEquivalent"
    tolerance: float
    deltas: dict
    dominant_discriminant: str
    evidence: dict

    def to_json_dict(self):
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "deltas": self.deltas,
            "dominant_discriminant": self.dominant_discriminant,
            "evidence": self.evidence,
        }


def equivalence_verdict(
    metric_a: MetricField,
    frame_a: FrameField,
    frame_b: FrameField,
    p,
    tolerance=1e-7,
    metric_b: Optional[MetricField] = None,
    p_b=None,
) -> EquivalenceVerdict:
    """Compare two frames at a point by their kinematic invariants.

    The frames may live in different charts (supply ``metric_b``/``p_b``
    for the second); invariant-level comparison is what makes that
    meaningful.
    """
    metric_b = metric_b or metric_a
    p = as_points(p)
    pb = as_points(p_b) if p_b is not None else p
    da = kinematic_decompose(metric_a, frame_a, p)
    db = kinematic_decompose(metric_b, frame_b, pb)
    mag_a = _invariant_magnitudes(metric_a, da, p)
    mag_b = _invariant_magnitudes(metric_b, db, pb)
    deltas = {key: abs(mag_a[key] - mag_b[key]) for key in mag_a}
    bad = next((k for k, d in deltas.items() if not np.isfinite(d)), None)
    if bad is not None:  # a NaN would read NotEquivalent and could be named the dominant discriminant
        raise ArithmeticError(f"{frame_a.label} vs {frame_b.label} at {p.tolist()}: {bad} delta {deltas[bad]}")
    dominant = max(deltas, key=lambda k: deltas[k])
    verdict = "Equivalent" if all(d <= tolerance for d in deltas.values()) else "NotEquivalent"
    return EquivalenceVerdict(
        verdict,
        tolerance,
        deltas,
        dominant,
        {
            "frame_a": da.to_json_dict(),
            "frame_b": db.to_json_dict(),
        },
    )


def deformed_frame(frame: FrameField, metric_image: MetricField) -> FrameField:
    """The image-chart frame with the source frame's functional form.

    Components in the image chart are the source components evaluated at
    the same numeric coordinates, then unit-normalized against the image
    metric.  This is the deformation induced by identifying the two
    adapted charts; it agrees with the source frame at fixed points of
    the identification.
    """
    return make_frame(frame.component_fn, metric_image, label=f"{frame.label}-deformed")


@dataclass
class MovingLabReport:
    """Expansion comparison of the two lab constructions at the epoch point."""

    a: float
    v: float
    u: float
    theta_lab: float
    theta_lab_moving: float
    theta_lab_moving_transport_chart: float
    theta_lab_moving_divergence_oracle: float
    ratio_to_av2: float
    published_coefficient: float
    matches_published_coefficient: bool
    finding: Optional[dict]
    theta_comoving: float
    theta_drifting: float

    def to_json_dict(self):
        out = {
            "a": self.a,
            "v": self.v,
            "u": self.u,
            "theta_L": self.theta_lab,
            "theta_Lprime": self.theta_lab_moving,
            "theta_Lprime_transport_chart": self.theta_lab_moving_transport_chart,
            "theta_Lprime_divergence_oracle": self.theta_lab_moving_divergence_oracle,
            "ratio_to_av2": self.ratio_to_av2,
            "published_coefficient": self.published_coefficient,
            "matches_published_coefficient": self.matches_published_coefficient,
            "theta_comoving": self.theta_comoving,
            "theta_drifting": self.theta_drifting,
        }
        if self.finding is not None:
            out["finding"] = self.finding
        return out


def moving_lab_expansion_pair(a_param, v_param) -> MovingLabReport:
    """Expansion rates of the resting and moving lab frames at the epoch.

    Pipeline: build the expanding model with drift momentum matching the
    requested metric speed, integrate the comoving and drifting geodesics
    through the epoch point by one RK4 step of ``LAB_STEP`` each way, build
    the inertial lab frame of the comoving geodesic, and evaluate

    * ``theta_L``: its expansion at the epoch point (zero up to numerics);
    * ``theta_Lprime``: the expansion of its deformation into the
      drift-adapted chart, evaluated against the chart-expressed metric at
      the same event, cross-checked by the independent scalar-density
      divergence oracle;
    * the strict sliding-chart value along the drifting geodesic, which is
      zero at the point by construction and reported for transparency.

    The drifting lab chart is evaluated at the epoch only, where the
    sliding chart, a second-order construction, reads only the epoch knot
    and its first two s-derivatives.  The comoving one is evaluated there
    and on the divergence oracle's stencil, at foot times from -``LAB_STEP``
    to ``LAB_STEP``: the ends of its path.  Each lab frame checks its tube
    where it is evaluated, so a stencil reaching past a path's ends raises
    ``TubeDomainError``.

    The ratio theta_Lprime / (a v^2) is recorded and compared against the
    published coefficient 2; a reproducible mismatch is attached as a
    finding rather than silently adopted.  A geodesic cut short by a
    numerically singular metric raises that ``SingularMetricError``.
    """
    if a_param < 0:
        raise ValueError("need a >= 0")
    u = drift_speed_to_momentum(v_param)
    model = make_friedmann(a_param, u)
    epoch = (0.0, 0.0, 0.0, 0.0)

    w = np.sqrt(1.0 + u * u)
    boost = np.eye(DIM)  # the drifting observer's tetrad: e_0 its velocity, e_1 along the drift
    boost[:2, :2] = [[w, u], [u, w]]
    control = StepControl(step=LAB_STEP)
    paths = []
    for tetrad in (np.eye(DIM), boost):
        path = integrate_geodesic(model.metric, epoch, tetrad[0], LAB_STEP, control, s_min=-LAB_STEP, tetrad=tetrad)
        if isinstance(path.error, SingularMetricError):  # a numeric failure, not a configuration error
            raise path.error
        paths.append(path)
    path_rest, path_move = paths
    lab_rest = lab_frame_along_geodesic(model.metric, path_rest, validity_radius=LAB_TUBE_RADIUS, label="lab")
    theta_lab = kinematic_decompose(model.metric, lab_rest, epoch).theta
    lab_move = lab_frame_along_geodesic(model.metric, path_move, validity_radius=LAB_TUBE_RADIUS, label="lab-moving")
    theta_move_chart = kinematic_decompose(model.metric, lab_move, epoch).theta

    cmap = z_chart(model)
    metric_image = pushed_metric_field(cmap, model.metric, name="friedmann-drift-chart")
    moving = deformed_frame(lab_rest, metric_image)
    epoch_image = cmap.forward(epoch)
    theta_moving = kinematic_decompose(metric_image, moving, tuple(epoch_image)).theta
    # The oracle's stencil reaches t' = +-step about the epoch, where the deformed frame reads the
    # comoving lab chart at foot times +-step: with step LAB_STEP, the ends of its path.  The lab
    # frame refuses a longer step with TubeDomainError rather than read its dense output past them.
    theta_oracle = fd_divergence(metric_image, moving, tuple(epoch_image), step=LAB_STEP)

    if not (np.isfinite(theta_moving) and np.isfinite(theta_oracle)):  # else a NaN would decide `matches`
        raise ArithmeticError(f"moving lab a={a_param} v={v_param}: theta_Lprime {theta_moving}, oracle {theta_oracle}")
    av2 = a_param * v_param * v_param
    ratio = theta_moving / av2 if av2 > 0 else 0.0
    matches = av2 > 0 and abs(ratio - PUBLISHED_COEFFICIENT) <= 0.1 * PUBLISHED_COEFFICIENT
    finding = None
    if av2 > 0 and not matches:
        finding = {
            "summary": (
                "deformed-lab expansion coefficient differs from the published "
                "value; the measured ratio is reproducible and oracle-backed"
            ),
            "measured_ratio": ratio,
            "published_coefficient": PUBLISHED_COEFFICIENT,
            "divergence_oracle": theta_oracle,
            "decomposition_value": theta_moving,
            "oracle_agreement": abs(theta_moving - theta_oracle),
            "note": (
                "every chart construction that cancels the connection at the "
                "epoch point yields exactly zero expansion there; the nonzero "
                "signal comes from the chart-deformation comparison, whose "
                "closed form is a*((3-v^2)/sqrt(1-v^2)-3)"
            ),
        }
    theta_v = kinematic_decompose(model.metric, model.frame_comoving, epoch).theta
    theta_z = kinematic_decompose(model.metric, model.frame_drifting, epoch).theta
    return MovingLabReport(
        a=a_param,
        v=v_param,
        u=u,
        theta_lab=theta_lab,
        theta_lab_moving=theta_moving,
        theta_lab_moving_transport_chart=theta_move_chart,
        theta_lab_moving_divergence_oracle=theta_oracle,
        ratio_to_av2=ratio,
        published_coefficient=PUBLISHED_COEFFICIENT,
        matches_published_coefficient=matches,
        finding=finding,
        theta_comoving=theta_v,
        theta_drifting=theta_z,
    )
