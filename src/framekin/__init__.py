"""Reference-frame kinematics on Lorentzian spacetime models.

Evaluates metrics, connections and curvature with machine-precision
derivatives, decomposes frame congruences into acceleration, vorticity,
shear and expansion, integrates geodesics with transported tetrads, builds
normal charts and inertial lab frames, and decides physical-equivalence
verdicts between frames.
"""

__version__ = "0.1.0"

from .geometry import (
    ChartDomainError,
    CurvatureTensor,
    MetricField,
    MetricSignatureError,
    SingularMetricError,
    christoffel,
    christoffel_jet,
    eval_metric,
    inverse_metric,
    minkowski_metric,
    refuse_outside,
    riemann,
)
from .frames import (
    FrameCausalityError,
    FrameField,
    KinematicDecomposition,
    PirfResult,
    SynchronizabilityClass,
    SynchronizabilityResult,
    classify_synchronizability,
    grid_samples,
    is_pirf,
    kinematic_decompose,
    make_frame,
)
from .geodesics import (
    ExperimentReport,
    GeodesicPath,
    StepControl,
    free_particle_experiment,
    integrate_geodesic,
)
from .maps import ChartMap, pushed_metric_field
from .normal import (
    NonFiniteConnectionError,
    NormalChart,
    TubeDomainError,
    build_normal_chart,
    lab_frame_along_geodesic,
    metric_deviation_exponent,
    normal_chart_curvature_check,
)
from .catalog import (
    FriedmannModel,
    ScaleFactor,
    boosted_inertial_frame,
    drift_speed_to_momentum,
    inertial_frame,
    make_friedmann,
    rotating_minkowski_frame,
    z_chart,
)
from .equivalence import (
    EquivalenceVerdict,
    MovingLabReport,
    deformed_frame,
    equivalence_verdict,
    moving_lab_expansion_pair,
)
from .cli import run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
