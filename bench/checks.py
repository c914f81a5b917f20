"""Output checks for benchmark scenarios.

Every report is validated against the package's JSON schema and, where the
model admits one, against a closed form written here independently of the
package.  Each check yields a (deviation, tolerance) pair.  Deviations are
relative, and absolute where the reference is zero or where the package's
acceptance suite pins an absolute tolerance; the tolerances are the ones
that suite pins.  A scenario passes when every deviation is within its
tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import SURVEY_FRAMES, SURVEY_PAIRS, drift_momentum

TOL_EXACT = 1e-10  # rates computed from exact jets
TOL_ZERO = 1e-15  # components that vanish exactly
TOL_ORACLE = 1e-8  # absolute: the finite-difference divergence oracle
TOL_GEODESIC = 1e-8  # absolute: RK4 coordinate velocity at step 1e-3
TOL_LAB_AT_REST = 1e-8  # absolute: the resting lab's expansion is zero


def load_schema_validator(schema_path):
    from jsonschema import Draft202012Validator

    with open(schema_path, "r", encoding="utf-8") as f:
        schema = json.load(f)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def deviation(got, ref):
    err = abs(got - ref)
    return err / abs(ref) if ref != 0.0 else err


def theta_moving_lab(a, v):
    """Deformed-lab expansion at the epoch: a((3 - v^2)/sqrt(1 - v^2) - 3)."""
    return a * ((3.0 - v * v) / math.sqrt(1.0 - v * v) - 3.0)


def theta_comoving(a, t):
    return 3.0 * a / (1.0 + a * t)


def theta_drifting(a, u, t):
    r = 1.0 + a * t
    return a * (3.0 * r * r + 2.0 * u * u) / (r * r * math.sqrt(r * r + u * u))


def experiment_accelerations(a, u, v):
    """Proper-time accelerations (x1, x2) of the two probe launches.

    Case a launches along the drift direction, case b across it; both start
    at the drift-chart origin with coordinate speed v.
    """
    w = math.sqrt(1.0 + u * u)
    case_a = (-(2.0 * a * v / w + u * a * v * v / w) / (1.0 - w * w * v * v), 0.0)
    case_b = ((u * a * v * v / w) / (1.0 - v * v), -(2.0 * a * w * v) / (1.0 - v * v))
    return case_a, case_b


def geodesic_dx1_dt(a, u, t):
    """Coordinate velocity of the drifting geodesic: u / (R sqrt(R^2 + u^2))."""
    r = 1.0 + a * t
    return u / (r * np.sqrt(r * r + u * u))


def _check_plli(cfg, res):
    a, v = cfg["a"], cfg["v"]
    u = drift_momentum(v)
    ref = theta_moving_lab(a, v)
    return [
        (deviation(res["theta_Lprime"], ref), TOL_EXACT),
        (abs(res["theta_Lprime_divergence_oracle"] - ref), TOL_ORACLE),
        (abs(res["theta_L"]), TOL_LAB_AT_REST),
        (deviation(res["theta_comoving"], theta_comoving(a, 0.0)), TOL_EXACT),
        (deviation(res["theta_drifting"], theta_drifting(a, u, 0.0)), TOL_EXACT),
    ]


def _check_experiment(cfg, res):
    (a1, a2), (b1, b2) = experiment_accelerations(cfg["a"], cfg["u"], cfg["v_probe"])
    got = res["case_a"]["accel_x1"], res["case_a"]["accel_x2"], res["case_b"]["accel_x1"], res["case_b"]["accel_x2"]
    return [(deviation(g, r), TOL_EXACT if r else TOL_ZERO) for g, r in zip(got, (a1, a2, b1, b2))]


def _check_geodesic(cfg, res, csv_path):
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    if len(data) != res["samples"] or res["truncated"]:
        return [(math.inf, TOL_GEODESIC)]
    t, u0, u1 = data[:, 1], data[:, 5], data[:, 6]
    return [(float(np.max(np.abs(u1 / u0 - geodesic_dx1_dt(cfg["a"], cfg["u"], t)))), TOL_GEODESIC)]


def _expected_theta(cfg):
    frame = cfg["frame"]
    if SURVEY_FRAMES[frame][0] == "minkowski":
        return 0.0
    t = cfg["point"][0]
    return theta_comoving(cfg["a"], t) if frame == "comoving" else theta_drifting(cfg["a"], cfg["u"], t)


def _verdict(ok):
    return [(0.0 if ok else math.inf, 1.0)]


def _check_survey(cfg, res):
    scenario = cfg["scenario"]
    if scenario == "decompose":
        return [(deviation(res["theta"], _expected_theta(cfg)), TOL_EXACT)]
    if scenario == "classify":
        return _verdict(res["classification"] == SURVEY_FRAMES[cfg["frame"]][1])
    if scenario == "pirf-check":
        return _verdict(res["is_pirf"] is SURVEY_FRAMES[cfg["frame"]][2])
    if scenario == "equivalence":
        return _verdict(res["verdict"] == SURVEY_PAIRS[tuple(cfg["frames"].split(","))])
    # normal-chart: the conditions the acceptance suite pins
    return [
        (res["metric_deviation_at_origin"], 1e-10),
        (res["gamma_max_at_origin"], 1e-8),
        (res["curvature_relation_deviation"], 1e-6),
        (max(0.0, 2.0 - res["deviation_growth_exponent"]), 0.1),
    ]


def check(cfg, report, csv_path=None):
    """(deviation, tolerance) pairs for one scenario's report."""
    res = report["result"]
    scenario = cfg["scenario"]
    if scenario == "plli":
        return _check_plli(cfg, res)
    if scenario == "experiment":
        return _check_experiment(cfg, res)
    if scenario == "geodesic":
        return _check_geodesic(cfg, res, csv_path)
    return _check_survey(cfg, res)
