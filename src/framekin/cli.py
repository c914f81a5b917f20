"""Command-line scenario runner.

Each subcommand runs one reproducible scenario against a model from the
catalog and writes a JSON report (or a CSV trajectory for ``geodesic``).
Flags mirror config-file keys one to one; a JSON config supplies defaults
and explicit flags win.  Exit codes: 0 success, 2 invalid configuration,
3 numeric failure.  The FRAMEKIN_LOG environment variable sets the log
level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .catalog import (
    boosted_inertial_frame,
    inertial_frame,
    make_friedmann,
    rotating_minkowski_frame,
)
from .equivalence import equivalence_verdict, moving_lab_expansion_pair
from .frames import (
    FrameCausalityError,
    classify_synchronizability,
    grid_samples,
    is_pirf,
    kinematic_decompose,
)
from .geodesics import StepControl, free_particle_experiment, integrate_geodesic
from .geometry import (
    ChartDomainError,
    SingularMetricError,
    christoffel,
    eval_metric,
    minkowski_metric,
)
from .normal import build_normal_chart, metric_deviation_exponent, normal_chart_curvature_check
from .reports import serialize

log = logging.getLogger("framekin")

SCENARIOS = (
    "decompose",
    "classify",
    "pirf-check",
    "geodesic",
    "experiment",
    "normal-chart",
    "plli",
    "equivalence",
)

_GLOBAL_KEYS = {"scenario", "out", "format", "tol"}
_SCENARIO_KEYS = {
    "decompose": {"model", "a", "u", "omega", "speed", "frame", "point"},
    "classify": {"model", "a", "u", "omega", "speed", "frame", "box_lo", "box_hi", "grid"},
    "pirf-check": {"model", "a", "u", "omega", "speed", "frame", "box_lo", "box_hi", "grid"},
    "geodesic": {"a", "u", "smax", "step"},
    "experiment": {"a", "u", "v_probe"},
    "normal-chart": {"model", "a", "u", "point"},
    "plli": {"a", "v"},
    "equivalence": {"model", "a", "u", "omega", "speed", "frames", "point"},
}


def _parse_point(text):
    parts = [float(x) for x in str(text).split(",")]
    if len(parts) != 4:
        raise ValueError("a point needs four comma-separated coordinates")
    return tuple(parts)


def _build_model(cfg):
    kind = cfg.get("model", "friedmann")
    if kind == "friedmann":
        return make_friedmann(float(cfg.get("a", 1e-3)), float(cfg.get("u", 0.0)))
    if kind == "minkowski":
        return None
    raise ValueError(f"unknown model {kind!r} (expected friedmann or minkowski)")


def _resolve_frame(cfg):
    """(metric, frame) from the model and frame name in the config."""
    name = cfg.get("frame", "comoving" if cfg.get("model", "friedmann") == "friedmann" else "inertial")
    model = _build_model(cfg)
    if model is not None:
        frames = {"comoving": model.frame_comoving, "drifting": model.frame_drifting}
        if name not in frames:
            raise ValueError(f"unknown frame {name!r} for the friedmann model")
        return model.metric, frames[name]
    if name == "inertial":
        f = inertial_frame()
        return f.metric, f
    if name == "boosted":
        f = boosted_inertial_frame(float(cfg.get("speed", 0.5)))
        return f.metric, f
    if name == "rotating":
        f = rotating_minkowski_frame(float(cfg.get("omega", 0.1)), float(cfg.get("radius_cap", 5.0)))
        return f.metric, f
    raise ValueError(f"unknown frame {name!r} for the minkowski model")


# Largest sample grid per axis: 16^4 = 65,536 samples bounds the work of a run.
_MAX_GRID = 16
# Most RK4 steps a geodesic run may request (smax / step): 100,000 steps take about a minute.
_MAX_STEPS = 100_000


def _sample_box(cfg):
    lo = _parse_point(cfg["box_lo"]) if "box_lo" in cfg else (0.0, -0.5, -0.5, -0.5)
    hi = _parse_point(cfg["box_hi"]) if "box_hi" in cfg else (1.0, 0.5, 0.5, 0.5)
    n = cfg.get("grid", 3)
    if type(n) is not int or not 1 <= n <= _MAX_GRID:
        raise ValueError(f"grid must be an integer from 1 to {_MAX_GRID}, got {n!r}")
    return grid_samples(lo, hi, n)


def _run_decompose(cfg):
    metric, frame = _resolve_frame(cfg)
    point = _parse_point(cfg.get("point", "0,0,0,0"))
    return kinematic_decompose(metric, frame, point).to_json_dict()


def _run_classify(cfg):
    metric, frame = _resolve_frame(cfg)
    res = classify_synchronizability(metric, frame, _sample_box(cfg), threshold=cfg["tol"])
    return res.to_json_dict()


def _run_pirf(cfg):
    metric, frame = _resolve_frame(cfg)
    return is_pirf(metric, frame, _sample_box(cfg), tolerance=cfg["tol"]).to_json_dict()


def _run_geodesic(cfg):
    model = make_friedmann(float(cfg.get("a", 1e-3)), float(cfg.get("u", 0.0)))
    u = model.u
    w = np.sqrt(1.0 + u * u)
    step, smax = float(cfg.get("step", 1e-3)), float(cfg.get("smax", 10.0))
    for key, x in (("step", step), ("smax", smax)):
        if not (np.isfinite(x) and x > 0):
            raise ValueError(f"{key} must be finite and greater than 0, got {x}")
    if smax / step > _MAX_STEPS:
        raise ValueError(f"smax / step must be at most {_MAX_STEPS} steps, got {smax / step:.6g}")
    path = integrate_geodesic(
        model.metric, (0.0, 0.0, 0.0, 0.0), (w, u, 0.0, 0.0), smax, StepControl(method="rk4", step=step)
    )
    csv_path = cfg.get("out") or "trajectory.csv"
    path.to_csv(csv_path)
    return {
        "samples": len(path.s),
        "steps": path.stats["steps"],
        "max_norm_drift": path.stats["max_norm_drift"],
        "truncated": path.stats["truncated"],
        "csv_path": str(csv_path),
    }


def _run_experiment(cfg):
    rep_a, rep_b = free_particle_experiment(
        float(cfg.get("a", 1e-3)), float(cfg.get("u", 0.1005)), float(cfg.get("v_probe", 0.01))
    )
    return {"case_a": rep_a.to_json_dict(), "case_b": rep_b.to_json_dict(), "asymmetry": rep_a.asymmetry}


def _run_normal_chart(cfg):
    model = _build_model(cfg)
    point = _parse_point(cfg.get("point", "0,0,0,0"))
    if model is None:
        metric = minkowski_metric()
        tetrad = np.eye(4)
    else:
        metric = model.metric
        r = model.scale.value(point[0])
        tetrad = np.diag([1.0, 1.0 / r, 1.0 / r, 1.0 / r])
    chart = build_normal_chart(metric, point, tetrad)
    pushed = chart.metric_in_chart(metric)
    g0 = eval_metric(pushed, (0.0, 0.0, 0.0, 0.0))
    gamma0 = christoffel(pushed, (0.0, 0.0, 0.0, 0.0)).gamma
    dev, _, _ = normal_chart_curvature_check(metric, chart)
    exponent, ladder = metric_deviation_exponent(metric, chart)
    payload = chart.to_json_dict()
    payload.update(
        {
            "metric_deviation_at_origin": float(
                np.max(np.abs(g0 - np.diag([1.0, -1.0, -1.0, -1.0])))
            ),
            "gamma_max_at_origin": float(np.max(np.abs(gamma0))),
            "curvature_relation_deviation": dev,
            "deviation_growth_exponent": exponent,
            "deviation_ladder": [[r, d] for r, d in ladder],
        }
    )
    return payload


def _run_plli(cfg):
    report = moving_lab_expansion_pair(float(cfg.get("a", 1e-3)), float(cfg.get("v", 0.1)))
    return report.to_json_dict()


def _run_equivalence(cfg):
    names = cfg.get("frames", "comoving,drifting")
    if isinstance(names, str):
        names = [s.strip() for s in names.split(",")]
    if len(names) != 2:
        raise ValueError("equivalence needs exactly two frame names")
    point = _parse_point(cfg.get("point", "0,0,0,0"))
    metric_a, frame_a = _resolve_frame({**cfg, "frame": names[0]})
    metric_b, frame_b = _resolve_frame({**cfg, "frame": names[1]})
    if metric_a.name != metric_b.name:
        raise ValueError("both frames must live on the same model")
    verdict = equivalence_verdict(metric_a, frame_a, frame_b, point, tolerance=cfg["tol"])
    return verdict.to_json_dict()


_RUNNERS = {
    "decompose": _run_decompose,
    "classify": _run_classify,
    "pirf-check": _run_pirf,
    "geodesic": _run_geodesic,
    "experiment": _run_experiment,
    "normal-chart": _run_normal_chart,
    "plli": _run_plli,
    "equivalence": _run_equivalence,
}


def run_scenario(config: dict) -> dict:
    """Execute one scenario config and return the full report payload."""
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}")
    allowed = _SCENARIO_KEYS[scenario] | _GLOBAL_KEYS
    unknown = set(config) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {scenario}: {sorted(unknown)}")
    cfg = dict(config)
    cfg["tol"] = float(cfg.get("tol", 1e-7))
    if not np.isfinite(cfg["tol"]):
        raise ValueError(f"tolerance must be finite, got {cfg['tol']}")
    start = time.perf_counter()
    result = _RUNNERS[scenario](cfg)
    elapsed = time.perf_counter() - start
    inputs = {k: v for k, v in config.items() if k not in ("out", "format")}
    return {
        "scenario": scenario,
        "inputs": inputs,
        "result": result,
        "tool_version": __version__,
        "tolerance": cfg["tol"],
        "wall_time_s": elapsed,
    }


def _load_config(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help="output path (JSON report, CSV for geodesic)")
    sub.add_argument("--format", choices=("json", "csv"), help="output format")
    sub.add_argument("--tol", type=float, help="tolerance used by the scenario")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="framekin",
        description="Reference-frame kinematics scenarios on spacetime models",
    )
    parser.add_argument("--version", action="version", version=f"framekin {__version__}")
    subs = parser.add_subparsers(dest="scenario", required=True, metavar="{" + ",".join(SCENARIOS) + "}")

    def scen(name, **flags):
        sp = subs.add_parser(name)
        _add_common(sp)
        for flag, kwargs in flags.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **kwargs)
        return sp

    scen(
        "decompose",
        model={"choices": ("friedmann", "minkowski")},
        a={"type": float},
        u={"type": float},
        omega={"type": float},
        speed={"type": float},
        frame={},
        point={},
    )
    for name in ("classify", "pirf-check"):
        scen(
            name,
            model={"choices": ("friedmann", "minkowski")},
            a={"type": float},
            u={"type": float},
            omega={"type": float},
            speed={"type": float},
            frame={},
            box_lo={},
            box_hi={},
            grid={"type": int},
        )
    scen("geodesic", a={"type": float}, u={"type": float}, smax={"type": float}, step={"type": float})
    scen("experiment", a={"type": float}, u={"type": float}, v_probe={"type": float})
    scen("normal-chart", model={"choices": ("friedmann", "minkowski")}, a={"type": float}, u={"type": float}, point={})
    scen("plli", a={"type": float}, v={"type": float})
    scen(
        "equivalence",
        model={"choices": ("friedmann", "minkowski")},
        a={"type": float},
        u={"type": float},
        omega={"type": float},
        speed={"type": float},
        frames={},
        point={},
    )
    return parser


def main(argv=None) -> int:
    level = os.environ.get("FRAMEKIN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)

    config = {}
    if args.config:
        try:
            config.update(_load_config(args.config))
        except (OSError, json.JSONDecodeError, ValueError) as err:
            print(f"framekin: bad config: {err}", file=sys.stderr)
            return 2
    cli_items = {
        k: v
        for k, v in vars(args).items()
        if k not in ("config", "scenario") and v is not None
    }
    if "scenario" in config and config["scenario"] != args.scenario:
        print(
            f"framekin: config scenario {config['scenario']!r} does not match "
            f"subcommand {args.scenario!r}",
            file=sys.stderr,
        )
        return 2
    config.update(cli_items)
    config["scenario"] = args.scenario
    fmt = config.get("format", "json")
    if fmt == "csv" and args.scenario != "geodesic":
        print("framekin: csv output is only available for the geodesic scenario", file=sys.stderr)
        return 2

    try:
        report = run_scenario(config)
        text = serialize(report)
        log.info("scenario %s finished in %.3fs", args.scenario, report["wall_time_s"])
        out = config.get("out")
        # the geodesic trajectory already went to `out` as CSV; its report goes to stdout
        if out and args.scenario != "geodesic":
            with open(out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        else:
            print(text)
    except OSError as err:
        print(f"framekin: cannot write output: {err}", file=sys.stderr)
        return 2
    except (ChartDomainError, FrameCausalityError, ValueError) as err:
        if isinstance(err, SingularMetricError):
            print(f"framekin: numeric failure: {err}", file=sys.stderr)
            return 3
        print(f"framekin: invalid configuration: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, ZeroDivisionError, FloatingPointError) as err:
        print(f"framekin: numeric failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
