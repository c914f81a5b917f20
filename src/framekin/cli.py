"""Command-line scenario runner.

Each subcommand runs one reproducible scenario against a model from the
catalog and writes a JSON report (or a CSV trajectory for ``geodesic``).
Every config key is declared once in ``_KEYS`` (its check, conversion and
flag) and each scenario's keys and defaults once in ``_DEFAULTS``; flags
mirror config-file keys one to one, a JSON config supplies defaults and
explicit flags win.  Exit codes: 0 success; 2 invalid configuration or an
unwritable output, including a point where the model is not Lorentzian
(``MetricSignatureError``), outside a lab chart's tube (``TubeDomainError``)
or outside a chart domain; 3 numeric failure (``SingularMetricError``,
``NonFiniteConnectionError`` and any other ``ArithmeticError``).  The
FRAMEKIN_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import numbers
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .catalog import boosted_inertial_frame, inertial_frame, make_friedmann, rotating_minkowski_frame
from .equivalence import equivalence_verdict, moving_lab_expansion_pair
from .frames import classify_synchronizability, grid_samples, is_pirf, kinematic_decompose
from .geodesics import StepControl, free_particle_experiment, integrate_geodesic
from .geometry import SingularMetricError, christoffel, eval_metric, minkowski_metric
from .normal import build_normal_chart, metric_deviation_exponent, normal_chart_curvature_check
from .reports import serialize

log = logging.getLogger("framekin")

# Largest sample grid per axis: 16^4 = 65,536 samples bounds the work of a run.
_MAX_GRID = 16
# Most RK4 steps a geodesic run may request (smax / step): 100,000 steps take about a minute.
_MAX_STEPS = 100_000


def _real(x):
    """x as a finite float (a number or a numeric string, not a bool), else None."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Real, str)):
        return None
    try:
        x = float(x)
    except (ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _positive(x):
    x = _real(x)
    return x if x is not None and x > 0 else None


def _string(x):
    return x if isinstance(x, str) else None


def _coords(x):
    """Four finite comma-separated coordinates as a tuple, else None."""
    parts = [_real(c) for c in x.split(",")] if isinstance(x, str) else []
    return tuple(parts) if len(parts) == 4 and None not in parts else None


def _frame_pair(x):
    """Two frame names from a comma-separated string or a list, else None."""
    names = [s.strip() for s in x.split(",")] if isinstance(x, str) else x
    ok = isinstance(names, (list, tuple)) and len(names) == 2 and all(isinstance(n, str) for n in names)
    return names if ok else None


def _grid(n):
    return n if type(n) is int and 1 <= n <= _MAX_GRID else None


class _Key(NamedTuple):
    convert: Callable  # a given value to the value the runners read; None when it is invalid
    what: str  # what a valid value is
    flag: dict  # argparse keywords of the key's flag


def _choice(*names, **flag):
    return _Key(lambda x: x if x in names else None, " or ".join(names), {"choices": names, **flag})


_REAL = _Key(_real, "a finite number", {"type": float})
_POSITIVE = _Key(_positive, "finite and greater than 0", {"type": float})
_POINT = _Key(_coords, "four finite comma-separated coordinates", {})

# Every config key: the check and conversion of a given value, and its flag.
_KEYS = {
    "out": _Key(_string, "a string", {"help": "output path (JSON report, CSV for geodesic)"}),
    "format": _choice("json", "csv", help="output format"),
    "tol": _REAL._replace(flag={"type": float, "help": "tolerance used by the scenario"}),
    "model": _choice("friedmann", "minkowski"),
    **dict.fromkeys(("a", "u", "omega", "speed", "v", "v_probe"), _REAL),
    "frame": _Key(_string, "a string", {}),
    "frames": _Key(_frame_pair, "two comma-separated frame names or a list of two", {}),
    "point": _POINT,
    "box_lo": _POINT,
    "box_hi": _POINT,
    "grid": _Key(_grid, f"an integer from 1 to {_MAX_GRID}", {"type": int}),
    "smax": _POSITIVE,
    "step": _POSITIVE,
}

# Each scenario's keys with their defaults, in the order of its flags.  The
# frame None is the model's rest frame: comoving, or inertial on minkowski.
_GLOBAL = {"out": None, "format": "json", "tol": 1e-7}
_ORIGIN = (0.0, 0.0, 0.0, 0.0)
_FRIEDMANN = {"model": "friedmann", "a": 1e-3, "u": 0.0}
_MODEL = {**_FRIEDMANN, "omega": 0.1, "speed": 0.5}
_BOX = {"box_lo": (0.0, -0.5, -0.5, -0.5), "box_hi": (1.0, 0.5, 0.5, 0.5), "grid": 3}
_DEFAULTS = {
    "decompose": {**_MODEL, "frame": None, "point": _ORIGIN},
    "classify": {**_MODEL, "frame": None, **_BOX},
    "pirf-check": {**_MODEL, "frame": None, **_BOX},
    "geodesic": {"a": 1e-3, "u": 0.0, "smax": 10.0, "step": 1e-3},
    "experiment": {"a": 1e-3, "u": 0.1005, "v_probe": 0.01},
    "normal-chart": {**_FRIEDMANN, "point": _ORIGIN},
    "plli": {"a": 1e-3, "v": 0.1},
    "equivalence": {**_MODEL, "frames": ("comoving", "drifting"), "point": _ORIGIN},
}
SCENARIOS = tuple(_DEFAULTS)


def _resolve_frame(cfg, name):
    """(metric, frame) for a frame name (None: the rest frame) on the model in the config."""
    if cfg["model"] == "friedmann":
        model = make_friedmann(cfg["a"], cfg["u"])
        frames = {None: model.frame_comoving, "comoving": model.frame_comoving, "drifting": model.frame_drifting}
        if name not in frames:
            raise ValueError(f"unknown frame {name!r} for the friedmann model")
        return model.metric, frames[name]
    if name in (None, "inertial"):
        f = inertial_frame()
    elif name == "boosted":
        f = boosted_inertial_frame(cfg["speed"])
    elif name == "rotating":
        f = rotating_minkowski_frame(cfg["omega"], 5.0)
    else:
        raise ValueError(f"unknown frame {name!r} for the minkowski model")
    return f.metric, f


def _run_decompose(cfg):
    metric, frame = _resolve_frame(cfg, cfg["frame"])
    return kinematic_decompose(metric, frame, cfg["point"]).to_json_dict()


def _run_classify(cfg):
    metric, frame = _resolve_frame(cfg, cfg["frame"])
    samples = grid_samples(cfg["box_lo"], cfg["box_hi"], cfg["grid"])
    return classify_synchronizability(metric, frame, samples, threshold=cfg["tol"]).to_json_dict()


def _run_pirf(cfg):
    metric, frame = _resolve_frame(cfg, cfg["frame"])
    samples = grid_samples(cfg["box_lo"], cfg["box_hi"], cfg["grid"])
    return is_pirf(metric, frame, samples, tolerance=cfg["tol"]).to_json_dict()


def _run_geodesic(cfg):
    model = make_friedmann(cfg["a"], cfg["u"])
    u = model.u
    w = np.sqrt(1.0 + u * u)
    step, smax = cfg["step"], cfg["smax"]
    if smax / step > _MAX_STEPS:
        raise ValueError(f"smax / step must be at most {_MAX_STEPS} steps, got {smax / step:.6g}")
    # Above a ~ 6e155 R·R's gradient overflows while R² stays finite; the run refuses that metric by name.
    with np.errstate(over="ignore"):
        path = integrate_geodesic(model.metric, (0.0, 0.0, 0.0, 0.0), (w, u, 0.0, 0.0), smax, StepControl(step=step))
    csv_path = cfg["out"] or "trajectory.csv"
    path.to_csv(csv_path)
    result = {
        "samples": len(path.s),
        "steps": path.stats["steps"],
        "max_norm_drift": path.stats["max_norm_drift"],
        "truncated": path.stats["truncated"],
        "csv_path": str(csv_path),
    }
    if path.stats["truncated"]:
        result["reason"] = path.stats["reason"]
    return result


def _run_experiment(cfg):
    rep_a, rep_b = free_particle_experiment(cfg["a"], cfg["u"], cfg["v_probe"])
    return {"case_a": rep_a.to_json_dict(), "case_b": rep_b.to_json_dict(), "asymmetry": rep_a.asymmetry}


def _run_normal_chart(cfg):
    point = cfg["point"]
    if cfg["model"] == "minkowski":
        metric = minkowski_metric()
        tetrad = np.eye(4)
    else:
        model = make_friedmann(cfg["a"], cfg["u"])
        metric = model.metric
        r = model.scale.value(point[0])
        tetrad = np.diag([1.0, 1.0 / r, 1.0 / r, 1.0 / r])
    chart = build_normal_chart(metric, point, tetrad)
    pushed = chart.metric_in_chart(metric)
    g0 = eval_metric(pushed, (0.0, 0.0, 0.0, 0.0))
    gamma0 = christoffel(pushed, (0.0, 0.0, 0.0, 0.0))
    dev, _, _ = normal_chart_curvature_check(metric, chart)
    exponent, ladder = metric_deviation_exponent(metric, chart)
    payload = chart.to_json_dict()
    payload.update(
        {
            "metric_deviation_at_origin": float(np.max(np.abs(g0 - np.diag([1.0, -1.0, -1.0, -1.0])))),
            "gamma_max_at_origin": float(np.max(np.abs(gamma0))),
            "curvature_relation_deviation": dev,
            "deviation_growth_exponent": exponent,
            "deviation_ladder": [[r, d] for r, d in ladder],
        }
    )
    return payload


def _run_plli(cfg):
    return moving_lab_expansion_pair(cfg["a"], cfg["v"]).to_json_dict()


def _run_equivalence(cfg):
    (metric_a, frame_a), (metric_b, frame_b) = (_resolve_frame(cfg, name) for name in cfg["frames"])
    if metric_a.name != metric_b.name:
        raise ValueError("both frames must live on the same model")
    verdict = equivalence_verdict(metric_a, frame_a, frame_b, cfg["point"], tolerance=cfg["tol"])
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
    """Execute one scenario config and return the full report payload.

    Every given key is checked once against ``_KEYS`` and the scenario's
    defaults fill in the rest; an invalid value raises
    ``ValueError("<key> must be <what>, got <value>")``.
    """
    scenario = config.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}")
    cfg = {**_GLOBAL, **_DEFAULTS[scenario]}
    unknown = set(config) - set(cfg) - {"scenario"}
    if unknown:
        raise ValueError(f"unknown config keys for {scenario}: {sorted(unknown)}")
    for key, value in config.items():
        if key != "scenario":
            cfg[key] = _KEYS[key].convert(value)
            if cfg[key] is None:
                raise ValueError(f"{key} must be {_KEYS[key].what}, got {value!r}")
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


@functools.cache
def build_parser():
    """The CLI parser, built on the first call and shared by every later one in the process."""
    parser = argparse.ArgumentParser(
        prog="framekin",
        description="Reference-frame kinematics scenarios on spacetime models",
    )
    parser.add_argument("--version", action="version", version=f"framekin {__version__}")
    subs = parser.add_subparsers(dest="scenario", required=True, metavar="{" + ",".join(SCENARIOS) + "}")
    for name, defaults in _DEFAULTS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", help="JSON config file; explicit flags win")
        for key in (*_GLOBAL, *defaults):
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, **_KEYS[key].flag)
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
        except (OSError, ValueError) as err:
            print(f"framekin: bad config: {err}", file=sys.stderr)
            return 2
    cli_items = {k: v for k, v in vars(args).items() if k not in ("config", "scenario") and v is not None}
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
    except (SingularMetricError, ArithmeticError) as err:
        print(f"framekin: numeric failure: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"framekin: invalid configuration: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
