"""framekin benchmark: seeded CLI scenarios, checked outputs, per-layer spans.

    python3 bench/run.py --workload moving-lab --seed 1 --seconds 30 --trace 0

One client drives `framekin.cli.main(argv)` in this process as a closed
loop: the next scenario starts when the previous one has finished.  With
`--trace 0` the loop runs for `--seconds` and the end-to-end metrics are
reported; with `--trace 1` a fixed, seed-determined list of scenarios runs
once untraced and once traced, and the per-layer metrics are reported.  The
last line of standard output is one JSON object; the full record, with the
machine and environment, is written to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCHEMA = SRC / "framekin" / "data" / "report.schema.json"
RESULTS = ROOT / "bench" / "results"

SETUP_REPEATS = 11
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import framekin.cli; "
    "framekin.cli.build_parser(); print(time.perf_counter() - t0)"
)

TRACE_TARGETS = (
    "hyperdual.jet1_matrix",
    "hyperdual.jet2_matrix",
    "hyperdual.jet1_vector",
    "hyperdual.dual_newton_invert",
    "geometry.eval_metric",
    "geometry.metric_jet",
    "geometry.christoffel",
    "geometry.christoffel_jet",
    "geometry.riemann",
    "frames.kinematic_decompose",
    "frames.curl_and_wedge",
    "geodesics.integrate_geodesic",
    "geodesics.parallel_transport_tetrad",
    "geodesics.GeodesicPath.to_csv",
    "maps.pushed_metric_field",
    "normal.build_normal_chart",
    "normal.lab_frame_along_geodesic",
    "normal.lab_frame_expansion",
    "catalog.adaptive_simpson",
    "catalog.invert_monotone",
    "oracles.fd_divergence",
    "equivalence.moving_lab_expansion_pair",
    "equivalence.equivalence_verdict",
    "reports.serialize",
    "cli.run_scenario",
)


# -- statistics ---------------------------------------------------------------


def tail_percentile(samples):
    """(percentile, value, samples beyond) for the tail of a latency sample.

    The tail is the highest percentile that still has ten samples above it,
    100 (1 - 10/N) for N samples, but never below the median: with fewer
    than twenty samples the median is returned with its own count.
    """
    xs = np.asarray(samples, dtype=float)
    level = max(50.0, 100.0 * (1.0 - 10.0 / len(xs)))
    value = float(np.percentile(xs, level))
    return level, value, int(np.sum(xs > value))


# -- environment ----------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(seed):
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in threads},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- measurement ------------------------------------------------------------------


def calibration_kernel():
    """Fixed reference work: Python float arithmetic and 4x4 numpy products,
    the mix of the package's hot paths, but none of the package's code."""
    m = np.eye(4) * 1.5
    acc = 0.0
    for _ in range(300):
        acc += float(np.einsum("ij,ij->", m @ m, m))
        x = 1.0
        for k in range(20):
            x = x * 1.0000001 + k / (x + 1.0)
        acc += x
    return acc


class Calibration:
    """Times the reference kernel between scenarios, about once per 0.1 s of
    scenario time.

    The machine is shared: the same work takes up to a third longer for
    minutes at a time.  Dividing a run's times by the kernel's median time
    in the same run, and multiplying by the kernel's time on a quiet
    machine, removes that drift; the program's own speed still shows, as
    the kernel runs none of its code.
    """

    QUIET_S = 2.0e-3  # median kernel time on a quiet 2-CPU Xeon machine

    def __init__(self):
        self.samples = []

    def sample(self, measured_s):
        for _ in range(max(1, round(measured_s / 0.1))):
            start = time.perf_counter()
            calibration_kernel()
            self.samples.append(time.perf_counter() - start)

    @property
    def factor(self):
        return self.QUIET_S / statistics.median(self.samples)


def measure_setup(repeats=SETUP_REPEATS):
    """Median seconds a fresh interpreter takes to import framekin and build
    the CLI parser.  One unmeasured start first compiles the bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


class ScenarioRunner:
    """Runs one scenario config through the CLI and checks its output."""

    def __init__(self, main, validator, workdir):
        self.main = main
        self.validator = validator
        self.workdir = Path(workdir)

    def run(self, cfg):
        """(latency_s, deviations, failure reason or None)."""
        geodesic = cfg["scenario"] == "geodesic"
        out = self.workdir / ("trajectory.csv" if geodesic else "report.json")
        args = workloads.argv(cfg, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.main(args)
        except (Exception, SystemExit) as err:  # a crash of the program is a failed scenario
            return time.perf_counter() - start, [], f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, [], f"exit code {code}: {stderr.getvalue().strip()}"
        try:
            report = json.loads(stdout.getvalue() if geodesic else out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            return elapsed, [], f"unreadable report: {err}"
        problems = [e.message for e in self.validator.iter_errors(report)]
        if problems:
            return elapsed, [], f"schema: {problems[0]}"
        try:
            devs = checks.check(cfg, report, out)
        except (OSError, ValueError, KeyError, TypeError) as err:
            return elapsed, [], f"check: {type(err).__name__}: {err}"
        bad = [(d, tol) for d, tol in devs if not d <= tol]
        if bad:
            return elapsed, devs, f"check: deviation {bad[0][0]:.3g} > tolerance {bad[0][1]:.3g}"
        return elapsed, devs, None


def closed_loop(runner, cfgs, seconds):
    """Cycles through the configs until `seconds` have passed and each ran once.

    Returns the attempt count, the latency of every passing scenario, the
    deviations as shares of their tolerances, the failures and the run's
    calibration.
    """
    latencies, deviations, failures = [], [], []
    calibration = Calibration()
    attempted = 0
    start = time.perf_counter()
    for k in itertools.count():
        if k >= len(cfgs) and time.perf_counter() - start >= seconds:
            break
        cfg = cfgs[k % len(cfgs)]
        attempted += 1
        elapsed, devs, reason = runner.run(cfg)
        calibration.sample(elapsed)
        deviations += [d / tol for d, tol in devs]
        if reason is None:
            latencies.append(elapsed)
        else:
            failures.append({"config": cfg, "reason": reason})
    return attempted, latencies, deviations, failures, calibration


def latency_metrics(latencies):
    """p50, (tail percentile, tail, samples beyond) and scenarios per second."""
    latencies = latencies or [0.0]
    total = sum(latencies)
    return statistics.median(latencies), tail_percentile(latencies), len(latencies) / total if total else 0.0


def end_to_end(runner, workload, seed, seconds):
    """Setup time, then the closed loop; returns what `per_layer` returns."""
    setup_s = measure_setup()
    cfgs = workloads.configs(workload, seed)
    attempted, latencies, deviations, failures, calibration = closed_loop(runner, cfgs, seconds)
    scale = calibration.factor
    p50, (level, tail, beyond), rate = latency_metrics([scale * t for t in latencies])
    metrics = {
        "setup_s": (setup_s, "s"),
        "scenario_s_p50": (p50, "s"),
        "scenario_s_tail": (tail, "s"),
        "scenarios_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed beside the bounded metrics: the failure share is 0 at a correct
    # commit, and the largest closed-form deviation (as a share of its
    # tolerance) sits at rounding level, so neither has a stable median.
    unbounded = {
        "fail_ratio": (len(failures) / attempted, "ratio"),
        "ref_err_max": (max(deviations, default=0.0), "tol"),
    }
    raw_p50, (_, raw_tail, _), raw_rate = latency_metrics(latencies)
    extra = {
        "configs": len(cfgs),
        "samples": len(latencies),
        "tail_percentile": level,
        "tail_samples_beyond": beyond,
        "calibration_factor": scale,
        "uncalibrated": {"scenario_s_p50": raw_p50, "scenario_s_tail": raw_tail, "scenarios_per_s": raw_rate},
    }
    return attempted, failures, metrics, unbounded, extra


def _hook_arg_counter(key, *positions):
    def before(tracer, args, kwargs):
        args = list(args)
        for i in positions:
            args[i] = tracer.counted(key, args[i])
        return tuple(args), kwargs

    return before


def _count_gamma_in_rk(tracer, args, kwargs):
    if tracer.open["geodesics.integrate_geodesic"]:
        tracer.counters["gamma_in_rk"] += 1
    return args, kwargs


def _count_rk_steps(tracer, args, kwargs, path):
    tracer.counters["rk_steps"] += path.stats["steps"]


def _count_pushed_evals(tracer, args, kwargs, field):
    field.component_fn = tracer.counted("pushed_evals", field.component_fn)


# The values that differ between runs or checkouts of the same config.
_VOLATILE_REPORT_VALUES = re.compile(r'^(\s*"(?:wall_time_s|csv_path)": ).*$', re.MULTILINE)


def _count_report_bytes(tracer, args, kwargs, text):
    tracer.counters["report_bytes"] += len(_VOLATILE_REPORT_VALUES.sub(r"\1", text).encode("utf-8"))


TRACE_HOOKS = {
    "geometry.christoffel": (_count_gamma_in_rk, None),
    "geodesics.integrate_geodesic": (None, _count_rk_steps),
    "catalog.adaptive_simpson": (_hook_arg_counter("quad_evals", 0), None),
    "catalog.invert_monotone": (_hook_arg_counter("invert_evals", 0, 1), None),
    "hyperdual.dual_newton_invert": (_hook_arg_counter("newton_evals", 0), None),
    "maps.pushed_metric_field": (None, _count_pushed_evals),
    "reports.serialize": (None, _count_report_bytes),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(runner, workload, seed):
    """One untraced and one traced pass over the run's configs.

    Returns the attempt count, failures, per-layer metrics, no unbounded
    metrics, and details.
    """
    cfgs = workloads.configs(workload, seed)
    tracer = Tracer("framekin")
    failures = []
    untraced_s = traced_s = 0.0
    for cfg in cfgs:
        elapsed, _, reason = runner.run(cfg)
        untraced_s += elapsed
        tracer.install(TRACE_TARGETS, TRACE_HOOKS)
        try:
            elapsed, _, traced_reason = runner.run(cfg)
        finally:
            tracer.uninstall()
        traced_s += elapsed
        if reason or traced_reason:
            failures.append({"config": cfg, "reason": reason or traced_reason})
    metrics = {}
    for target in TRACE_TARGETS:
        metrics[f"{target}.calls"] = (tracer.calls[target], "count")
        metrics[f"{target}.self_s"] = (tracer.self_s[target], "s")
    c = tracer.counters
    metrics.update(
        {
            "geodesics.gamma_per_step": (_ratio(c["gamma_in_rk"], c["rk_steps"]), "calls/step"),
            "catalog.quad.integrand_evals": (c["quad_evals"], "count"),
            "catalog.invert.fn_evals_per_solve": (
                _ratio(c["invert_evals"], tracer.calls["catalog.invert_monotone"]),
                "evals/solve",
            ),
            "hyperdual.newton.map_evals_per_solve": (
                _ratio(c["newton_evals"], tracer.calls["hyperdual.dual_newton_invert"]),
                "evals/solve",
            ),
            "maps.pushed_metric.component_evals": (c["pushed_evals"], "count"),
            "reports.bytes": (c["report_bytes"], "bytes"),
            "tracer.overhead_s": (traced_s - untraced_s, "s"),
        }
    )
    extra = {"scenarios": len(cfgs), "untraced_s": untraced_s, "traced_s": traced_s, "absent_targets": sorted(set(tracer.absent))}
    return len(cfgs), failures, metrics, {}, extra


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "framekin" / "__init__.py").is_file() or not SCHEMA.is_file():
        print(f"bench: no framekin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from framekin.cli import main as framekin_main

    validator = checks.load_schema_validator(SCHEMA)
    with tempfile.TemporaryDirectory(prefix="_work-", dir=ROOT / "bench") as workdir:
        runner = ScenarioRunner(framekin_main, validator, workdir)
        if args.trace:
            attempted, failures, metrics, unbounded, extra = per_layer(runner, args.workload, args.seed)
        else:
            attempted, failures, metrics, unbounded, extra = end_to_end(runner, args.workload, args.seed, args.seconds)

    env = environment(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "attempted": attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unbounded_metrics": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()},
        "details": extra,
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, val in extra.items():
        print(f"# {key} = {val}")
    for key, (val, unit) in {**metrics, **unbounded}.items():
        print(f"{key} = {val:.6g} {unit}")
    for failure in failures[:5]:
        print(f"# FAILED {failure['config']}: {failure['reason']}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
