"""Time one benchmark workload in two checkouts, call by call in one process.

Usage, from the root of a checkout:

    python tools/compare_timing.py PARENT_DIR WORKLOAD [--seed 7] [--rounds 10]

It imports ``PARENT_DIR/src/framekin`` as the package ``framekin_parent`` and
this checkout's ``src/framekin`` as ``framekin``, both in this process, and
makes the workload's configs with this checkout's ``bench/workloads.py``.
After one untimed warm-up pass, each round runs every config once through
each package's ``cli.main``, the two calls back to back, and flips which
package goes first every round.  It prints each side's median latency (p50)
and scenarios per second, and the median over all pairs of this checkout's
latency divided by the parent's, with its quartiles.  Runs in separate
processes on a shared machine can drift apart by tens of percent; the two
calls of a pair see the same machine state.  Nothing under ``bench/`` is
written: the scenario outputs go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_main(src, name):
    """``cli.main`` of the framekin package under ``src``, imported as the package ``name``."""
    pkg = Path(src) / "framekin"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").main


def timed(main, argv):
    """(seconds, exit code) of one CLI run with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        return time.perf_counter() - start, code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.rounds < 1:
        parser.error("need at least one round")
    mains = {"parent": load_main(args.parent / "src", "framekin_parent"), "this": load_main(ROOT / "src", "framekin")}
    cfgs = workloads.configs(args.workload, args.seed)
    times = {side: [] for side in mains}
    failed = {side: 0 for side in mains}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [workloads.argv(cfg, Path(tmp) / "out") for cfg in cfgs]
        for run in runs:  # warm-up: imports, first-call caches
            for side_main in mains.values():
                timed(side_main, run)
        for r in range(args.rounds):
            order = list(mains) if r % 2 == 0 else list(mains)[::-1]
            for run in runs:
                for side in order:
                    seconds, code = timed(mains[side], run)
                    times[side].append(seconds)
                    failed[side] += code != 0
    ratios = [t / p for t, p in zip(times["this"], times["parent"])]
    print(f"# {args.workload} seed={args.seed}: {len(cfgs)} configs x {args.rounds} rounds = {len(ratios)} pairs")
    for side, ts in times.items():
        print(
            f"{side}: p50 {statistics.median(ts) * 1e3:.3f} ms, {len(ts) / sum(ts):.2f} scenarios/s, "
            f"{failed[side]} nonzero exits"
        )
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    faster = sum(x < 1.0 for x in ratios)
    print(f"this/parent: median paired ratio {q2:.4f} (quartiles {q1:.4f} .. {q3:.4f}), faster in {faster} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
