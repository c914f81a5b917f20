"""Capture what a set of CLI runs print and write, for a byte-identity check between two checkouts.

Usage, from the root of a checkout:

    python tools/capture_reports.py OUT.json

It imports framekin from this checkout's ``src`` and runs, in this process
through ``framekin.cli.main``:

* every config of the seed-7 and seed-271828 runs of the three benchmark
  workloads, as ``bench/workloads.py`` makes them;
* the nine commands of the README's CLI section;
* ``plli`` at a in {1e-5, 3e-5, 1e-4, 1e-3, 1e-2} times v in {0.05, 0.1, 0.2, 0.3}.

For each run it records the command, the exit code, the report less its
``wall_time_s``, stderr, the CSV trajectory if one was written and the Python
warnings, all into one JSON file.  Run it in two checkouts and compare the two
files with ``cmp``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 271828)
PLLI_A = (1e-5, 3e-5, 1e-4, 1e-3, 1e-2)
PLLI_V = (0.05, 0.1, 0.2, 0.3)


def commands(workdir):
    """Every command line to run, each with its output path under workdir."""
    import workloads

    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for cfg in workloads.configs(workload, seed):
                out.append(workloads.argv(cfg, workdir / "out"))
    cli = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```sh", 1)[1]
    for line in cli.split("```", 1)[0].splitlines():
        if line.startswith("framekin "):
            out.append(re.sub(r"--out \S+", f"--out {workdir / 'out'}", line).split()[1:])
    out += [["plli", "--a", repr(a), "--v", repr(v), "--out", str(workdir / "out")] for a in PLLI_A for v in PLLI_V]
    return out


def run(main, argv, workdir):
    """One run's record: exit code, report less wall_time_s, stderr, CSV and warnings."""
    out = workdir / "out"
    if out.exists():
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    written = out.read_text(encoding="utf-8") if out.exists() else None
    csv = None
    if argv[0] == "geodesic":  # the trajectory goes to --out, the report to stdout
        csv, written = written, None
    text = (stdout.getvalue() if written is None else written).replace(str(workdir), "<tmp>")
    report = json.loads(text) if text.strip() else None
    if report is not None:
        report.pop("wall_time_s")
    return {
        "argv": shlex.join(a.replace(str(workdir), "<tmp>") for a in argv),
        "exit": code,
        "report": report,
        "stderr": stderr.getvalue().replace(str(workdir), "<tmp>"),
        "csv": csv,
        "warnings": [f"{w.category.__name__} {Path(w.filename).name}: {w.message}" for w in caught],
    }


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/capture_reports.py OUT.json")
    sys.dont_write_bytecode = True  # leave no cache beside the benchmark's sources
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.environ.pop("FRAMEKIN_LOG", None)
    from framekin.cli import main as framekin_main

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        records = [run(framekin_main, argv, workdir) for argv in commands(workdir)]
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(records)} runs captured to {sys.argv[1]}")


if __name__ == "__main__":
    main()
