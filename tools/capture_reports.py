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
files with ``cmp``, or list what differs:

    python tools/capture_reports.py --compare A.json B.json

prints each run and field (a report field by its dotted path) whose values
differ, with both values, and exits 1 when any differ, else 0.
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


def fields(record, prefix=""):
    """A record's leaves by dotted path: nested report fields each on their own."""
    if isinstance(record, dict):
        return {k: v for key, sub in record.items() for k, v in fields(sub, f"{prefix}{key}.").items()}
    return {prefix[:-1]: record}


def compare(path_a, path_b):
    """Print each run and field that differs between two captures, with both values; the count."""
    runs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b)]
    if [r["argv"] for r in runs[0]] != [r["argv"] for r in runs[1]]:
        print("the two captures ran different commands")
        return 1
    moved = 0
    for a, b in zip(*runs):
        fa, fb = fields(a), fields(b)
        for key in sorted(set(fa) | set(fb)):  # compared as written: -0.0 is not 0.0, nor 1 1.0
            if key not in fa or key not in fb or json.dumps(fa[key]) != json.dumps(fb[key]):
                moved += 1
                print(f"{a['argv']}\n  {key}: {fa.get(key, '<absent>')!r} -> {fb.get(key, '<absent>')!r}")
    print(f"{moved} fields differ over {len(runs[0])} runs")
    return moved


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(*sys.argv[2:]) else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/capture_reports.py OUT.json | --compare A.json B.json")
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
