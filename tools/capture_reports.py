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
``wall_time_s``, stderr, the SHA-256 of the CSV trajectory if one was written
and the Python warnings, all into one JSON file together with the Python and
numpy versions that made it.  Run it in two checkouts and compare the two
files with ``cmp``, or list what differs:

    python tools/capture_reports.py --compare A.json B.json

prints each run and field (a report field by its dotted path) whose values
differ, with both values, and exits 1 when any differ, else 0.

    python tools/capture_reports.py --unreached

runs the same commands under a ``sys.setprofile`` call hook and prints each
function defined in ``src/framekin`` (nested functions too, but not lambdas
or generator expressions) that no run enters, as ``file:line qualname``.

``tests/data/reports_golden.json`` is one such capture; ``tests/test_reports.py``
recaptures in-process and compares with it.  A change that moves a report on
purpose regenerates it:

    python tools/capture_reports.py tests/data/reports_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy

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
    """One run's record: exit code, report less wall_time_s, stderr, the CSV's SHA-256 and warnings."""
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
        "csv_sha256": None if csv is None else hashlib.sha256(csv.encode("utf-8")).hexdigest(),
        "warnings": [f"{w.category.__name__} {Path(w.filename).name}: {w.message}" for w in caught],
    }


def fields(record, prefix=""):
    """A record's leaves by dotted path: nested report fields each on their own."""
    if isinstance(record, dict):
        return {k: v for key, sub in record.items() for k, v in fields(sub, f"{prefix}{key}.").items()}
    return {prefix[:-1]: record}


def versions():
    """The Python and numpy versions a capture is made with: the float text of a report can depend on them."""
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def capture():
    """Every command's record, run in this process, with the versions that made them."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from framekin.cli import main as framekin_main

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return {**versions(), "runs": [run(framekin_main, argv, workdir) for argv in commands(workdir)]}


def _functions(code, rel):
    """(file, first line, qualname) of each named function compiled into a code object, nested ones too."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if not const.co_name.startswith("<"):
                yield rel, const.co_firstlineno, const.co_qualname
            yield from _functions(const, rel)


def unreached():
    """Each function in src/framekin that no capture run enters, in file and line order."""
    src = ROOT / "src"
    package = src / "framekin"
    defined = set()
    for path in sorted(package.glob("*.py")):
        rel = str(path.relative_to(src))
        defined.update(_functions(compile(path.read_text(encoding="utf-8"), rel, "exec"), rel))
    entered = set()
    prefix = str(package) + os.sep

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            entered.add((str(Path(code.co_filename).relative_to(src)), code.co_firstlineno, code.co_qualname))

    sys.setprofile(hook)
    try:
        capture()
    finally:
        sys.setprofile(None)
    return sorted(defined - entered)


def differences(a, b):
    """The versions and each run's dotted fields that differ between two captures, as lines naming both values."""
    out = [f"{key}: {a[key]} -> {b[key]}" for key in ("python", "numpy") if a[key] != b[key]]
    if [r["argv"] for r in a["runs"]] != [r["argv"] for r in b["runs"]]:
        return out + ["the two captures ran different commands"]
    for ra, rb in zip(a["runs"], b["runs"]):
        fa, fb = fields(ra), fields(rb)
        for key in sorted(set(fa) | set(fb)):  # compared as written: -0.0 is not 0.0, nor 1 1.0
            if key not in fa or key not in fb or json.dumps(fa[key]) != json.dumps(fb[key]):
                out.append(f"{ra['argv']}\n  {key}: {fa.get(key, '<absent>')!r} -> {fb.get(key, '<absent>')!r}")
    return out


def compare(path_a, path_b):
    """Print each run and field that differs between two captures, with both values; the count."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    moved = differences(a, b)
    for line in moved:
        print(line)
    print(f"{len(moved)} fields differ over {len(a['runs'])} runs")
    return len(moved)


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(*sys.argv[2:]) else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/capture_reports.py OUT.json | --compare A.json B.json | --unreached")
    sys.dont_write_bytecode = True  # leave no cache beside the benchmark's sources
    os.environ.pop("FRAMEKIN_LOG", None)
    if sys.argv[1] == "--unreached":
        missed = unreached()
        for rel, line, name in missed:
            print(f"{rel}:{line} {name}")
        print(f"{len(missed)} functions in src/framekin entered by no capture run")
        return
    records = capture()
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(records['runs'])} runs captured to {sys.argv[1]}")


if __name__ == "__main__":
    main()
