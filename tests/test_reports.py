"""Every run of tools/capture_reports.py against its committed golden capture.

The golden file holds each run's exit code, report less ``wall_time_s``, stderr, warnings and the
SHA-256 of its CSV.  A change that moves any of them on purpose regenerates the file with
``python tools/capture_reports.py tests/data/reports_golden.json`` and lists what moved.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "reports_golden.json"
sys.path.insert(0, str(ROOT / "tools"))

import capture_reports  # noqa: E402  (the one list of runs)


def test_capture_runs_match_the_golden_file(monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = capture_reports.versions()
    assert {k: golden[k] for k in here} == here, (
        f"the golden file was made with Python {golden['python']} and numpy {golden['numpy']}, "
        f"this is Python {here['python']} and numpy {here['numpy']}: regenerate it and check what moved"
    )
    monkeypatch.delenv("FRAMEKIN_LOG", raising=False)
    moved = capture_reports.differences(golden, capture_reports.capture())
    assert not moved, f"{len(moved)} fields differ from the golden capture:\n" + "\n".join(moved)
