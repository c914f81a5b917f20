"""Scenario runner: exit codes, determinism, schema conformance."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import framekin
import framekin.cli as cli
import framekin.reports as reports
from framekin.cli import main, run_scenario
from framekin.frames import FrameCausalityError
from framekin.geometry import ChartDomainError, MetricSignatureError, SingularMetricError
from framekin.normal import NonFiniteConnectionError, TubeDomainError

SCHEMA_PATH = Path(framekin.__file__).parent / "data" / "report.schema.json"

try:
    import jsonschema

    HAS_JSONSCHEMA = True
except ImportError:  # pragma: no cover
    HAS_JSONSCHEMA = False


def _validate(report):
    if HAS_JSONSCHEMA:
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)


def _load(path):
    report = json.loads(Path(path).read_text())
    _validate(report)
    return report


def test_decompose_minkowski_all_zero(tmp_path, capsys):
    out = tmp_path / "dec.json"
    rc = main(["decompose", "--model", "minkowski", "--frame", "inertial", "--out", str(out)])
    assert rc == 0
    report = _load(out)
    assert report["result"]["theta"] == 0.0
    assert all(v == 0.0 for v in report["result"]["accel"])
    assert all(v == 0.0 for v in report["result"]["vorticity"])


def test_plli_report(tmp_path):
    out = tmp_path / "plli.json"
    rc = main(["plli", "--a", "1e-3", "--v", "0.1", "--out", str(out)])
    assert rc == 0
    report = _load(out)
    res = report["result"]
    assert abs(res["theta_L"]) < 1e-8
    assert res["theta_Lprime"] > 0
    assert "ratio_to_av2" in res
    assert res["published_coefficient"] == 2.0


def test_plli_small_expansion_rate(tmp_path):
    out = tmp_path / "plli.json"
    rc = main(["plli", "--a", "1e-7", "--v", "0.1", "--out", str(out)])
    assert rc == 0
    v = 0.1
    want = ((3 - v * v) / np.sqrt(1 - v * v) - 3) / (v * v)
    assert abs(_load(out)["result"]["ratio_to_av2"] - want) < 1e-6


def test_geodesic_csv_matches_closed_form(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "traj.csv"
    rc = main(["geodesic", "--a", "1e-3", "--u", "0.1005", "--smax", "2.0", "--step", "1e-3", "--out", str(csv_path)])
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "s,t,x1,x2,x3,u0,u1,u2,u3"
    a, u = 1e-3, 0.1005
    for line in rows[1::400]:
        vals = [float(x) for x in line.split(",")]
        t, u0, u1 = vals[1], vals[5], vals[6]
        r = 1 + a * t
        expect = u / (r * np.sqrt(r * r + u * u))
        assert abs(u1 / u0 - expect) < 1e-8


def test_truncated_geodesic_report_says_why(tmp_path, capsys):
    rc = main(["geodesic", "--a", "1e300", "--smax", "0.01", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    _validate(report)
    res = report["result"]
    assert res["truncated"] and res["steps"] == 0
    assert res["reason"] == "friedmann(a=1e+300): singular metric, det=-inf"
    # an untruncated report carries no reason
    rc = main(["geodesic", "--smax", "0.01", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert not res["truncated"] and "reason" not in res


@pytest.mark.parametrize("a, cond", [("1e60", "2.50e+113"), ("1e150", "2.50e+293")])
def test_finite_metric_with_overflowing_determinant_is_refused_by_its_condition(tmp_path, capsys, a, cond):
    # g = diag(1, -R^2, -R^2, -R^2) is finite at the first stage, but det g = -R^6 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["geodesic", "--a", a, "--smax", "0.01", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["truncated"] and res["steps"] == 0
    assert res["reason"] == f"friedmann(a={float(a)}): metric numerically singular, cond={cond}"


@pytest.mark.parametrize(
    "a, reason",
    [("1e156", "metric numerically singular, cond=2.50e+305"), ("1e300", "singular metric, det=-inf")],
)
def test_refused_geodesic_prints_no_overflow_warning(tmp_path, capsys, a, reason):
    # R^2 or its gradient overflows at the first stage; the refusal is the only word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["geodesic", "--a", a, "--smax", "0.01", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["truncated"] and res["steps"] == 0
    assert res["reason"] == f"friedmann(a={float(a)}): {reason}"


# Reports (less wall_time_s and csv_path) and trajectories of three short geodesic runs,
# pinned byte for byte; the trajectories are in tests/data.
_GEODESIC_RUNS = [
    ("1e-4", "0", 0.0),
    ("1e-3", "0.25", 1.1102230246251565e-15),
    ("1e-2", "0.5", 1.5543122344752192e-15),
]


@pytest.mark.parametrize("a, u, drift", _GEODESIC_RUNS)
def test_geodesic_output_bit_for_bit(tmp_path, capsys, a, u, drift):
    csv_path = tmp_path / "traj.csv"
    assert main(["geodesic", "--a", a, "--u", u, "--smax", "0.05", "--out", str(csv_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"], report["result"]["csv_path"]
    assert report == {
        "inputs": {"a": float(a), "scenario": "geodesic", "smax": 0.05, "u": float(u)},
        "result": {"max_norm_drift": drift, "samples": 51, "steps": 50, "truncated": False},
        "scenario": "geodesic",
        "tolerance": 1e-07,
        "tool_version": "0.1.0",
    }
    pinned = Path(__file__).parent / "data" / f"geodesic_a{a}_u{u}.csv"
    assert csv_path.read_bytes() == pinned.read_bytes()


def test_non_finite_metric_exits_2_naming_the_metric(tmp_path, capsys):
    rc = main(["normal-chart", "--point", "1e300,0,0,0", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "friedmann(a=0.001): components not finite at [1e+300, 0.0, 0.0, 0.0]" in err


@pytest.mark.parametrize("scenario", ["decompose", "classify", "pirf-check", "equivalence"])
def test_overflowing_drifting_frame_exits_2_naming_it(scenario, tmp_path, capsys):
    # at u = 1e300 the drifting frame's norm is NaN, which once passed the causality check
    argv = [scenario, "--u", "1e300", "--out", str(tmp_path / "r.json")]
    assert main(argv + ([] if scenario == "equivalence" else ["--frame", "drifting"])) == 2
    assert "drifting: components not finite at [0.0, 0.0, 0.0, 0.0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "a, what",
    [
        ("1e300", "connection or its derivative not finite"),
        ("1e200", "connection or its derivative not finite"),
        ("2e154", "connection or its derivative not finite"),
        ("5e153", "connection products overflow the cubic map term"),
    ],
)
def test_overflowing_connection_at_normal_chart_base_exits_3_naming_it(a, what, tmp_path, capsys):
    # the connection derivative grows as a^2 and overflows; the base point itself is inside the domain
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["normal-chart", "--a", a, "--out", str(tmp_path / "r.json")]) == 3
    assert f"friedmann(a={float(a)}): {what} at base point [0.0, 0.0, 0.0, 0.0]" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]  # the refusal is the only word


def test_experiment_scenario(tmp_path):
    out = tmp_path / "exp.json"
    rc = main(["experiment", "--a", "1e-3", "--u", "0.1005", "--v-probe", "0.01", "--out", str(out)])
    assert rc == 0
    report = _load(out)
    assert report["result"]["asymmetry"] > 0


def test_classify_and_pirf_scenarios(tmp_path):
    out = tmp_path / "cls.json"
    rc = main(["classify", "--model", "friedmann", "--a", "1e-3", "--frame", "comoving", "--out", str(out)])
    assert rc == 0
    assert _load(out)["result"]["classification"] == "ProperTimeSynchronizable"

    out2 = tmp_path / "pirf.json"
    rc = main(["pirf-check", "--model", "friedmann", "--a", "1e-3", "--u", "0.1005", "--frame", "drifting", "--tol", "1e-8", "--out", str(out2)])
    assert rc == 0
    assert _load(out2)["result"]["is_pirf"] is True

    out3 = tmp_path / "rot.json"
    rc = main([
        "pirf-check", "--model", "minkowski", "--frame", "rotating", "--omega", "0.1",
        "--box-lo", "0,0.5,0.2,-0.2", "--box-hi", "0.5,1.5,1.0,0.2", "--tol", "1e-8", "--out", str(out3),
    ])
    assert rc == 0
    rep = _load(out3)
    assert rep["result"]["is_pirf"] is False
    assert rep["result"]["max_wedge"] > 1e-3


def test_normal_chart_scenario(tmp_path):
    out = tmp_path / "chart.json"
    rc = main(["normal-chart", "--model", "friedmann", "--a", "0.3", "--point", "0.5,0.1,-0.2,0.3", "--out", str(out)])
    assert rc == 0
    res = _load(out)["result"]
    assert res["metric_deviation_at_origin"] < 1e-10
    assert res["gamma_max_at_origin"] < 1e-8
    assert res["curvature_relation_deviation"] < 1e-6
    assert res["deviation_growth_exponent"] >= 1.9


def test_equivalence_scenario(tmp_path):
    out = tmp_path / "eq.json"
    rc = main(["equivalence", "--model", "friedmann", "--a", "1e-3", "--u", "0.1005", "--frames", "comoving,drifting", "--out", str(out)])
    assert rc == 0
    rep = _load(out)
    assert rep["result"]["verdict"] == "NotEquivalent"

    out2 = tmp_path / "eq2.json"
    rc = main(["equivalence", "--model", "minkowski", "--frames", "inertial,boosted", "--speed", "0.5", "--out", str(out2)])
    assert rc == 0
    assert _load(out2)["result"]["verdict"] == "Equivalent"


def test_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-scenario"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "plli" in err and "decompose" in err  # lists the scenarios


def test_invalid_parameter_exits_2(capsys):
    rc = main(["experiment", "--a", "1e-3", "--u", "0.1", "--v-probe", "2.0"])
    assert rc == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a": 1e-3, "bogus_key": 1}')
    rc = main(["plli", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": "decompose", "model": "friedmann", "a": 1e-3, "frame": "comoving"}')
    out = tmp_path / "r.json"
    rc = main(["decompose", "--config", str(cfg), "--frame", "drifting", "--u", "0.1005", "--out", str(out)])
    assert rc == 0
    assert _load(out)["result"]["frame_label"] == "drifting"


def test_csv_format_rejected_outside_geodesic(capsys):
    rc = main(["plli", "--a", "1e-3", "--v", "0.1", "--format", "csv"])
    assert rc == 2


def test_determinism_excluding_wall_time(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(["decompose", "--model", "friedmann", "--a", "1e-3", "--u", "0.1005", "--frame", "drifting", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        lines = [ln for ln in text.splitlines() if '"wall_time_s"' not in ln]
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]


def test_numbers_serialized_with_17_significant_digits(tmp_path):
    out = tmp_path / "r.json"
    main(["decompose", "--model", "friedmann", "--a", "1e-3", "--u", "0.1005", "--frame", "drifting", "--out", str(out)])
    text = out.read_text()
    assert "0.0030050626856981807" in text  # expansion rate, 17 digits


def test_escape_equals_the_character_loop():
    def reference(s):
        out = []
        for ch in s:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        return "".join(out)

    every = "".join(map(chr, range(0x110000)))  # lone surrogates included
    assert reports._escape(every) == reference(every)


def test_run_scenario_unknown_name():
    with pytest.raises(ValueError):
        run_scenario({"scenario": "nope"})


def test_numeric_failure_exits_3(monkeypatch, capsys):
    import framekin.cli as cli

    def boom(cfg):
        raise ArithmeticError("synthetic numeric blowup")

    monkeypatch.setitem(cli._RUNNERS, "plli", boom)
    rc = main(["plli", "--a", "1e-3", "--v", "0.1"])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_non_finite_result_exits_3(monkeypatch, capsys):
    import framekin.cli as cli

    monkeypatch.setitem(cli._RUNNERS, "normal-chart", lambda cfg: {"deviation_growth_exponent": float("nan")})
    rc = main(["normal-chart", "--model", "minkowski"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def test_normal_chart_minkowski_has_no_growth_exponent(tmp_path):
    # flat space has zero metric deviation at every radius: no growth rate to fit
    out = tmp_path / "flat.json"
    assert main(["normal-chart", "--model", "minkowski", "--out", str(out)]) == 0
    res = _load(out)["result"]
    assert res["deviation_growth_exponent"] is None
    assert [d for _, d in res["deviation_ladder"]] == [0.0] * 4


@pytest.mark.parametrize("a", ["1e4", "1e6", "1e8", "1e10"])
def test_plli_on_a_path_without_dense_output_exits_2(a, capsys):
    # the drifting geodesic leaves the domain within its first step: one knot, no lab chart
    rc = main(["plli", "--a", a, "--v", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "no dense output" in err and "Traceback" not in err


def test_non_finite_tolerance_exits_2(capsys):
    rc = main(["classify", "--model", "minkowski", "--tol", "nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err


@pytest.mark.parametrize("grid", [0, 17, 2.5])
def test_grid_out_of_range_exits_2(grid, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "minkowski", "frame": "inertial", "grid": grid}))
    runs = [["classify", "--config", str(cfg)]]
    if isinstance(grid, int):  # argparse itself refuses --grid 2.5
        runs.append(["pirf-check", "--model", "minkowski", "--grid", str(grid)])
    for argv in runs:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("framekin: invalid configuration: grid must be an integer")
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--step", "0"], "step"),
        (["--step=-1e-3"], "step"),
        (["--step", "nan"], "step"),
        (["--smax", "inf"], "smax"),
        (["--smax", "0"], "smax"),
        (["--step", "1e-9", "--smax", "10"], "smax / step"),
        (["--step", "1e-4", "--smax", "10.01"], "smax / step"),
    ],
)
def test_unbounded_geodesic_work_exits_2(flags, key, monkeypatch, tmp_path, capsys):
    import framekin.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the configuration should be refused before integrating")

    monkeypatch.setattr(cli, "integrate_geodesic", never)
    rc = main(["geodesic", *flags, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"framekin: invalid configuration: {key} must be") and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def test_geodesic_step_cap_is_inclusive(tmp_path, monkeypatch, capsys):
    import framekin.cli as cli

    def reached(metric, p0, v0, smax, control):
        assert smax / control.step == cli._MAX_STEPS
        raise ArithmeticError("integration reached")

    monkeypatch.setattr(cli, "integrate_geodesic", reached)
    assert main(["geodesic", "--step", "1e-4", "--smax", "10", "--out", str(tmp_path / "t.csv")]) == 3
    assert "integration reached" in capsys.readouterr().err


def test_unwritable_report_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    rc = main(["decompose", "--model", "minkowski", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("framekin: cannot write output") and "Traceback" not in err


def test_unwritable_trajectory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "t.csv"
    rc = main(["geodesic", "--smax", "0.01", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("framekin: cannot write output") and "Traceback" not in err


def test_log_level_env(monkeypatch, tmp_path, caplog):
    monkeypatch.setenv("FRAMEKIN_LOG", "INFO")
    out = tmp_path / "r.json"
    rc = main(["decompose", "--model", "minkowski", "--frame", "inertial", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize(
    "scenario, cfg, key",
    [
        ("plli", {"a": None}, "a"),
        ("plli", {"a": [1]}, "a"),
        ("plli", {"tol": None}, "tol"),
        ("equivalence", {"frames": 5}, "frames"),
        ("decompose", {"frame": ["x"]}, "frame"),
        ("plli", {"out": ["x"]}, "out"),
        ("plli", {"out": 7}, "out"),
        ("plli", {"out": 1}, "out"),
        ("plli", {"format": 5}, "format"),
        ("classify", {"grid": True}, "grid"),
        ("normal-chart", {"point": "0,0,nan,0"}, "point"),
        ("geodesic", {"step": "-1"}, "step"),
        ("plli", {"v": 10**400}, "v"),
    ],
)
def test_invalid_config_value_names_its_key(scenario, cfg, key, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([scenario, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"framekin: invalid configuration: {key} must be ") and "Traceback" not in err
    assert err.rstrip().endswith(f"got {cfg[key]!r}")


@pytest.mark.parametrize(
    "argv, key",
    [
        (["plli", "--a", "nan"], "a"),
        (["classify", "--omega", "nan"], "omega"),
        (["decompose", "--u", "nan", "--frame", "drifting"], "u"),
        (["experiment", "--v-probe", "inf"], "v_probe"),
        (["pirf-check", "--box-hi", "1,1,1"], "box_hi"),
    ],
)
def test_invalid_flag_value_names_its_key(argv, key, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"framekin: invalid configuration: {key} must be ") and "Traceback" not in err


def test_numeric_strings_in_a_config_are_accepted_and_echoed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": "friedmann", "a": "1e-3", "u": "0.1005", "frame": "drifting"}')
    out, ref = tmp_path / "r.json", tmp_path / "ref.json"
    assert main(["decompose", "--config", str(cfg), "--out", str(out)]) == 0
    argv = ["decompose", "--a", "1e-3", "--u", "0.1005", "--frame", "drifting", "--out", str(ref)]
    assert main(argv) == 0
    report = _load(out)
    assert report["inputs"]["u"] == "0.1005"
    assert report["result"] == _load(ref)["result"]


def test_singular_metric_stop_names_its_metric(capsys):
    assert main(["plli", "--a", "1e10", "--v", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "friedmann(a=" in err and "metric: metric" not in err


@pytest.mark.parametrize(
    "error, code",
    [
        (ChartDomainError("outside the chart"), 2),
        (MetricSignatureError("not Lorentzian"), 2),
        (TubeDomainError("outside the tube"), 2),
        (FrameCausalityError("not timelike"), 2),
        (SingularMetricError("singular"), 3),
        (NonFiniteConnectionError("connection not finite"), 3),
        (ZeroDivisionError("division by zero"), 3),
        (ArithmeticError("blowup"), 3),
    ],
)
def test_exit_code_of_each_error(error, code, monkeypatch, capsys):
    def fail(cfg):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "plli", fail)
    assert main(["plli"]) == code
    err = capsys.readouterr().err
    kind = "invalid configuration" if code == 2 else "numeric failure"
    assert err == f"framekin: {kind}: {error}\n"


def test_parser_is_built_once(monkeypatch, tmp_path):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    counts = []
    for argv in (["decompose", "--model", "minkowski"], ["plli", "--a", "1e-3"]):
        added.clear()
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        counts.append(len(added))
    assert counts[1] == 0
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_leaks_nothing_between_calls(tmp_path, capsys):
    out = tmp_path / "r.json"
    probe = ["decompose", "--model", "friedmann", "--a", "0.05", "--frame", "drifting", "--out", str(out)]

    def run_probe():
        code = main(probe)
        report = json.loads(out.read_text())
        del report["wall_time_s"]
        return code, capsys.readouterr(), report

    before = run_probe()
    with pytest.raises(SystemExit) as usage:
        main(["decompose", "--a", "x"])
    assert usage.value.code == 2
    text = capsys.readouterr()
    assert text.out == "" and text.err.startswith("usage: framekin decompose") and "invalid float value" in text.err
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out == f"framekin {framekin.__version__}\n"
    with pytest.raises(SystemExit) as helped:
        main(["plli", "--help"])
    assert helped.value.code == 0
    text = capsys.readouterr()
    assert text.out.startswith("usage: framekin plli") and text.err == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "decompose", "model": "minkowski", "frame": "rotating"}))
    assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "c.json")]) == 0
    assert main(["normal-chart", "--a", "1e300"]) == 3
    capsys.readouterr()
    assert run_probe() == before
    assert before[0] == 0 and before[1].out == before[1].err == ""


# Values valid for each key; the fuzz test mixes them with the values below.
# Work stays bounded: a valid grid is at most 4, and a geodesic always gets
# an smax, so it takes at most 500 steps of the default step.
_VALID = {
    "a": [1e-3, 0.05],
    "u": [0.0, 0.1005],
    "omega": [0.1],
    "speed": [0.5],
    "v": [0.1, 0.3],
    "v_probe": [0.01],
    "tol": [1e-7, 1e-8],
    "model": ["friedmann", "minkowski"],
    "frame": ["comoving", "drifting", "inertial", "boosted", "rotating"],
    "frames": ["comoving,drifting", "inertial,boosted", ["inertial", "boosted"]],
    "point": ["0,0,0,0", "0.5,0.1,-0.2,0.3"],
    "box_lo": ["0,-0.5,-0.5,-0.5", "0,0.5,0.2,-0.2"],
    "box_hi": ["1,0.5,0.5,0.5", "0.5,1.5,1,0.2"],
    "grid": [1, 2, 4],
    "smax": [0.01, 0.5],
    "step": [0.01, 0.1],
    "out": ["r.out"],
    "format": ["json", "csv"],
}
_EDGE = [
    0, 0.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, float("nan"), float("inf"), float("-inf"),
    10**400, None, True, False, [1.0], {}, "", "x", "nan", "1e300", "0,0,0", "nan,0,0,0", "1e300,-1e300,1e-300,0",
]


@st.composite
def _fuzz_case(draw):
    """(scenario, [(key, value, through a flag?)]) over the scenario's keys and one unknown key."""
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    keys = [*cli._GLOBAL, *cli._DEFAULTS[scenario], "bogus"]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6))
    if scenario == "geodesic" and "smax" not in chosen:
        chosen.append("smax")
    items = []
    for key in chosen:
        edge = draw(st.sampled_from([False, False, True]))  # a third of the values are edge values
        value = draw(st.sampled_from(_EDGE if edge or key not in _VALID else _VALID[key]))
        items.append((key, value, draw(st.booleans())))
    return scenario, items


def _run_case(scenario, items):
    """(exit code, stderr) of main on a case; argparse refusals count by their exit code."""
    config = {k: v for k, v, flag in items if not flag}
    argv = [scenario, *(f"--{k.replace('_', '-')}={v}" for k, v, flag in items if flag)]
    if config:
        Path("cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2 and "error:" in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(case=_fuzz_case())
@example(case=("plli", [("a", None, False)]))
@example(case=("equivalence", [("frames", 5, False)]))
@example(case=("classify", [("omega", float("nan"), True)]))
def test_main_exits_0_2_or_3_without_traceback_on_any_input(case, tmp_path_factory):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))  # the outputs and trajectory.csv land here
    try:
        code, err = _run_case(*case)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3) and "Traceback" not in err


# Every real-valued key of every scenario at extreme values, given as --key=value.
_EXTREMES = ["1e300", "-1e300", "1e200", "-1e200", "2e154", "1e10", "-1e10", "1e-300", "0"]


def test_extreme_real_values_exit_0_2_or_3(tmp_path, capsys):
    bad = []
    for scenario in cli.SCENARIOS:
        for key in (*cli._GLOBAL, *cli._DEFAULTS[scenario]):
            if cli._KEYS[key].flag.get("type") is not float:
                continue
            # decompose, classify and pirf-check evaluate the drifting frame; a geodesic stays short
            base = ["--frame", "drifting"] if scenario in ("decompose", "classify", "pirf-check") else []
            base += ["--smax", "0.01"] if scenario == "geodesic" and key != "smax" else []
            for value in _EXTREMES:
                argv = [scenario, *base, f"--{key.replace('_', '-')}={value}", "--out", str(tmp_path / "r.out")]
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
                err = capsys.readouterr().err
                # the normal chart refuses an overflowing connection before computing with it
                leaked = [str(w.message) for w in caught if w.filename.endswith("normal.py")]
                if code not in (0, 2, 3) or "Traceback" in err or "cannot serialize non-finite number" in err or leaked:
                    bad.append((" ".join(argv[:-2]), code, err, leaked))
    assert not bad


def test_python_m_framekin_runs_the_cli():
    src = str(Path(framekin.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "framekin", "plli", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert "--v" in done.stdout and "RuntimeWarning" not in done.stderr
