"""Scenario runner: exit codes, determinism, schema conformance."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import framekin
from framekin.cli import main, run_scenario

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
