"""Self-tests of the benchmark code: generators, tracer and percentile rule."""

import sys
import time
import types

import numpy as np

import workloads
from run import tail_percentile
from tracer import Tracer


def test_generator_is_determined_by_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.configs(workload, 7) == workloads.configs(workload, 7)
        assert workloads.configs(workload, 7) != workloads.configs(workload, 8)
        assert workloads.configs(workload, 7) != workloads.configs(workload, workloads.HELD_OUT_SEED)


def test_generator_stratifies_ranges():
    cfgs = workloads.configs("moving-lab", 3)
    plli = [c for c in cfgs if c["scenario"] == "plli"]
    assert [c["scenario"] for c in cfgs].count("experiment") == len(cfgs) // 4
    lo, hi = np.log10(workloads.MOVING_LAB_A)
    strata = np.floor((np.log10([c["a"] for c in plli]) - lo) / (hi - lo) * len(plli))
    assert sorted(strata) == list(range(len(plli)))
    survey = workloads.configs("frame-survey", 3)
    grids = [c["grid"] for c in survey[: 3 * len(workloads.SURVEY_CASES)] if c["scenario"] == "classify"]
    assert sorted(grids) == [3] * 5 + [4] * 5 + [5] * 5


def _fake_package(monkeypatch):
    """`fakepkg.mod` defines inner/outer; `fakepkg.user` binds its own copy of inner."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()

    mod.inner, mod.outer = inner, outer
    user.inner = inner
    for module in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return mod, user


def test_self_time_of_nested_call(monkeypatch):
    mod, user = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg")
    tracer.install(["mod.outer", "mod.inner"])
    try:
        mod.outer()
        user.inner()
    finally:
        tracer.uninstall()
    assert tracer.calls["mod.outer"] == 1
    assert tracer.calls["mod.inner"] == 2  # the copy bound in fakepkg.user is traced too
    inner_in_outer = tracer.total_s["mod.outer"] - tracer.self_s["mod.outer"]
    assert 0.019 <= inner_in_outer < tracer.total_s["mod.outer"]  # inner sleeps 0.02 s
    assert tracer.self_s["mod.outer"] >= 0.009  # outer sleeps 0.01 s itself
    assert tracer.self_s["mod.inner"] == tracer.total_s["mod.inner"]
    assert user.inner is mod.inner and not hasattr(mod.inner, "__wrapped__")


def test_missing_trace_target_is_recorded_as_absent(monkeypatch):
    _fake_package(monkeypatch)
    tracer = Tracer("fakepkg")
    tracer.install(["mod.outer", "mod.gone", "nomodule.fn"])
    tracer.uninstall()
    assert tracer.absent == ["mod.gone", "nomodule.fn"]


def test_tail_percentile_keeps_ten_samples_beyond():
    for n, level in ((200, 95.0), (1000, 99.0), (40, 75.0)):
        got_level, value, beyond = tail_percentile(np.arange(n, dtype=float))
        assert got_level == level and beyond == 10
        assert value == np.percentile(np.arange(n), level)
    level, value, beyond = tail_percentile([3.0, 1.0, 2.0])
    assert (level, value, beyond) == (50.0, 2.0, 1)
