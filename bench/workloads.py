"""Seeded scenario generators for the three benchmark workloads.

A run of a workload takes a fixed list of CLI scenario configs made from a
seed: the same seed always yields the same list.  Parameters are drawn by
Latin hypercube sampling: each parameter's range is cut into as many equal
strata as the list has configs, and each stratum is used once, at a seeded
position.  Even a short list then covers every range evenly, which keeps
medians steady from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("moving-lab", "geodesic-long", "frame-survey")

# Reserved for quoting a claimed gain: never tune or develop against it.
HELD_OUT_SEED = 271828

GEODESIC_STEP = 1e-3
# The README geodesic (smax 10) takes about 7 s.  Proper times of 0.5 to 1.5
# still make 500 to 1500 RK4 steps, and a 30 s run holds about fifty of
# them, so the tail percentile has samples enough to stay put.
GEODESIC_SMAX = (0.5, 1.5)
# Out of every four moving-lab scenarios, three are plli and one experiment,
# so the median lands inside the plli latencies.  Below a = 3e-5 one plli
# can take over a minute: the drift chart's time inversion brackets over an
# interval that grows as 1/a.
PLLI_PER_EXPERIMENT = 3
MOVING_LAB_A = (3e-5, 1e-2)


def latin_hypercube(rng, n, dim):
    """n points of [0, 1)^dim with each coordinate hitting each of n strata once."""
    strata = np.stack([rng.permutation(n) for _ in range(dim)], axis=1)
    return (strata + rng.random((n, dim))) / n


def _log_uniform(x, lo, hi):
    return float(10.0 ** (math.log10(lo) + x * (math.log10(hi) - math.log10(lo))))


def _uniform(x, lo, hi):
    return float(lo + x * (hi - lo))


def drift_momentum(v):
    """Drift momentum u of a drifting observer with metric speed v."""
    return v / math.sqrt(1.0 - v * v)


def _moving_lab(seed, n):
    rng = np.random.default_rng(seed)
    n_experiment = n // (PLLI_PER_EXPERIMENT + 1)
    plli = latin_hypercube(rng, n - n_experiment, 2)
    experiment = latin_hypercube(rng, n_experiment, 3)
    out = []
    for x in plli:
        out.append({"scenario": "plli", "a": _log_uniform(x[0], *MOVING_LAB_A), "v": _uniform(x[1], 0.05, 0.3)})
        if len(out) % (PLLI_PER_EXPERIMENT + 1) == PLLI_PER_EXPERIMENT:
            x = experiment[len(out) // (PLLI_PER_EXPERIMENT + 1)]
            v = _uniform(x[1], 0.05, 0.3)
            out.append(
                {
                    "scenario": "experiment",
                    "a": _log_uniform(x[0], *MOVING_LAB_A),
                    "u": drift_momentum(v),
                    "v_probe": _uniform(x[2], 0.005, 0.05),
                }
            )
    return out


def _geodesic_long(seed, n):
    return [
        {
            "scenario": "geodesic",
            "a": _log_uniform(x[0], 1e-4, 1e-2),
            "u": _uniform(x[1], 0.0, 0.5),
            "smax": _uniform(x[2], *GEODESIC_SMAX),
            "step": GEODESIC_STEP,
        }
        for x in latin_hypercube(np.random.default_rng(seed), n, 3)
    ]


# Frames of the survey with the classification and pseudo-inertial verdict
# each is known to have.
SURVEY_FRAMES = {
    "inertial": ("minkowski", "ProperTimeSynchronizable", True),
    "boosted": ("minkowski", "LocallyProperTimeSynchronizable", True),
    "rotating": ("minkowski", "NonSynchronizable", False),
    "comoving": ("friedmann", "ProperTimeSynchronizable", True),
    "drifting": ("friedmann", "LocallyProperTimeSynchronizable", True),
}
# Frame pairs compared by `equivalence`, with the verdict each must get.
# The rotating frame carries its own light-cylinder metric, and the CLI only
# compares frames on one metric field, so it is not paired.
SURVEY_PAIRS = {
    ("inertial", "boosted"): "Equivalent",
    ("comoving", "drifting"): "NotEquivalent",
}
# The survey visits these cases round-robin, so every round of its list
# holds the same mix.  normal-chart runs on friedmann only: on flat space its
# deviation exponent is log(0) and the CLI cannot serialize the report.
SURVEY_CASES = (
    *(("decompose", f) for f in SURVEY_FRAMES),
    *(("classify", f) for f in SURVEY_FRAMES),
    *(("pirf-check", f) for f in SURVEY_FRAMES),
    *(("equivalence", pair) for pair in SURVEY_PAIRS),
    ("normal-chart", "comoving"),
)


def _point(x):
    return (_uniform(x[0], 0.0, 1.0), *(_uniform(c, -0.5, 0.5) for c in x[1:4]))


def _frame_survey(seed, n):
    rng = np.random.default_rng(seed)
    grid_shift = rng.integers(3, size=len(SURVEY_CASES))
    out = []
    for k, x in enumerate(latin_hypercube(rng, n, 7)):
        case = k % len(SURVEY_CASES)
        scenario, frame = SURVEY_CASES[case]
        first = frame[0] if isinstance(frame, tuple) else frame
        model = SURVEY_FRAMES[first][0]
        cfg = {"scenario": scenario, "model": model}
        if model == "friedmann":
            cfg["a"] = _log_uniform(x[4], 1e-3, 0.3)
            cfg["u"] = _uniform(x[5], 0.1, 0.5)
        if isinstance(frame, tuple):
            cfg["frames"] = ",".join(frame)
        elif scenario != "normal-chart":
            cfg["frame"] = frame
        names = frame if isinstance(frame, tuple) else (frame,)
        if "boosted" in names:
            cfg["speed"] = _uniform(x[6], 0.1, 0.6)
        if "rotating" in names:
            cfg["omega"] = _uniform(x[6], 0.05, 0.2)
        if scenario in ("classify", "pirf-check"):
            # grid sizes 3, 4, 5 in turn, so every three rounds are alike
            cfg["grid"] = 3 + (k // len(SURVEY_CASES) + int(grid_shift[case])) % 3
        else:
            cfg["point"] = _point(x)
        out.append(cfg)
    return out


_GENERATORS = {
    "moving-lab": _moving_lab,
    "geodesic-long": _geodesic_long,
    "frame-survey": _frame_survey,
}


# Distinct configs in one run: one pass over them takes about 8 s on a 2-CPU
# machine, so a 30 s run repeats each three to four times.  frame-survey
# takes six rounds of its cases.
CONFIGS_PER_RUN = {"moving-lab": 8, "geodesic-long": 12, "frame-survey": 6 * len(SURVEY_CASES)}


def configs(workload, seed):
    """The seed-determined scenario configs of one run of a workload."""
    return _GENERATORS[workload](seed, CONFIGS_PER_RUN[workload])


def argv(cfg, out_path):
    """Command line for `framekin.cli.main` that runs one scenario config."""
    args = [cfg["scenario"]]
    for key, val in cfg.items():
        if key == "scenario":
            continue
        if isinstance(val, tuple):
            val = ",".join(repr(c) for c in val)
        args += [f"--{key.replace('_', '-')}", val if isinstance(val, str) else repr(val)]
    return args + ["--out", str(out_path)]
