import numpy as np
import pytest
from hypothesis import settings

import framekin as fk

# Every hypothesis test draws the same examples on every run, so a failure it finds comes back.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def minkowski():
    return fk.minkowski_metric()


@pytest.fixture(scope="session")
def friedmann_small():
    """Weak expansion with the standard drift momentum."""
    return fk.make_friedmann(1e-3, 0.1005)


@pytest.fixture(scope="session")
def friedmann_a03():
    return fk.make_friedmann(0.3)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def random_points(rng, n, t_range=(0.0, 2.0), x_range=(-1.0, 1.0)):
    pts = np.empty((n, 4))
    pts[:, 0] = rng.uniform(*t_range, n)
    pts[:, 1:] = rng.uniform(*x_range, (n, 3))
    return [tuple(p) for p in pts]


def survey_frames():
    """(metric, frame) for the five frame kinds the CLI surveys."""
    mink = fk.minkowski_metric()
    model = fk.make_friedmann(0.05, 0.3)
    rot = fk.rotating_minkowski_frame(0.15, 5.0)
    return [
        (mink, fk.inertial_frame(mink)),
        (mink, fk.boosted_inertial_frame(0.4, mink)),
        (rot.metric, rot),
        (model.metric, model.frame_comoving),
        (model.metric, model.frame_drifting),
    ]


def boosted_tetrad(model, t, v=0.4):
    """Orthonormal axes at time t of the expanding model, boosted along x^1 and not diagonal."""
    r, gam = model.scale.value(t), 1.0 / np.sqrt(1.0 - v * v)
    return np.array([[gam, gam * v / r, 0, 0], [gam * v, gam / r, 0, 0], [0, 0, 1 / r, 0], [0, 0, 0, 1 / r]])
