import math

import asterhover  # noqa: F401  (first: it pins one BLAS thread before numpy loads)
import numpy as np
import pytest

from asterhover import env, ppo
from asterhover.geometry import (
    GRAVITATIONAL_CONSTANT,
    AsteroidModel,
    ellipsoid_rotation_params,
    generate_icosphere,
)


def make_model(
    mass: float = 1.0e12,
    spin_rate: float = 0.0,
    nutation: float = 0.0,
    phase: float = 0.0,
    axes: tuple[float, float, float] = (500.0, 400.0, 300.0),
    srp: tuple[float, float, float] = (0.0, 0.0, 0.0),
    mesh_level: int = 0,
    mesh_scale: float = 1.0,
) -> AsteroidModel:
    """Asteroid model with hand-picked dynamics, for oracle tests."""
    mesh = generate_icosphere(mesh_level)
    mesh.vertices *= mesh_scale
    _, sigma = ellipsoid_rotation_params(*axes)
    return AsteroidModel(
        mesh=mesh,
        mass=mass,
        gm=GRAVITATIONAL_CONSTANT * mass,
        spin_rate=spin_rate,
        nutation=nutation,
        phase=phase,
        precession_rate=sigma * spin_rate * math.cos(nutation),
        sigma=sigma,
        axes=np.asarray(axes, dtype=np.float64),
        srp_accel=np.asarray(srp, dtype=np.float64),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(autouse=True)
def cold_shape_model_cache():
    """Every test starts with no shape model cached (see env.load_mesh), so
    that none depends on the tests before it."""
    env._shape_model = None


@pytest.fixture
def processes(monkeypatch):
    """A setter of the process count of collection and evaluation: it fixes
    the usable CPUs (BLAS counts as pinned, whatever the environment) and
    returns the list of what each helper forked from then on is dealt: a
    collection helper's lanes, an evaluation helper's episodes, or the copy
    of an update's rng its critic helper draws from."""
    forked = []
    fork_helper = ppo._fork_helper

    def counting(*args):
        forked.append(args[1])
        return fork_helper(*args)

    monkeypatch.setattr(ppo, "BLAS_PINNED", True)
    monkeypatch.setattr(ppo, "_fork_helper", counting)

    def use(count):
        monkeypatch.setattr(ppo, "usable_cpus", lambda: count)
        forked.clear()
        return forked

    return use
