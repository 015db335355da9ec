import contextlib
import dataclasses
import signal

import numpy as np
import pytest
from hypothesis import settings

from facetfit import catalog, geometry, qp
from facetfit.fan import SimplicialFan

# The same examples on every run, and no example database carried from one
# run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


class TimeLimit(Exception):
    """A call guarded by ``time_limit`` ran past its limit."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise ``TimeLimit`` in the guarded block after ``seconds``, so that a
    call that never ends fails its test instead of stalling the run."""
    def expire(signum, frame):
        raise TimeLimit(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def uncertified(monkeypatch):
    """``qp._certify`` reporting a KKT residual of twice its tolerance, so
    that every solve in the test fails its certificate."""
    certify = qp._certify

    def report(*args, **kwargs):
        sol = certify(*args, **kwargs)
        return dataclasses.replace(sol, kkt_residual=2.0 * sol.kkt_tolerance)

    monkeypatch.setattr(qp, "_certify", report)


@pytest.fixture(scope="session")
def hexagon():
    return catalog.hexagon_fan()


@pytest.fixture(scope="session")
def roof_y():
    return catalog.roof_fan_y()


@pytest.fixture(scope="session")
def roof_x():
    return catalog.roof_fan_x()


@pytest.fixture(scope="session")
def random_fans():
    """Five 2D and five 3D random polytopal fans with fixed seeds."""
    fans = [catalog.random_polytopal_fan(2, 5 + k % 4, seed=100 + k) for k in range(5)]
    fans += [catalog.random_polytopal_fan(3, 6 + k % 3, seed=200 + k) for k in range(5)]
    return fans


def interior_vector(fan: SimplicialFan) -> np.ndarray:
    """A support vector strictly inside the deformation cone of known fans."""
    walls = fan.wall_system.matrix
    for candidate in (np.ones(fan.n_rays),
                      np.array([4.0, 4.0, 2.0, 2.0, 0.0])[:fan.n_rays],
                      np.array([2.0, 2.0, 4.0, 4.0, 0.0])[:fan.n_rays]):
        if candidate.shape == (fan.n_rays,) and walls.shape[0] \
                and np.min(walls @ candidate) > 1e-9:
            return candidate
    raise AssertionError("no interior vector known for this fan")


def random_members(fan: SimplicialFan, count: int, seed: int,
                   translations: bool = True) -> np.ndarray:
    """Support vectors in the deformation cone around an interior point.

    Gaussian perturbations of the interior seed, shrunk until the walls
    hold, optionally composed with random translations (which preserve
    every wall value exactly).
    """
    rng = np.random.default_rng(seed)
    base = interior_vector(fan)
    out = np.empty((count, fan.n_rays))
    for k in range(count):
        h = base + rng.standard_normal(fan.n_rays)
        scale = 1.0
        while not geometry.is_deformation(fan, base + scale * (h - base)):
            scale *= 0.5
        h = base + scale * (h - base)
        if translations and rng.random() < 0.4:
            h = h + fan.rays @ rng.standard_normal(fan.dim)
        out[k] = h
    return out
