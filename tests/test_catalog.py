"""Random fans from the pivot walk against the loop over all d-subsets.

The walk rejects a draw whose polytope is unbounded at once, where the
subset loop returns cells that validation then rejects, so the two are
compared at the fan level: the draw that is kept, its rays and its cells.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, geometry, sim
from facetfit import fan as fan_mod

from oracles import subset_random_polytopal_fan

# Every (d, n, seed) that the tests, the benchmark and CI build.
SEEDS_IN_USE = sorted(
    {(2, 7, 101), (3, 6, 203), (3, 8, 204), (3, 9, 5), (3, 10, 11),
     (3, 12, 7), (3, 14, 13), (4, 12, 1)}
    | {(2, 5 + k % 4, 100 + k) for k in range(5)}
    | {(3, 6 + k % 3, 200 + k) for k in range(5)})


def assert_same_fan(d, n, seed):
    try:
        expected = subset_random_polytopal_fan(d, n, seed)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=str(exc)):
            catalog.random_polytopal_fan(d, n, seed)
        return
    fan = catalog.random_polytopal_fan(d, n, seed)
    assert fan.rays.tobytes() == expected.rays.tobytes()
    assert fan.cells == expected.cells


@pytest.mark.parametrize("d, n, seed", SEEDS_IN_USE)
def test_walk_fans_equal_subset_fans_for_every_seed_in_use(d, n, seed):
    assert_same_fan(d, n, seed)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), extra=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_walk_fans_equal_subset_fans(d, extra, seed):
    assert_same_fan(d, d + extra, seed)


def test_two_hundred_rays_build_and_validate_within_ten_seconds():
    start = time.perf_counter()
    fan = catalog.random_polytopal_fan(3, 200, seed=7)
    assert time.perf_counter() - start < 10.0
    # A simple 3-polytope with F facets has 2F - 4 vertices.
    assert fan.n_cells == 2 * 200 - 4


@pytest.mark.parametrize("d, n", [(4, 10), (5, 12)])
def test_fans_above_three_dimensions_run_a_convergence_replicate(d, n):
    fan = catalog.random_polytopal_fan(d, n, seed=1)
    assert fan.dim == d and fan.n_rays == n
    h0 = np.ones(n)
    assert geometry.is_deformation(fan, h0)
    records = sim.run_convergence(
        fan, h0, lambda m: sim.facet_direction_plan(fan, m, seed=3), [60, 120],
        1, sim.NoiseModel(sigma=0.05, seed=2))
    assert not any(r.failed for r in records)
    assert all(np.isfinite(r.hausdorff_error) for r in records)


@pytest.mark.parametrize("d, n", [(1, 4), (0, 3), (3, 3)])
def test_random_fans_refuse_a_dimension_below_two_or_too_few_rays(d, n):
    with pytest.raises(ValueError):
        catalog.random_polytopal_fan(d, n, seed=1)


def test_regular_polygon_fan_refuses_fewer_than_three_rays():
    with pytest.raises(ValueError, match="^need at least 3 rays$"):
        catalog.regular_polygon_fan(2)


def test_an_error_inside_validation_is_not_taken_for_an_invalid_draw(monkeypatch):
    calls = []

    def broken(fan):
        calls.append(fan)
        raise TypeError("a fault inside validation")

    monkeypatch.setattr(fan_mod, "validate", broken)
    with pytest.raises(TypeError, match="a fault inside validation"):
        catalog.random_polytopal_fan(3, 6, seed=203)
    assert len(calls) == 1
