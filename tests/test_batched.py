"""The batched carrier, sampling and probe paths against their per-row loops.

Each batched path must reproduce the loop in ``oracles`` bit for bit: the
same carrier cells, coefficients, samples and random stream.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, sim
from facetfit.design import build_design
from facetfit.fan import NoCarrier, SimplicialFan, ValidationReport, carriers, validate
from facetfit.sim import make_plan, sample_concentrated, sample_uniform_sphere

from oracles import (
    cell_inverses,
    loop_carrier,
    loop_completeness_probe,
    loop_concentrated,
    loop_design,
    loop_uniform_sphere,
)


@functools.cache
def fans():
    return (catalog.hexagon_fan(), catalog.regular_polygon_fan(8),
            catalog.roof_fan_y(), catalog.cube_fan(3), catalog.cube_fan(4),
            catalog.random_polytopal_fan(2, 7, seed=101),
            catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(3, 8, seed=204),
            catalog.random_polytopal_fan(3, 12, seed=7))


def mixed_directions(fan, seed: int, scale: float) -> np.ndarray:
    """Gaussian rows, exact and scaled rays, directions on the faces of
    cells (sums of some of a cell's generators, so shared by neighbours),
    and zero rows, shuffled."""
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal((12, fan.dim)), fan.rays, scale * fan.rays]
    for cell in fan.cells:
        gens = fan.rays[list(cell)]
        weights = rng.random(fan.dim)
        weights[rng.integers(fan.dim)] = 0.0   # on a wall of the cell
        rows.append((weights @ gens)[None])
        rows.append(gens[:2].sum(axis=0)[None])
    rows.append(np.zeros((2, fan.dim)))
    U = np.vstack(rows) * scale
    return U[rng.permutation(len(U))]


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-6, 3.7, 1e6]))
def test_carriers_equal_loop(index, seed, scale):
    fan = fans()[index]
    U = mixed_directions(fan, seed, scale)
    cells, coeffs = carriers(fan, U)
    inverses = cell_inverses(fan)
    for i, u in enumerate(U):
        if not np.any(u):
            assert cells[i] == -1 and not np.any(coeffs[i])
            continue
        cell, expected = loop_carrier(fan, u, inverses)
        assert cells[i] == cell
        assert coeffs[i].tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(index=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-6, 1e6]))
def test_build_design_equals_loop(index, seed, scale):
    fan = fans()[index]
    U = mixed_directions(fan, seed, scale)
    U = U[np.any(U != 0.0, axis=1)]
    design = build_design(fan, U)
    matrix, cells = loop_design(fan, U)
    assert design.matrix.tobytes() == matrix.tobytes()
    assert design.carrier_cells.tobytes() == cells.tobytes()


def test_build_design_reports_the_loops_bad_row():
    hexagon = catalog.hexagon_fan()
    U = mixed_directions(hexagon, 5, 1.0)
    with pytest.raises(NoCarrier) as fast:
        build_design(hexagon, U)
    with pytest.raises(NoCarrier) as slow:
        loop_design(hexagon, U)
    assert fast.value.row == slow.value.row
    assert str(fast.value) == str(slow.value)
    assert "zero vector" in str(fast.value)

    # Outside the support of an incomplete fan, with validation bypassed.
    quadrant = catalog.orthant_fan(2)
    quadrant._validation = ValidationReport(True, True, True, True, True)
    U = np.array([[1.0, 0.5], [0.2, 0.0], [-1.0, 0.5], [0.0, 0.0]])
    with pytest.raises(NoCarrier) as fast:
        build_design(quadrant, U)
    with pytest.raises(NoCarrier) as slow:
        loop_design(quadrant, U)
    assert fast.value.row == slow.value.row == 2
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_uniform_sphere_equals_loop(d):
    for seed in range(3):
        fast = sample_uniform_sphere(d, 500, seed=seed)
        assert fast.tobytes() == loop_uniform_sphere(d, 500, seed).tobytes()


def test_uniform_sphere_refill_row_equals_loop(monkeypatch):
    # The batched draw hands a row to gaussian_polar only when that row's
    # pairs fall short; seed 3 first does so at row 15385.
    calls = []
    polar = sim.gaussian_polar
    monkeypatch.setattr(sim, "gaussian_polar",
                        lambda rng, size: calls.append(size) or polar(rng, size))
    fast = sample_uniform_sphere(3, 20000, seed=3)
    monkeypatch.undo()
    assert calls, "the refill path was not reached"
    assert fast.tobytes() == loop_uniform_sphere(3, 20000, 3).tobytes()


def concentrated_cases():
    return [(catalog.hexagon_fan(), 0.008, 0.03, 300),
            (catalog.random_polytopal_fan(3, 6, seed=203), 0.004, 0.08, 300),
            (catalog.cube_fan(4), 0.004, 0.02, 200),
            (catalog.cube_fan(5), 0.002, 0.03, 150)]


@pytest.mark.parametrize("case", range(4))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_concentrated_equals_loop(case, seed):
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, seed)
    assert sum(plan.quotas) < m  # quota slots and a uniform fill
    fast = sample_concentrated(fan, plan)
    assert fast.tobytes() == loop_concentrated(fan, plan).tobytes()


def test_exact_ray_plan_equals_loop():
    fan = catalog.cube_fan(4)
    plan = sim.facet_direction_plan(fan, 100, delta=0.1, seed=4)
    assert sample_concentrated(fan, plan).tobytes() == \
        loop_concentrated(fan, plan).tobytes()


def test_completeness_probe_equals_loop():
    for fan in fans():
        report = validate(fan)
        assert report.ok and loop_completeness_probe(fan) == (True, [])
    hexagon = catalog.hexagon_fan()
    cube = catalog.cube_fan(3)
    for broken in (SimplicialFan(hexagon.rays, hexagon.cells[:-1]),
                   SimplicialFan(cube.rays, cube.cells[1:]),
                   SimplicialFan(cube.rays, cube.cells + cube.cells[:1])):
        report = validate(broken)
        ok, messages = loop_completeness_probe(broken)
        assert not ok and not report.completeness_probe
        assert messages[0] in report.messages
