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
from facetfit import fan as fan_mod
from facetfit.design import DesignMatrix, build_design, direction_graph
from facetfit.fan import (NoCarrier, SimplicialFan, ValidationReport, carriers,
                          row_min, validate)
from facetfit.qp import BlockMatrix
from facetfit.sim import make_plan, sample_concentrated, sample_uniform_sphere

from oracles import (
    cell_inverses,
    loop_carrier,
    loop_completeness_probe,
    loop_concentrated,
    loop_design,
    loop_direction_graph,
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
    """(fan, t, delta, m) plans.  The last two are pinned below: about half
    the trials of the 2D fan are rejected, and on the 5D cube a row of the
    rejection pass can need the ``gaussian_polar`` refill."""
    return [(catalog.hexagon_fan(), 0.008, 0.03, 300),
            (catalog.random_polytopal_fan(3, 6, seed=203), 0.004, 0.08, 300),
            (catalog.cube_fan(4), 0.004, 0.02, 200),
            (catalog.cube_fan(5), 0.002, 0.03, 150),
            (catalog.random_polytopal_fan(2, 7, seed=101), 0.004, 0.05, 60),
            (catalog.cube_fan(5), 0.002, 0.03, 160)]


@pytest.mark.parametrize("case", range(6))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_concentrated_equals_loop(case, seed):
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, seed)
    assert sum(plan.quotas) < m  # quota slots and a uniform fill
    fast = sample_concentrated(fan, plan)
    assert fast.tobytes() == loop_concentrated(fan, plan).tobytes()


@pytest.mark.parametrize("case, seed", [(4, 0), (5, 73)])
def test_rejection_passes_equal_loop(case, seed, monkeypatch):
    """Case 4 with seed 0 takes at least three passes, and a later pass
    draws more trials than it uses, so the stream is rewound; case 5 with
    seed 73 reaches the ``gaussian_polar`` refill row in its first
    rejection pass."""
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, seed)
    passes, refills, rewinds = [], [], []
    blocks, polar, rewind = sim.carrier_blocks, sim.gaussian_polar, sim._rewind
    monkeypatch.setattr(sim, "carrier_blocks",
                        lambda fan, X: passes.append(len(X)) or blocks(fan, X))
    monkeypatch.setattr(sim, "gaussian_polar",
                        lambda rng, size: refills.append(len(passes)) or polar(rng, size))
    monkeypatch.setattr(sim, "_rewind",
                        lambda *args: rewinds.append(len(passes)) or rewind(*args))
    fast = sample_concentrated(fan, plan)
    monkeypatch.undo()
    assert fast.tobytes() == loop_concentrated(fan, plan).tobytes()
    if case == 4:
        assert len(passes) >= 3 and not refills
        assert rewinds and rewinds[-1] == len(passes)
    else:
        assert 0 in refills and 0 in rewinds


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


def assert_carriers_equal_loop(fan, U):
    """``carriers`` on the stack ``U`` equals ``loop_carrier`` row by row,
    with -1 and a zero row wherever the loop finds no carrier."""
    cells, coeffs = carriers(fan, U)
    inverses = cell_inverses(fan)
    for i, u in enumerate(U):
        try:
            cell, expected = loop_carrier(fan, u, inverses)
        except NoCarrier:
            cell, expected = -1, np.zeros(fan.n_rays)
        assert cells[i] == cell
        assert coeffs[i].tobytes() == expected.tobytes()
    return cells


def vertex_guess(fan, U):
    """The cell whose vertex of P(h°) maximizes <u, x>, the first on ties."""
    return np.argmax(U @ fan.constants.vertices.T, axis=1)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(0, 40), st.integers(1, 6)),
       seed=st.integers(0, 2**32 - 1))
def test_row_min_equals_min(shape, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    X[rng.random(shape) < 0.2] = 0.0
    X[rng.random(shape) < 0.1] = -0.0
    X[rng.random(shape) < 0.05] = np.inf
    X[rng.random(shape) < 0.05] = -np.inf
    assert row_min(X).tobytes() == X.min(axis=1).tobytes()


@pytest.mark.parametrize("index", range(9))
def test_near_wall_rows_equal_loop(index):
    """Rows on the wall between adjacent cells a < b, pushed into b by
    relative offsets 1e-15 to 1e-6: for the small offsets the scan keeps
    a, within its tolerance, while the vertex argmax already picks b."""
    fan = fans()[index]
    rng = np.random.default_rng(index)
    rows, earlier = [], []
    for a, b in fan.wall_system.pairs:
        shared = sorted(set(fan.cells[a]) & set(fan.cells[b]))
        j = next(i for i in fan.cells[b] if i not in shared)
        w = (rng.random(len(shared)) + 0.1) @ fan.rays[shared]
        push = np.linalg.norm(w) * fan.rays[j] / np.linalg.norm(fan.rays[j])
        for offset in 10.0 ** np.arange(-15, -5):
            rows.append(w + offset * push)
            earlier.append(a)
    U = np.array(rows)
    cells = assert_carriers_equal_loop(fan, U)
    assert np.all(cells >= 0)
    if index >= 5:   # random fans, whose P(h°) has them as normal fan
        assert np.any((cells == np.array(earlier)) & (vertex_guess(fan, U) != cells))


def test_fan_outside_its_vertex_polytope_equals_loop():
    """The roof_fan_x cells on rays with ray 0 tilted: P(h°) is not a
    polytope with this normal fan, so many guesses are wrong."""
    rays = catalog.roof_fan_x().rays.copy()
    rays[0] = [0.0, 1.2, 1.0]
    fan = SimplicialFan(rays, catalog.roof_fan_x().cells)
    consts = fan.constants
    assert max(np.max(fan.rays @ x - consts.ray_norms) for x in consts.vertices) > 0.1
    U = np.vstack([np.random.default_rng(8).standard_normal((400, 3)),
                   mixed_directions(fan, 8, 1.0)])
    cells = assert_carriers_equal_loop(fan, U)
    assert np.count_nonzero((cells >= 0) & (vertex_guess(fan, U) != cells)) > 20


def test_zero_rows_among_guessed_rows_equal_loop():
    """Zero rows must never take the guessed cell, whose coefficients they
    meet with equality; rows whose sum of squares underflows to 0 are not
    zero, and take their cells."""
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    rng = np.random.default_rng(12)
    U = rng.standard_normal((300, 3))
    U[rng.choice(300, 40, replace=False)] = 0.0
    U[rng.choice(300, 10, replace=False)] *= 1e-170
    U[rng.choice(300, 10, replace=False)] *= 1e-160
    cells = assert_carriers_equal_loop(fan, U)
    assert np.array_equal(cells < 0, ~U.any(axis=1))


@pytest.mark.parametrize("index", range(9))
def test_rows_scaled_by_powers_of_two_keep_their_carriers(index):
    """u · 2^±900, whose sum of squares over- or underflows, gets the cell
    of u and 2^±900 times its coefficients."""
    fan = fans()[index]
    U = np.random.default_rng(index).standard_normal((200, fan.dim))
    cells, coeffs = carriers(fan, U)
    for e in (900, -900):
        scaled_cells, scaled = carriers(fan, np.ldexp(U, e))
        assert scaled_cells.tobytes() == cells.tobytes()
        assert scaled.tobytes() == np.ldexp(coeffs, e).tobytes()
    assert_carriers_equal_loop(fan, np.ldexp(U[:20], 900))
    assert_carriers_equal_loop(fan, np.ldexp(U[:20], -900))


def scan_sizes(monkeypatch):
    """Wrap the fallback scan and record how many rows each call gets."""
    sizes = []
    scan = fan_mod._scan

    def wrapped(fan, U, rows, *args):
        sizes.append(len(rows))
        return scan(fan, U, rows, *args)

    monkeypatch.setattr(fan_mod, "_scan", wrapped)
    return sizes


def test_guess_places_gaussian_rows_without_the_scan(monkeypatch):
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    U = np.random.default_rng(3).standard_normal((5000, 3))
    sizes = scan_sizes(monkeypatch)
    cells, _ = carriers(fan, U)
    assert sizes == [0] and np.all(cells >= 0)


def test_exact_rays_all_go_to_the_scan(monkeypatch):
    hexagon = catalog.hexagon_fan()
    U = np.tile(hexagon.rays, (5, 1))
    sizes = scan_sizes(monkeypatch)
    carriers(hexagon, U)
    assert sizes == [len(U)]


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_direction_graph_equals_loop(m, n, seed):
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1e-12, 2e-12, -1.0, 0.5, 3.0])
    matrix = values[rng.integers(len(values), size=(m, n))]
    matrix[:, rng.random(n) < 0.3] = 0.0   # rays no sample touches
    design = DesignMatrix(blocks=BlockMatrix.of(matrix), carrier_cells=np.zeros(m, int))
    fast, slow = direction_graph(design), loop_direction_graph(design)
    assert fast == slow
    assert all(type(j) is int for nbrs in fast.ray_neighbors for j in nbrs)


@pytest.mark.parametrize("index", range(9))
def test_direction_graph_of_designs_equals_loop(index):
    fan = fans()[index]
    for m in (1, 7, 200):
        U = np.random.default_rng(m).standard_normal((m, fan.dim))
        design = build_design(fan, U)
        assert direction_graph(design) == loop_direction_graph(design)
