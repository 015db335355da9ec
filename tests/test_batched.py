"""The batched carrier, sampling and cell-vertex paths against their per-row
loops, and ``validate``'s verdicts on valid and broken fans.

Each batched path must reproduce the loop in ``oracles`` bit for bit: the
same carrier cells, coefficients, vertices, samples and random stream.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, sim
from facetfit import fan as fan_mod
from facetfit.design import DesignMatrix, build_design, direction_graph
from facetfit.fan import (NoCarrier, SimplicialFan, ValidationReport, carrier, carriers,
                          cell_vertices, row_min, validate)
from facetfit.qp import BlockMatrix
from facetfit.sim import make_plan, sample_concentrated, sample_uniform_sphere

from oracles import (
    cell_inverses,
    left_to_right,
    loop_block_membership,
    loop_carrier,
    loop_cell_vertices,
    loop_concentrated,
    loop_design,
    loop_direction_graph,
    loop_in_ct,
    loop_uniform_sphere,
    loop_vertex_labels,
    scatter_carriers,
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
    cells, coeffs = scatter_carriers(fan, U)
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


def concentrated_cases():
    """(fan, t, delta, m) plans.  Case 4 is pinned below: about half the
    trials of its 2D fan are rejected."""
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


@pytest.mark.parametrize("case, seed", [(4, 0), (4, 2)])
def test_rejection_passes_equal_loop(case, seed, monkeypatch):
    """Case 4 takes three passes with seed 0 and two with seed 2."""
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, seed)
    passes = []
    lookup = sim.carriers
    monkeypatch.setattr(sim, "carriers",
                        lambda fan, X: passes.append(len(X)) or lookup(fan, X))
    fast = sample_concentrated(fan, plan)
    monkeypatch.undo()
    assert fast.tobytes() == loop_concentrated(fan, plan).tobytes()
    assert len(passes) == {0: 3, 2: 2}[seed]


@pytest.mark.parametrize("case", range(6))
def test_rejection_rows_do_not_depend_on_pass_sizes(case, monkeypatch):
    """With ``_PASS_ROWS`` at 1 no pass draws more trials than a ray has
    pending slots, so the passes change; the rows stay the same."""
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, 3)
    passes = []
    lookup = sim.carriers
    monkeypatch.setattr(sim, "carriers",
                        lambda fan, X: passes.append(len(X)) or lookup(fan, X))
    default = sample_concentrated(fan, plan)
    default_passes = len(passes)
    monkeypatch.setattr(sim, "_PASS_ROWS", 1)
    small = sample_concentrated(fan, plan)
    assert small.tobytes() == default.tobytes()
    assert passes[default_passes:] != passes[:default_passes]


def membership_fans():
    """The roof fans, some of whose rows the scan places, and two random
    fans."""
    return [catalog.roof_fan_y(), catalog.roof_fan_x(),
            catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(4, 8, seed=1)]


@pytest.mark.parametrize("case", range(4))
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 300))
def test_one_membership_pass_equals_the_block_loop(case, seed, rows):
    # Trials around every ray at several radii, with zero rows that no
    # cell carries, each for its own target ray; one width for all rows.
    fan = membership_fans()[case]
    rng = np.random.default_rng(seed)
    ray = rng.integers(fan.n_rays, size=rows)
    t = float(rng.choice([0.0, 0.002, 0.3]))
    radius = rng.choice([0.0, 0.0005, 0.01, 0.5], size=rows)
    units = fan.rays / fan.constants.ray_norms[:, None]
    X = units[ray] + radius[:, None] * rng.standard_normal((rows, fan.dim))
    X[rng.random(rows) < 0.1] = 0.0
    member, carried = sim._membership(fan, X, ray, t)
    loop_member, loop_carried = loop_block_membership(fan, X, ray, t)
    assert member.tobytes() == loop_member.tobytes()
    assert carried.tobytes() == loop_carried.tobytes()
    assert not (member & ~carried).any()


@pytest.mark.parametrize("case", range(6))
def test_uniform_fill_is_the_plan_seeds_stream(case):
    fan, t, delta, m = concentrated_cases()[case]
    plan = make_plan(fan, t, delta, m, 11)
    q = sum(plan.quotas)
    fill = sample_concentrated(fan, plan)[q:]
    assert fill.tobytes() == sample_uniform_sphere(fan.dim, m - q, plan.seed).tobytes()


def test_exact_ray_plan_equals_loop():
    fan = catalog.cube_fan(4)
    plan = sim.facet_direction_plan(fan, 100, delta=0.1, seed=4)
    assert sample_concentrated(fan, plan).tobytes() == \
        loop_concentrated(fan, plan).tobytes()


def broken_fans():
    """A cell missing from the hexagon and from the 3-cube, and a cell of
    the 3-cube repeated: validation refuses each."""
    hexagon = catalog.hexagon_fan()
    cube = catalog.cube_fan(3)
    return (SimplicialFan(hexagon.rays, hexagon.cells[:-1]),
            SimplicialFan(cube.rays, cube.cells[1:]),
            SimplicialFan(cube.rays, cube.cells + cube.cells[:1]))


def test_validate_certifies_valid_fans_and_refuses_broken_ones():
    large = (catalog.random_polytopal_fan(3, 100, seed=7),
             catalog.random_polytopal_fan(5, 40, seed=7))
    for fan in fans() + large:
        report = validate(fan)
        assert report.ok and report.single_cover and report.messages == []
    for broken in broken_fans():
        report = validate(broken)
        assert not report.ok and report.complex_check is False


def test_validate_memory_is_bounded_in_the_cells():
    # The peak comes from the pairs of the ray-distinctness check.
    fan = catalog.random_polytopal_fan(3, 400, seed=7)
    assert fan.n_cells == 796
    tracemalloc.start()
    try:
        report = validate(fan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and peak <= 8e6


def test_cell_vertices_equal_the_cell_loop():
    rng, stack_rng = np.random.default_rng(11), np.random.default_rng(12)
    for fan in fans():
        for h in (fan.constants.ray_norms, rng.standard_normal(fan.n_rays)):
            assert np.array_equal(cell_vertices(fan, h), loop_cell_vertices(fan, h))
        # A (k, n) stack: each row as its one-row result, bit for bit.
        H = stack_rng.standard_normal((5, fan.n_rays))
        stacked = cell_vertices(fan, H)
        assert stacked.shape == (5, fan.n_cells, fan.dim)
        for h, got in zip(H, stacked):
            assert np.array_equal(got, cell_vertices(fan, h))


def assert_carriers_equal_loop(fan, U):
    """``carriers`` on the stack ``U``, scattered, equals
    ``loop_carrier`` row by row, with -1 and a zero row wherever the loop
    finds no carrier."""
    cells, coeffs = scatter_carriers(fan, U)
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
    cells, coeffs = scatter_carriers(fan, U)
    for e in (900, -900):
        scaled_cells, scaled = scatter_carriers(fan, np.ldexp(U, e))
        assert scaled_cells.tobytes() == cells.tobytes()
        assert scaled.tobytes() == np.ldexp(coeffs, e).tobytes()
    assert_carriers_equal_loop(fan, np.ldexp(U[:20], 900))
    assert_carriers_equal_loop(fan, np.ldexp(U[:20], -900))


@functools.cache
def guess_fans():
    """``fans()`` and the fans whose guesses the label tests add: the other
    roof fan, one of 196 cells in R³ and one of 168 cells in R⁵."""
    return fans() + (catalog.roof_fan_x(), catalog.random_polytopal_fan(3, 100, seed=7),
                     catalog.random_polytopal_fan(5, 20, seed=3))


def assert_same_carriers(found, expected):
    """Cells, placements and the coefficient bytes of every carried row
    all equal."""
    (cells, lam, guessed), (cells_e, lam_e, guessed_e) = found, expected
    assert cells.dtype == cells_e.dtype == np.int64
    assert cells.tobytes() == cells_e.tobytes()
    assert guessed.tobytes() == guessed_e.tobytes()
    carried = cells >= 0
    assert lam.dtype == lam_e.dtype and lam[carried].tobytes() == lam_e[carried].tobytes()


def loop_guessed_carriers(fan, U):
    """``carriers`` with its labels from the per-vertex loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fan_mod, "_vertex_labels", loop_vertex_labels)
        return carriers(fan, U)


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 11), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e-6, 1e6]))
def test_chunked_labels_give_the_loops_blocks(index, seed, scale):
    """The labels of one product per row chunk decide which rows skip the
    scan exactly as the per-vertex loop's do."""
    fan = guess_fans()[index]
    U = np.vstack([mixed_directions(fan, seed, scale),
                   scale * np.random.default_rng(seed).standard_normal((300, fan.dim))])
    assert_same_carriers(carriers(fan, U), loop_guessed_carriers(fan, U))


def test_labels_take_the_first_of_coincident_vertices(monkeypatch):
    """The roof fans' cells 4 and 5 have one vertex of P(h°) (their apex):
    every row inside either cell ties exactly on it, and both the loop and
    the chunked labels take cell 4.  Rows of cell 4 are then placed by the
    guess, rows of cell 5 by the scan; small chunks split the ties over
    many products."""
    monkeypatch.setattr(fan_mod, "_LABEL_WORK", 64)
    for fan in (catalog.roof_fan_x(), catalog.roof_fan_y()):
        vertices = fan.constants.vertices
        assert np.array_equal(vertices[4], vertices[5])
        rng = np.random.default_rng(4)
        U = np.vstack([(rng.random((200, 3)) + 0.1) @ fan.rays[list(fan.cells[c])]
                       for c in (4, 5)])
        labels = fan_mod._vertex_labels(vertices, U)
        assert np.all(labels == 4)
        assert np.array_equal(labels, loop_vertex_labels(vertices, U))
        found = carriers(fan, U)
        assert_same_carriers(found, loop_guessed_carriers(fan, U))
        cells, _, guessed = found
        assert np.array_equal(cells, np.repeat([4, 5], 200))
        assert np.array_equal(guessed, np.repeat([True, False], 200))
        design = build_design(fan, U)
        assert [(int(design.carrier_cells[rows[0]]), len(rows))
                for rows, _, _ in design.blocks] == [(4, 200), (5, 200)]


def test_label_chunks_split_rows_at_any_boundary(monkeypatch):
    """Chunks of 1 to 7 rows, and a last chunk shorter than the others,
    give the labels of a single chunk."""
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    U = np.random.default_rng(9).standard_normal((103, 3))
    vertices = fan.constants.vertices
    whole = fan_mod._vertex_labels(vertices, U)
    assert whole.dtype == np.uint8
    for work in range(fan.n_cells, 8 * fan.n_cells, fan.n_cells):
        monkeypatch.setattr(fan_mod, "_LABEL_WORK", work)
        assert fan_mod._vertex_labels(vertices, U).tobytes() == whole.tobytes()
    monkeypatch.setattr(fan_mod, "_LABEL_WORK", 1)   # fewer scores than cells
    assert fan_mod._vertex_labels(vertices, U).tobytes() == whole.tobytes()


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
    cells, _ = scatter_carriers(fan, U)
    assert sizes == [0] and np.all(cells >= 0)


def test_exact_rays_all_go_to_the_scan(monkeypatch):
    hexagon = catalog.hexagon_fan()
    U = np.tile(hexagon.rays, (5, 1))
    sizes = scan_sizes(monkeypatch)
    scatter_carriers(hexagon, U)
    assert sizes == [len(U)]


@pytest.mark.parametrize("index", range(9))
def test_guess_and_scan_share_one_rounding(index, monkeypatch):
    """With infinite margins every guess is refused and every nonzero row
    goes through ``_scan``; its cells and coefficient bytes equal those of
    the default path, which places most rows by their guess."""
    fan = fans()[index]
    U = np.vstack([mixed_directions(fan, index, scale) for scale in (1.0, 1e-6, 1e6)])
    sizes = scan_sizes(monkeypatch)
    cells, coeffs = scatter_carriers(fan, U)
    monkeypatch.setattr(fan, "constants", dataclasses.replace(
        fan.constants, guess_margins=np.full(fan.n_cells, np.inf)))
    scanned_cells, scanned = scatter_carriers(fan, U)
    assert sizes[0] < sizes[1] == np.count_nonzero(U.any(axis=1))
    assert scanned_cells.tobytes() == cells.tobytes()
    assert scanned.tobytes() == coeffs.tobytes()


def test_a_thin_cell_makes_every_margin_infinite(monkeypatch):
    """Unit rays at 0, 1e-7, 2 pi / 3 and 4 pi / 3: the thin cell's inverse
    has norm about 1e7, so the rounding of its coefficients can exceed half
    the scan tolerance, ``FanConstants`` makes every margin infinite, and
    every nonzero row goes through ``_scan``, as the per-row loop would."""
    a = np.array([0.0, 1e-7, 2 * np.pi / 3, 4 * np.pi / 3])
    fan = SimplicialFan(np.column_stack([np.cos(a), np.sin(a)]), [(0, 1), (1, 2), (2, 3), (3, 0)])
    fan.require_valid()
    assert np.all(fan.constants.guess_margins == np.inf)
    inside = np.array([[np.cos(b), np.sin(b)] for b in (2e-8, 5e-8, 9e-8)])
    U = np.vstack([inside] + [mixed_directions(fan, 5, scale) for scale in (1.0, 1e-6, 1e6)])
    sizes = scan_sizes(monkeypatch)
    cells = assert_carriers_equal_loop(fan, U)
    assert sizes == [np.count_nonzero(U.any(axis=1))]
    assert np.all(cells[:3] == 0)


def test_carrier_coefficients_keep_their_bits():
    """``carrier`` on (3, 12, 7) for u inside cell 16, for u = v_0 + v_6 on
    the wall of cells 0 and 1, and for the exact ray v_5, in their pinned
    cells and on their pinned supports.  ``coefficients`` sums each
    coefficient left to right, with no BLAS call, so it equals
    ``left_to_right`` on the fan's cell inverse, clamped at 0, bit for bit.
    The cell inverses come from LAPACK's ``inv``, and their last bits
    depend on the OpenBLAS kernel, so the expected values are computed
    from them, not pinned as literals."""
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    cases = [(np.array([0.3, -0.2, 0.9]), 16, [4, 7, 8]),
             (fan.rays[0] + fan.rays[6], 0, [0, 6, 7]),
             (fan.rays[5], 5, [5])]
    for u, cell, support in cases:
        found = carrier(fan, u)
        expected = np.zeros(fan.n_rays)
        expected[list(fan.cells[cell])] = np.maximum(
            left_to_right(fan.constants.cell_inverses[cell], u), 0.0)
        assert found.cell_index == cell
        assert np.flatnonzero(found.coeffs).tolist() == support
        assert [x.hex() for x in found.coeffs.tolist()] == [x.hex() for x in expected.tolist()]


def test_carrier_memory_is_bounded_in_the_rows():
    """No (m, cells) score matrix and no (m, d, d) stack of inverses, on 20
    cells and on 396: the guess's row chunks hold a fixed number of scores
    whatever the number of cells."""
    U = np.random.default_rng(0).standard_normal((100_000, 3))
    for fan in (catalog.random_polytopal_fan(3, 12, seed=7),
                catalog.random_polytopal_fan(3, 200, seed=7)):
        carriers(fan, U[:1])   # the fan's cached tables, outside the trace
        tracemalloc.start()
        try:
            cells, _, _ = carriers(fan, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(cells >= 0)
        assert peak <= 8e6


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 0.49))
def test_in_ct_equals_loop(index, seed, t):
    """Normalized rays perturbed at the sampler's radius and beyond, and
    Gaussian rows, tested against every ray: the targets include the rays
    that are not generators of the row's cell."""
    fan = fans()[index]
    rng = np.random.default_rng(seed)
    norms = np.linalg.norm(fan.rays, axis=1)
    units = fan.rays / norms[:, None]
    radius = 0.5 * t * norms.min() * rng.choice([0.5, 1.0, 3.0], (fan.n_rays, 1))
    X = np.vstack([units, units + radius * rng.standard_normal(units.shape),
                   rng.standard_normal((8, fan.dim))])
    inverses = cell_inverses(fan)
    outside = 0
    for x in X:
        cell = fan.cells[loop_carrier(fan, x, inverses)[0]]
        for j in range(fan.n_rays):
            assert sim.in_ct(fan, x, j, t) == loop_in_ct(fan, x, j, t, inverses)
            outside += j not in cell
    assert outside > 0


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 30), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_direction_graph_equals_loop(m, n, seed):
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1e-12, 2e-12, -1.0, 0.5, 3.0])
    matrix = values[rng.integers(len(values), size=(m, n))]
    matrix[:, rng.random(n) < 0.3] = 0.0   # rays no sample touches
    design = DesignMatrix(shape=matrix.shape, blocks=BlockMatrix.of(matrix).blocks,
                          carrier_cells=np.zeros(m, int))
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
