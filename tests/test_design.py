import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog
from facetfit.design import (
    POSITIVITY_TOL,
    Dataset,
    DirectionGraph,
    _support_patterns,
    build_design,
    direction_graph,
    max_matching,
    ray_facet_graph,
    uniqueness_report,
)
from facetfit.fan import NoCarrier, carriers
from facetfit.qp import BlockMatrix, triangular_factor
from facetfit.sim import sample_uniform_sphere

from oracles import brute_max_matching, concatenated_support_patterns, loop_design
from test_batched import fans, mixed_directions

ROOF_DIRECTIONS = np.array([
    [1, 1, -1], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [1, 1, 6], [-1, -1, 4],
], float)

ROOF_DESIGN_Y = np.array([
    [1, 0, 1, 0, 3],
    [0, 1, 1, 0, 2],
    [1, 0, 0, 1, 2],
    [0, 1, 0, 1, 2],
    [1, 0, 3, 2, 0],
    [0, 1, 1, 2, 0],
], float)

ROOF_DESIGN_X = np.array([
    [1, 0, 1, 0, 3],
    [0, 1, 1, 0, 2],
    [1, 0, 0, 1, 2],
    [0, 1, 0, 1, 2],
    [3, 2, 1, 0, 0],
    [1, 2, 0, 1, 0],
], float)


def hexagon_cycle_directions(fan):
    return np.array([fan.rays[i] + fan.rays[(i + 1) % 6] for i in range(6)])


# ---------------------------------------------------------------------------
# Dataset and design assembly
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="zero direction"):
        Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    # Not zero, though its sum of squares underflows to 0.
    Dataset(np.array([[1e-170, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 0.0]]), np.array([np.inf]))
    with pytest.raises(ValueError, match="zero direction"):
        Dataset(np.array([[1.0, 0.0], [-0.0, 0.0]]), np.array([1.0, 1.0]))


def test_dataset_refuses_arrays_of_the_wrong_rank():
    """Values must be 1-D and directions 2-D where they enter, not when a
    design or a solver later meets them."""
    U = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match=r"values must be a 1-D array; got an array of shape \(2, 1\)"):
        Dataset(U, y[:, None])
    with pytest.raises(ValueError, match=r"directions must be an \(m, d\) array"):
        Dataset(U[None], y)
    # One direction and one value stay accepted as a 1-row dataset.
    one = Dataset(U[0], 1.0)
    assert one.directions.shape == (1, 2) and one.values.shape == (1,)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 30), st.integers(1, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_dataset_zero_rows_are_those_of_a_row_reduction(shape, seed):
    """The column passes find a zero row exactly when ``any`` over each
    row does, -0.0 and subnormal entries included."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 5e-324, -1e-170, 1.0])
    U = values[rng.integers(len(values), size=shape)]
    if np.any(~U.any(axis=1)):
        with pytest.raises(ValueError, match="zero direction"):
            Dataset(U, np.ones(shape[0]))
    else:
        Dataset(U, np.ones(shape[0]))


def test_hexagon_cycle_design(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    expected = np.zeros((6, 6))
    for i in range(6):
        expected[i, i] = 1.0
        expected[i, (i + 1) % 6] = 1.0
    assert np.allclose(design.matrix, expected, atol=1e-12)
    assert list(design.carrier_cells) == list(range(6))


def test_roof_designs_match_printed_matrices(roof_y, roof_x):
    design_y = build_design(roof_y, ROOF_DIRECTIONS)
    design_x = build_design(roof_x, ROOF_DIRECTIONS)
    assert np.array_equal(design_y.matrix, ROOF_DESIGN_Y)
    assert np.array_equal(design_x.matrix, ROOF_DESIGN_X)


def test_rays_give_identity_design(hexagon, roof_y):
    for fan in (hexagon, roof_y):
        design = build_design(fan, fan.rays)
        assert np.allclose(design.matrix, np.eye(fan.n_rays), atol=1e-12)


def test_design_rows_are_sparse(hexagon, roof_y, random_fans):
    for fan, seed in [(hexagon, 1), (roof_y, 2)] + [(f, 10 + i) for i, f in
                                                    enumerate(random_fans)]:
        U = sample_uniform_sphere(fan.dim, 40, seed=seed)
        design = build_design(fan, U)
        assert np.all((design.matrix > 0).sum(axis=1) <= fan.dim)
        assert np.all(design.matrix >= 0.0)


def test_no_carrier_reports_row(hexagon):
    incomplete = catalog.orthant_fan(2)
    incomplete._validation = hexagon._validation  # bypass: structural only
    from facetfit.fan import ValidationReport
    incomplete._validation = ValidationReport(True, True, True, True, True)
    with pytest.raises(NoCarrier) as info:
        build_design(incomplete, np.array([[1.0, 0.5], [-1.0, -0.5]]))
    assert info.value.row == 1


# ---------------------------------------------------------------------------
# Graphs and matchings
# ---------------------------------------------------------------------------

def test_cycle_design_graph_is_twelve_cycle(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    graph = direction_graph(design)
    assert all(len(nb) == 2 for nb in graph.ray_neighbors)
    assert max_matching(graph) == 6
    assert brute_max_matching(graph.ray_neighbors, graph.n_samples) == 6


def test_identity_design_graph(hexagon):
    design = build_design(hexagon, hexagon.rays)
    graph = direction_graph(design)
    assert graph.ray_neighbors == tuple((i,) for i in range(6))
    assert max_matching(graph) == 6


def test_fewer_samples_than_rays_bounds_matching(hexagon):
    design = build_design(hexagon, hexagon.rays[:4])
    assert max_matching(direction_graph(design)) <= 4


def test_ray_facet_matchings(hexagon, roof_y, random_fans):
    assert max_matching(ray_facet_graph(hexagon)) == 6
    assert max_matching(ray_facet_graph(roof_y)) == 5
    assert max_matching(ray_facet_graph(catalog.cube_fan(2))) == 4
    assert max_matching(ray_facet_graph(catalog.cube_fan(3))) == 6
    for fan in random_fans:
        assert max_matching(ray_facet_graph(fan)) == fan.n_rays


def test_matching_against_brute_force(random_fans):
    graphs = [ray_facet_graph(fan) for fan in random_fans[:4]]
    # Random bipartite graphs of up to 7 rays and 7 samples, some rays and
    # samples isolated.
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_rays, n_samples = rng.integers(1, 8), rng.integers(0, 8)
        neighbors = tuple(tuple(np.flatnonzero(rng.random(n_samples) < 0.35).tolist())
                          for _ in range(n_rays))
        graphs.append(DirectionGraph(n_rays=int(n_rays), n_samples=int(n_samples),
                                     ray_neighbors=neighbors))
    for graph in graphs:
        assert max_matching(graph) == brute_max_matching(
            graph.ray_neighbors, graph.n_samples)


def test_matching_follows_a_path_through_every_ray():
    # Ray k < n - 1 meets samples k and k + 1, the last ray sample 0 only:
    # in index order each ray takes sample k, so matching the last ray
    # shifts all n - 1 earlier ones along one augmenting path.
    n = 5000
    neighbors = tuple((k, k + 1) for k in range(n - 1)) + ((0,),)
    assert max_matching(DirectionGraph(n_rays=n, n_samples=n, ray_neighbors=neighbors)) == n


# ---------------------------------------------------------------------------
# Rank and uniqueness reports
# ---------------------------------------------------------------------------

def test_cycle_design_rank_and_kernel(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    rank, kernel = design.rank_kernel
    assert rank == 5
    assert kernel.shape == (1, 6)
    alternating = np.array([1.0, -1, 1, -1, 1, -1]) / np.sqrt(6.0)
    assert abs(abs(kernel[0] @ alternating) - 1.0) <= 1e-9


def test_roof_design_ranks(roof_y, roof_x):
    assert build_design(roof_y, ROOF_DIRECTIONS).rank_kernel[0] == 5
    assert build_design(roof_x, ROOF_DIRECTIONS).rank_kernel[0] == 5


def test_identity_rank(hexagon):
    rank, kernel = build_design(hexagon, hexagon.rays).rank_kernel
    assert rank == 6
    assert kernel.shape == (0, 6)


def test_uniqueness_report_cycle(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    report = uniqueness_report(hexagon, design)
    assert report.matching_size == 6
    assert report.numeric_rank == 5
    assert not report.unique_for_all_y
    assert report.cells_covered == [True] * 6  # every direction is interior


@settings(max_examples=30, deadline=None)
@given(index=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_support_patterns_equal_the_concatenated_count(index, seed):
    """Counted block by block, the patterns equal those of one
    ``bincount`` over every row, on designs of Gaussian rows (mostly
    interior, placed by the guess), of exact rays, of rows on the walls of
    cells, of rows scaled so that some or all of their coefficients fall at
    or below ``POSITIVITY_TOL``, and of all of these at once, where some
    cells have both a guess block and a scan block."""
    fan = fans()[index]
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((200, fan.dim))
    walls = mixed_directions(fan, seed, 1.0)
    tiny = np.vstack([gauss[:60] * 10.0 ** rng.uniform(-14.0, -10.0, (60, 1)),
                      [fan.rays[cell[0]] + 1e-12 * fan.rays[cell[1]] for cell in fan.cells]])
    parts = [gauss, fan.rays, walls[walls.any(axis=1)], tiny]
    for U in parts + [np.vstack(parts)]:
        design = build_design(fan, U)
        found = _support_patterns(fan, design)
        expected = concatenated_support_patterns(fan, design)
        for a, b in zip(found, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    smallest = [lam.min() for _, _, lam in build_design(fan, gauss).blocks]
    assert max(smallest) > POSITIVITY_TOL   # a block of interior rows only
    block_cells = design.carrier_cells[[rows[0] for rows, _, _ in design.blocks]]
    assert len(set(block_cells.tolist())) < len(block_cells)


def test_uniqueness_report_rays(hexagon):
    report = uniqueness_report(hexagon, build_design(hexagon, hexagon.rays))
    assert report.unique_for_all_y
    assert report.cells_covered == [False] * 6  # ray directions are boundary


def test_rank_implies_matching(hexagon, roof_y, random_fans):
    for fan, seed in [(hexagon, 5), (roof_y, 6)] + [(f, 20 + i) for i, f in
                                                    enumerate(random_fans)]:
        U = sample_uniform_sphere(fan.dim, fan.n_rays + 4, seed=seed)
        report = uniqueness_report(fan, build_design(fan, U))
        if report.numeric_rank == fan.n_rays:
            assert report.matching_size == fan.n_rays


def test_generic_matching_implies_rank(hexagon, random_fans):
    trials = 0
    for fan, seed in [(hexagon, 3)] + [(f, 30 + i) for i, f in enumerate(random_fans)]:
        for k in range(10):
            U = sample_uniform_sphere(fan.dim, fan.n_rays + 2, seed=1000 * seed + k)
            report = uniqueness_report(fan, build_design(fan, U))
            if report.matching_size == fan.n_rays:
                trials += 1
                assert report.numeric_rank == fan.n_rays
    assert trials >= 60  # the generic case is the common one


def test_coverage_implies_uniqueness(hexagon):
    rng = np.random.default_rng(77)
    for _ in range(25):
        dirs = []
        for cell in hexagon.cells:
            lam = rng.uniform(0.2, 1.0, size=2)
            dirs.append(lam @ hexagon.rays[list(cell)])
        report = uniqueness_report(hexagon, build_design(hexagon, np.array(dirs)))
        assert all(report.cells_covered)
        assert report.unique_for_all_y


def test_uniqueness_frequency_nondecreasing(hexagon):
    def frequency(m, base_seed):
        hits = 0
        for k in range(40):
            U = sample_uniform_sphere(2, m, seed=base_seed + k)
            report = uniqueness_report(hexagon, build_design(hexagon, U))
            hits += report.unique_for_all_y
        return hits / 40.0

    f8, f30, f200 = frequency(8, 500), frequency(30, 900), frequency(200, 1300)
    assert f8 <= f30 <= f200
    assert f200 == 1.0


def test_max_matching_leaves_no_reference_cycle(hexagon):
    graph = direction_graph(build_design(hexagon, hexagon_cycle_directions(hexagon)))
    alive = weakref.ref(graph)
    gc.disable()
    try:
        assert max_matching(graph) == 6
        del graph
        assert alive() is None   # freed by reference counting alone
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Block order
# ---------------------------------------------------------------------------

def mixed_designs():
    """The hexagon's rays twice plus 40 Gaussian rows, and the rays of
    (3, 12, 7) plus 300 Gaussian rows: the exact rays go to the scan and
    most Gaussian rows are placed by the guess, so most cells have a block
    of each kind."""
    hexagon = catalog.hexagon_fan()
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    return [(hexagon, np.vstack([hexagon.rays, hexagon.rays,
                                 np.random.default_rng(5).standard_normal((40, 2))])),
            (fan, np.vstack([fan.rays, np.random.default_rng(7).standard_normal((300, 3))]))]


# The layouts [(cell, rows)] of the two designs: the guessed rows' blocks in
# cell order, then the scanned rows'.
MIXED_LAYOUTS = [
    [(0, 5), (1, 2), (2, 7), (3, 10), (4, 9), (5, 7),
     (0, 4), (1, 2), (2, 2), (3, 2), (4, 2)],
    [(0, 7), (1, 4), (2, 1), (3, 4), (4, 1), (5, 3), (6, 1), (7, 3), (8, 1), (9, 31),
     (10, 6), (11, 36), (12, 7), (13, 12), (14, 26), (15, 3), (16, 49), (17, 13),
     (18, 43), (19, 37),
     (0, 6), (1, 2), (2, 2), (4, 6), (5, 2), (6, 2), (9, 2), (10, 2)],
]

# The hexagon design's factor R, its upper triangle row by row.  The same
# under each of OpenBLAS's x86-64 kernels from Prescott to SkylakeX, unlike
# the R of the (3, 12, 7) design, whose last bits follow the kernel that
# LAPACK's QR calls.
MIXED_HEXAGON_R = [
    "-0x1.b1e307755fcd6p+1", "-0x1.fda14d7f086a0p-1", "0x0.0p+0", "0x0.0p+0",
    "0x0.0p+0", "-0x1.05e952f073cccp-1", "-0x1.5986e057b678ap+1",
    "-0x1.2960d4db1e5c6p-3", "0x0.0p+0", "0x0.0p+0", "0x1.824d7a51c8896p-3",
    "0x1.40368487f397ep+1", "0x1.8dcb4dd1a2c53p-2", "0x0.0p+0",
    "0x1.66c1488810410p-7", "-0x1.c732100d8e6efp+1", "-0x1.728eea2c1a499p-1",
    "0x1.3983d8d5f0680p-10", "0x1.dc5b2d4a646bdp+1", "0x1.1463fa5c6f6d2p+0",
    "-0x1.bfa8dad6fb568p+1",
]


def test_mixed_designs_keep_their_block_order():
    """The layouts are pinned, and so are the blocks: each one the rows of
    its cell and kind in increasing order, with the per-row loop's
    coefficients.  The factor R equals the block QR of those blocks, and
    for the hexagon its pinned bits, which any other block order, such as
    one block per cell, moves."""
    for (fan, U), layout in zip(mixed_designs(), MIXED_LAYOUTS):
        design = build_design(fan, U)
        assert [(int(design.carrier_cells[rows[0]]), len(rows))
                for rows, _, _ in design.blocks] == layout
        matrix, cells = loop_design(fan, U)
        guessed = carriers(fan, U)[2]
        expected, seen = [], set()
        for cell, _ in layout:
            kind = guessed if cell not in seen else ~guessed
            seen.add(cell)
            rows = np.flatnonzero((cells == cell) & kind)
            cols = np.array(fan.cells[cell])
            expected.append((rows, cols, matrix[rows[:, None], cols]))
        for (rows, cols, lam), (rows_e, cols_e, lam_e) in zip(design.blocks, expected):
            assert rows.tobytes() == rows_e.tobytes()
            assert np.array_equal(cols, cols_e)
            assert lam.tobytes() == lam_e.tobytes()
        R = design.factor.R
        assert R.tobytes() == triangular_factor(
            BlockMatrix(shape=design.shape, blocks=tuple(expected))).R.tobytes()
    hexagon_R = build_design(*mixed_designs()[0]).factor.R
    assert [x.hex() for x in hexagon_R[np.triu_indices(6)].tolist()] == MIXED_HEXAGON_R
