import gc
import weakref

import numpy as np
import pytest

from facetfit import catalog
from facetfit.design import (
    Dataset,
    build_design,
    direction_graph,
    max_matching,
    numeric_rank,
    ray_facet_graph,
    uniqueness_report,
)
from facetfit.fan import NoCarrier
from facetfit.sim import sample_uniform_sphere

from oracles import brute_max_matching

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
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, 0.0]]), np.array([np.inf]))


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
    matching = max_matching(graph)
    assert matching.size == 6
    assert brute_max_matching(graph.ray_neighbors, graph.n_samples) == 6


def test_identity_design_graph(hexagon):
    design = build_design(hexagon, hexagon.rays)
    graph = direction_graph(design)
    assert graph.ray_neighbors == tuple((i,) for i in range(6))
    assert max_matching(graph).size == 6


def test_fewer_samples_than_rays_bounds_matching(hexagon):
    design = build_design(hexagon, hexagon.rays[:4])
    assert max_matching(direction_graph(design)).size <= 4


def test_ray_facet_matchings(hexagon, roof_y, random_fans):
    assert max_matching(ray_facet_graph(hexagon)).size == 6
    assert max_matching(ray_facet_graph(roof_y)).size == 5
    assert max_matching(ray_facet_graph(catalog.cube_fan(2))).size == 4
    assert max_matching(ray_facet_graph(catalog.cube_fan(3))).size == 6
    for fan in random_fans:
        assert max_matching(ray_facet_graph(fan)).size == fan.n_rays


def test_matching_against_brute_force(random_fans):
    for fan in random_fans[:4]:
        graph = ray_facet_graph(fan)
        assert max_matching(graph).size == brute_max_matching(
            graph.ray_neighbors, graph.n_samples)


# ---------------------------------------------------------------------------
# Rank and uniqueness reports
# ---------------------------------------------------------------------------

def test_cycle_design_rank_and_kernel(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    rank, kernel = numeric_rank(design)
    assert rank == 5
    assert kernel.shape == (1, 6)
    alternating = np.array([1.0, -1, 1, -1, 1, -1]) / np.sqrt(6.0)
    assert abs(abs(kernel[0] @ alternating) - 1.0) <= 1e-9


def test_roof_design_ranks(roof_y, roof_x):
    assert numeric_rank(build_design(roof_y, ROOF_DIRECTIONS))[0] == 5
    assert numeric_rank(build_design(roof_x, ROOF_DIRECTIONS))[0] == 5


def test_identity_rank(hexagon):
    rank, kernel = numeric_rank(build_design(hexagon, hexagon.rays))
    assert rank == 6
    assert kernel.shape == (0, 6)


def test_uniqueness_report_cycle(hexagon):
    design = build_design(hexagon, hexagon_cycle_directions(hexagon))
    report = uniqueness_report(hexagon, design)
    assert report.matching_size == 6
    assert report.numeric_rank == 5
    assert not report.unique_for_all_y
    assert report.cells_covered == [True] * 6  # every direction is interior


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
        assert max_matching(graph).size == 6
        del graph
        assert alive() is None   # freed by reference counting alone
    finally:
        gc.enable()
