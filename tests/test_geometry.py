import numpy as np
import pytest

from facetfit import catalog
from facetfit.design import build_design
from facetfit.geometry import (
    NotInDeformationCone,
    hausdorff,
    hausdorff_bound,
    is_deformation,
    is_irredundant,
    membership_gap,
    support_values,
    vertices,
)

from conftest import random_members
from facetfit.fan import cell_vertices
from oracles import highs_support_values, loop_merged_groups, vertex_distance_hausdorff


# ---------------------------------------------------------------------------
# Deformation-cone membership
# ---------------------------------------------------------------------------

def test_membership_basics(hexagon, roof_y):
    assert is_deformation(hexagon, np.ones(6))
    assert not is_deformation(roof_y, [2, 2, 4, 4, 0])
    assert is_deformation(hexagon, np.zeros(6))
    assert is_deformation(roof_y, np.zeros(5))


def test_membership_tolerates_boundary(roof_y):
    assert is_deformation(roof_y, [2.5, 2.5, 2.5, 2.5, 0.0])


# ---------------------------------------------------------------------------
# Vertices
# ---------------------------------------------------------------------------

def test_roof_vertices_include_apex(roof_y):
    vm = vertices(roof_y, [4, 4, 2, 2, 0])
    assert vm.points.shape == (6, 3)
    assert vm.merged_groups == ()
    # Cell (0, 2, 3) is pos{v1, v3, v4}; its vertex is the ridge point.
    idx = roof_y.cells.index((0, 2, 3))
    assert np.allclose(vm.points[idx], [0.0, 2.0, 2.0], atol=1e-12)


def test_roof_degenerate_vertices_merge(roof_y):
    vm = vertices(roof_y, [2, 2, 2, 2, 0])
    assert vm.merged_groups == ((4, 5),)
    assert np.allclose(vm.points[4], [0.0, 0.0, 2.0], atol=1e-12)


def test_hexagon_unit_vertices(hexagon):
    vm = vertices(hexagon, np.ones(6))
    norms = np.linalg.norm(vm.points, axis=1)
    assert np.allclose(norms, 2.0 / np.sqrt(3.0), atol=1e-12)


def test_vertex_equations_hold(hexagon, roof_y, random_fans):
    rng_seed = 5
    for fan in [hexagon, roof_y, random_fans[2], random_fans[7]]:
        for h in random_members(fan, 20, seed=rng_seed):
            vm = vertices(fan, h)
            tol = 1e-8 * (1.0 + np.linalg.norm(h))
            for ci, cell in enumerate(fan.cells):
                x = vm.points[ci]
                assert np.allclose(fan.rays[list(cell)] @ x, h[list(cell)],
                                   atol=tol)
                assert np.all(fan.rays @ x <= h + tol)


@pytest.mark.parametrize("fan, h", [
    (catalog.roof_fan_y(), [2, 2, 2, 2, 0]),
    (catalog.roof_fan_y(), [4, 4, 2, 2, 0]),
    (catalog.hexagon_fan(), np.zeros(6)),
    (catalog.cube_fan(3), [1, 0, 0, 1, 0, 0]),
    (catalog.cube_fan(4), [1, 1, 0, 0, 1, 1, 0, 0]),
    (catalog.cube_fan(4), [2, 1, 0, 3, 1, 1, 0, 1]),
    (catalog.random_polytopal_fan(3, 12, seed=7), np.ones(12)),
    # A translate of the zero vector: P(h) is one point, every cell merges.
    (catalog.random_polytopal_fan(3, 12, seed=7),
     catalog.random_polytopal_fan(3, 12, seed=7).rays @ [0.3, -1.0, 2.0]),
    (catalog.random_polytopal_fan(4, 9, seed=3), np.zeros(9)),
])
def test_merged_groups_equal_the_pair_loop(fan, h):
    h = np.asarray(h, float)
    tol = 1e-9 * (1.0 + np.linalg.norm(h))
    assert vertices(fan, h).merged_groups == loop_merged_groups(cell_vertices(fan, h), tol)


def test_vertices_requires_membership(roof_y):
    with pytest.raises(NotInDeformationCone):
        vertices(roof_y, [2, 2, 4, 4, 0])


# ---------------------------------------------------------------------------
# Support values
# ---------------------------------------------------------------------------

def test_support_examples(hexagon, roof_x):
    # The printed value 10 for this evaluation contradicts the matrices it
    # is printed next to; the verified value at the apex vertex is 14.
    assert support_values(roof_x, [2, 2, 4, 4, 0],
                          [[1, 1, 6], [-1, -1, 4]]) == pytest.approx([14.0, 10.0])
    assert support_values(hexagon, np.ones(6),
                          [hexagon.rays[0] + hexagon.rays[1]]) == pytest.approx([2.0])


def test_support_at_rays_returns_entries(hexagon, roof_y):
    for fan, h in [(hexagon, np.array([1.0, 2, 1.5, 2, 1, 1.8])),
                   (roof_y, np.array([4.0, 4, 2, 2, 0]))]:
        assert support_values(fan, h, fan.rays) == pytest.approx(h)


def test_support_matches_vertex_oracle(hexagon, roof_y, random_fans):
    rng = np.random.default_rng(9)
    for fan in [hexagon, roof_y] + random_fans[:3]:
        for h in random_members(fan, 10, seed=31):
            pts = vertices(fan, h).points
            U = rng.standard_normal((50, fan.dim))
            U = U[np.linalg.norm(U, axis=1) >= 1e-9]
            direct = support_values(fan, h, U)
            oracle = np.max(pts @ U.T, axis=0)
            tol = 1e-8 * (1.0 + np.linalg.norm(h) * np.linalg.norm(U, axis=1))
            assert np.all(np.abs(direct - oracle) <= tol)


def test_support_values_equal_the_design_rows_applied_to_h(hexagon, roof_y, roof_x,
                                                          random_fans):
    # Inside the cone, and on its boundary on the roof fans: the symmetric
    # pyramids [a, a, a, a, b] (the ridge shrunk to a point), zero and the
    # ray norms, where the carrier guess of ``fan.carriers`` starts.
    cases = []
    for fan in [hexagon, roof_y, roof_x, catalog.cube_fan(4)] + random_fans[:2] \
            + random_fans[5:7]:
        cases += [(fan, h) for h in random_members(fan, 6, seed=fan.n_cells)]
    for fan in (roof_y, roof_x):
        boundary = [np.array([2.5, 2.5, 2.5, 2.5, 0.0]), np.array([2.0, 2, 2, 2, 0]),
                    np.zeros(5), np.linalg.norm(fan.rays, axis=1)]
        for h in boundary:
            assert abs(membership_gap(fan, h)) <= 1e-12
        cases += [(fan, h) for h in boundary]
    rng = np.random.default_rng(13)
    for fan, h in cases:
        U = np.vstack([rng.standard_normal((200, fan.dim)), fan.rays,
                       -fan.rays[::-1]])
        expected = build_design(fan, U).matrix @ h
        got = support_values(fan, h, U)
        assert got.shape == expected.shape
        assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))


def test_support_values_refuse_h_outside_the_cone_and_other_shapes(roof_y):
    U = np.ones((4, 3))
    with pytest.raises(NotInDeformationCone, match="violates the wall inequalities"):
        support_values(roof_y, [2, 2, 4, 4, 0], U)
    with pytest.raises(ValueError, match="rows of width 3"):
        support_values(roof_y, [4, 4, 2, 2, 0], np.ones(3))


def test_support_value_refuses_h_outside_the_cone(hexagon):
    # <h, [u]> at ray 5 would be 5; the true support value of P(h) there is
    # 2, and the bound h_5 = 5 is not attained.
    h = np.array([1.0, 1, 1, 1, 1, 5])
    with pytest.raises(NotInDeformationCone, match="violates the wall inequalities"):
        support_values(hexagon, h, hexagon.rays[5:])
    assert is_irredundant(hexagon, h) == [True] * 5 + [False]


def test_support_value_is_support_values_on_one_row(hexagon, roof_y, roof_x,
                                                    random_fans):
    rng = np.random.default_rng(21)
    for fan in [hexagon, roof_y, roof_x] + random_fans[::3]:
        for h in random_members(fan, 4, seed=fan.n_rays):
            U = np.vstack([rng.standard_normal((20, fan.dim)), fan.rays, np.zeros(fan.dim)])
            one = np.array([support_values(fan, h, u[None])[0] for u in U])
            # A stacked product may round differently from a one-row one.
            rows = support_values(fan, h, U)
            assert np.all(np.abs(one - rows) <= 1e-15 * (1.0 + np.abs(rows)))


def test_support_additive_and_homogeneous(hexagon):
    rng = np.random.default_rng(3)
    members = random_members(hexagon, 10, seed=17)
    for k in range(0, 10, 2):
        h1, h2 = members[k], members[k + 1]
        u = rng.standard_normal((1, 2))
        s = support_values(hexagon, h1, u) + support_values(hexagon, h2, u)
        total = support_values(hexagon, h1 + h2, u)
        assert total == pytest.approx(s, rel=1e-9, abs=1e-12)
        lam = float(rng.uniform(0.1, 5.0))
        assert support_values(hexagon, lam * h1, u) == pytest.approx(
            lam * support_values(hexagon, h1, u), rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Irredundancy
# ---------------------------------------------------------------------------

def test_irredundancy_examples(hexagon, roof_y):
    assert is_irredundant(hexagon, np.ones(6)) == [True] * 6
    assert is_irredundant(roof_y, [4, 4, 2, 2, 0]) == [True] * 5
    flags = is_irredundant(hexagon, [1, 1, 1, 1, 1, 10.0])
    assert flags == [True, True, True, True, True, False]


def test_irredundancy_empty_polytope_raises(hexagon):
    with pytest.raises(NotInDeformationCone):
        is_irredundant(hexagon, -np.ones(6))


IRREDUNDANCY_FANS = {
    "hexagon": catalog.hexagon_fan, "octagon": lambda: catalog.regular_polygon_fan(8),
    "roof_y": catalog.roof_fan_y,
    "random2d": lambda: catalog.random_polytopal_fan(2, 7, seed=101),
    "random3d-8": lambda: catalog.random_polytopal_fan(3, 8, seed=204),
    "random3d-12": lambda: catalog.random_polytopal_fan(3, 12, seed=7),
}


@pytest.mark.parametrize("name", sorted(IRREDUNDANCY_FANS))
def test_irredundancy_off_the_cone_equals_highs(name):
    """Random h outside the deformation cone, every third one drawn around
    -0.5 so that some P(h) are empty: each flag against HiGHS's support
    value of P(h) at the ray.  Every gap is either round-off or far above
    the tolerance, so the flags do not hang on the solvers' last digits."""
    fan = IRREDUNDANCY_FANS[name]()
    rng = np.random.default_rng(fan.n_cells)
    outcomes = set()
    for k in range(30):
        h = rng.normal(-0.5 if k % 3 == 0 else 1.0, 0.7, fan.n_rays)
        if is_deformation(fan, h):
            continue
        best = highs_support_values(fan, h)
        if best is None:
            with pytest.raises(NotInDeformationCone, match="P\\(h\\) is empty"):
                is_irredundant(fan, h)
            outcomes.add("empty")
            continue
        gap = (h - best) / (1.0 + np.linalg.norm(h))
        assert np.all((np.abs(gap) <= 1e-10) | (gap >= 1e-6))
        assert is_irredundant(fan, h) == (gap <= 1e-10).tolist()
        outcomes.add("redundant" if np.any(gap >= 1e-6) else "attained")
    # roof_y has h off the cone with every bound attained; the others have
    # redundant bounds.
    assert "empty" in outcomes and outcomes - {"empty"}


# ---------------------------------------------------------------------------
# Minkowski sums: the support vector of P(h) + P(h2) is h + h2
# ---------------------------------------------------------------------------

def test_minkowski_examples(hexagon, roof_y):
    u = np.array([[0.3, 0.7]])
    assert support_values(hexagon, 2.0 * np.ones(6), u) == pytest.approx(
        2.0 * support_values(hexagon, np.ones(6), u))
    h = np.array([4.0, 4, 2, 2, 0])
    assert np.min(roof_y.wall_system.matrix @ (h + h)) >= 0.0
    U = np.vstack([roof_y.rays, [[0.3, 0.7, 0.2]]])
    assert support_values(roof_y, h + h, U) == pytest.approx(
        2.0 * support_values(roof_y, h, U))


def test_minkowski_stays_in_cone(hexagon):
    members = random_members(hexagon, 12, seed=23)
    for k in range(0, 12, 2):
        assert is_deformation(hexagon, members[k] + members[k + 1])


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def test_hausdorff_examples(hexagon):
    assert hausdorff(hexagon, np.ones(6), np.ones(6)) == 0.0
    assert hausdorff(hexagon, np.ones(6), 1.5 * np.ones(6)) == pytest.approx(
        0.5 * 2.0 / np.sqrt(3.0), abs=1e-12)
    assert hausdorff_bound(hexagon, np.ones(6), np.zeros(6)) == pytest.approx(
        np.sqrt(2.0) * 1.0 * np.sqrt(6.0), rel=1e-9)


def test_hausdorff_matches_vertex_distance_oracle(hexagon, roof_y, random_fans):
    for fan, seed in [(hexagon, 41), (roof_y, 43), (random_fans[1], 47),
                      (random_fans[8], 53)]:
        members = random_members(fan, 12, seed=seed, translations=False)
        for k in range(0, 12, 2):
            h1, h2 = members[k], members[k + 1]
            vm1 = vertices(fan, h1).points
            vm2 = vertices(fan, h2).points
            exact = hausdorff(fan, h1, h2)
            oracle = vertex_distance_hausdorff(fan, h1, h2, vm1, vm2)
            assert exact == pytest.approx(oracle, abs=1e-6)


def test_hausdorff_is_a_metric(hexagon, roof_y):
    for fan, seed in [(hexagon, 61), (roof_y, 67)]:
        members = random_members(fan, 9, seed=seed)
        for k in range(0, 9, 3):
            a, b, c = members[k], members[k + 1], members[k + 2]
            assert hausdorff(fan, a, b) == hausdorff(fan, b, a)
            assert hausdorff(fan, a, c) <= (
                hausdorff(fan, a, b) + hausdorff(fan, b, c) + 1e-8)


def test_bound_dominates_exact(hexagon, roof_y, random_fans):
    total = 0
    for fan, seed in [(hexagon, 71), (roof_y, 73), (random_fans[3], 79)]:
        members = random_members(fan, 40, seed=seed)
        for k in range(0, 40, 2):
            h1, h2 = members[k], members[k + 1]
            assert hausdorff(fan, h1, h2) <= hausdorff_bound(fan, h1, h2) + 1e-12
            total += 1
    assert total == 60
