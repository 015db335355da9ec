import itertools
import re

import numpy as np
import pytest

from facetfit import catalog, geometry, sim
from facetfit import fan as fan_mod
from facetfit.design import Dataset, build_design
from facetfit.estimator import reconstruct
from facetfit.fan import (
    DegenerateWall,
    InvalidFan,
    NoCarrier,
    SimplicialFan,
    ValidationReport,
    c_delta,
    carrier,
    carriers,
    max_linear_over_cone_cap,
    validate,
    wall_crossings,
)

from oracles import (
    grid_cap_max,
    loop_cap_faces,
    loop_independent_cells,
    loop_pairwise_face_check,
    loop_ray_checks,
    loop_wall_crossings,
    sampled_coefficient_max,
    scatter_carriers,
)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_hexagon_validates(hexagon):
    report = validate(hexagon)
    assert report.ok
    assert report.messages == []


def test_hexagon_missing_cell_fails_completeness(hexagon):
    # The deepest interior point lies in one of the five cells left, so the
    # single cover holds; the ridges of the missing cell lie in one cell.
    broken = SimplicialFan(hexagon.rays, hexagon.cells[:-1])
    report = validate(broken)
    assert report.single_cover and report.complex_check is False
    assert not report.ok
    assert report.messages[-2:] == ["ridge (0,) lies in 1 cell", "ridge (5,) lies in 1 cell"]


def test_fan_without_cells_fails_validation(hexagon):
    # No cell offers an interior point, so the single cover fails with its
    # own message; nothing raises.
    report = validate(SimplicialFan(hexagon.rays, []))
    assert not report.ok
    assert (report.cells_independent, report.rays_distinct, report.ray_incidence,
            report.single_cover, report.complex_check) == (True, True, False, False, True)
    assert report.positively_spanning
    assert report.messages == (
        [f"ray {i} appears in 0 < d cells" for i in range(6)]
        + ["no cells: no point lies in exactly one cell"])


def pentagram_fan():
    """Rays at angles k 4 pi / 5 and cells (k, k + 1 mod 5): every ridge
    lies in two cells on opposite sides, but the cells wind twice round
    the origin."""
    angles = np.arange(5) * 4.0 * np.pi / 5.0
    return SimplicialFan(np.column_stack([np.cos(angles), np.sin(angles)]),
                         [(k, (k + 1) % 5) for k in range(5)])


def test_pentagram_passes_the_ridge_check_and_fails_the_single_cover():
    report = validate(pentagram_fan())
    assert (report.cells_independent, report.positively_spanning, report.rays_distinct,
            report.ray_incidence, report.complex_check) == (True, True, True, True, True)
    assert not report.single_cover and not report.ok
    # Each cell's interior point lies on a ray, in the boundary of two
    # other cells.
    assert len(report.messages) == 1
    assert re.fullmatch(r"interior point \[.*\] of cell \d lies in 3 cells \(expected 1\)",
                        report.messages[0])


def test_thin_heptagon_validates():
    # The hexagon with cell (0, 1) cut at a ray 1.5e-9 rad from ray 0: the
    # interior point of the thin cell 0 lies within 1e-9 of both
    # neighbouring cells, so only a deeper cell's point can witness.
    hexagon = catalog.hexagon_fan()
    turned = [[np.cos(1.5e-9), np.sin(1.5e-9)]]
    fan = SimplicialFan(np.vstack([hexagon.rays, turned]),
                        [(0, 6), (6, 1)] + list(hexagon.cells[1:]))
    inverses = fan._inverses[0]
    point = fan.rays[[0, 6]].sum(axis=0)
    point /= np.linalg.norm(point)
    assert sum(np.min(inv @ point) >= -1e-9 for inv in inverses) == 3
    report = validate(fan)
    assert report.ok and report.single_cover and report.messages == []


def test_repeated_cell_of_a_large_fan_is_refused():
    # The deepest interior point lies in cell 268, once, so the single
    # cover holds; the ridge check sees cell 0 twice.
    fan = catalog.random_polytopal_fan(3, 200, seed=7)
    report = validate(SimplicialFan(fan.rays, fan.cells + fan.cells[:1]))
    assert report.single_cover and report.complex_check is False and not report.ok
    ridges = [tuple(sorted(pair)) for pair in itertools.combinations(fan.cells[0], 2)]
    assert report.messages == [f"ridge {r} lies in 3 cells" for r in sorted(ridges)]


def test_doubled_cells_fail_the_single_cover(hexagon):
    report = validate(SimplicialFan(hexagon.rays, hexagon.cells + hexagon.cells))
    assert not report.single_cover and not report.ok
    assert report.messages[0].endswith(" lies in 2 cells (expected 1)")


def test_roof_fans_validate(roof_y, roof_x):
    assert validate(roof_y).ok
    assert validate(roof_x).ok


def test_complex_check_passes_on_good_fans(hexagon, roof_y):
    assert validate(hexagon).complex_check is True
    assert validate(roof_y).complex_check is True
    assert validate(hexagon).ok and validate(roof_y).ok


def overlapping_plane_fan():
    # Second cell folds back over the first: pos{v0,v1} and pos{v1,v2}
    # overlap because v2 points into the first cell.
    rays = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    return SimplicialFan(rays, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 0)])


def test_complex_check_catches_overlapping_cells():
    report = validate(overlapping_plane_fan())
    assert report.complex_check is False
    assert not report.ok
    assert report.messages[-2:] == ["ridge (1,) lies in 3 cells", "ridge (2,) lies in 1 cell"]


def flipped(fan, count):
    """``fan`` with the first ``count`` pairs of its ridge table flipped one
    at a time: cells a and b, with apexes ja and jb across the ridge
    {r1, r2}, become (ja, jb, r1) and (ja, jb, r2).  The result is a fan
    when the two cells' union is convex, and overlaps when it is not."""
    table = fan._ridges
    out = []
    for p in table.paired[:count]:
        a, b = table.owner[p], table.owner[p + 1]
        ja, jb = table.apex[p], table.apex[p + 1]
        r1, r2 = table.ridges[p].tolist()
        cells = [c for k, c in enumerate(fan.cells) if k not in (a, b)]
        out.append(SimplicialFan(fan.rays, cells + [(ja, jb, r1), (ja, jb, r2)]))
    return out


def test_complex_check_equals_the_pairwise_face_loop():
    fans = [catalog.hexagon_fan(), catalog.regular_polygon_fan(7), catalog.roof_fan_x(),
            catalog.roof_fan_y(), catalog.cube_fan(2), catalog.cube_fan(3),
            catalog.cube_fan(4), catalog.cube_fan(5)]
    fans += [catalog.random_polytopal_fan(d, n, seed=seed) for d, n, seed in
             [(2, 8, 1), (3, 6, 203), (3, 12, 7), (3, 14, 13), (3, 20, 7),
              (4, 9, 3), (4, 12, 1), (5, 9, 2)]]
    flips = flipped(catalog.random_polytopal_fan(3, 12, seed=7), 5)
    verdicts = []
    for fan in fans + flips + [overlapping_plane_fan()]:
        report = validate(fan)
        expected = loop_pairwise_face_check(fan, [])
        verdicts.append(report.complex_check)
        if report.single_cover:
            assert report.complex_check == expected
        else:
            assert not report.ok and not expected
    # Convex and non-convex flips, and the overlapping fan, are all seen.
    assert verdicts[:len(fans)] == [True] * len(fans)
    assert set(verdicts[len(fans):-1]) == {True, False}
    assert verdicts[-1] is False


def hanging_ray_fan():
    """``cube_fan(3)`` with its cell (0, 1, 2) cut into six cells around
    rays 6 = (e1 + e2)/sqrt(2), 7 and 8; ray 6 lies on the edge 0-1 of the
    neighbouring cell (0, 1, 5), which is not cut, so the cells do not meet
    face to face across that edge."""
    cube = catalog.cube_fan(3)
    X, Y = np.array([0.5, 0.2, 0.6]), np.array([0.2, 0.5, 0.6])
    rays = np.vstack([cube.rays, [np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
                                  X / np.linalg.norm(X), Y / np.linalg.norm(Y)]])
    cells = [c for c in cube.cells if sorted(c) != [0, 1, 2]]
    cells += [(0, 6, 7), (7, 6, 8), (8, 6, 1), (0, 7, 2), (7, 8, 2), (8, 1, 2)]
    return SimplicialFan(rays, cells)


def test_hanging_ray_fan_is_refused():
    fan = hanging_ray_fan()
    report = validate(fan)
    assert report.single_cover and report.positively_spanning
    assert report.complex_check is False and not report.ok
    assert report.messages == ["ridge (0, 1) lies in 1 cell", "ridge (0, 6) lies in 1 cell",
                               "ridge (1, 6) lies in 1 cell"]
    assert not loop_pairwise_face_check(fan, [])
    U = np.random.default_rng(3).standard_normal((40, 3))
    with pytest.raises(InvalidFan, match=r"ridge \(0, 6\) lies in 1 cell"):
        reconstruct(SimplicialFan(fan.rays, fan.cells), Dataset(U, np.ones(40)))


def test_ridge_in_three_cells_and_repeated_cell_are_refused():
    cube = catalog.cube_fan(3)
    # Cell (0, 1, 6) overlaps (0, 1, 2): ridge (0, 1) is in three cells.
    rays = np.vstack([cube.rays, [[1.0, 1.0, 1.0]]])
    report = validate(SimplicialFan(rays, cube.cells + ((0, 1, 6),)))
    assert report.complex_check is False and not report.ok
    assert "ridge (0, 1) lies in 3 cells" in report.messages
    # Cell 8 repeats cell 1 in another order.
    report = validate(SimplicialFan(cube.rays, cube.cells + ((5, 1, 0),)))
    assert report.complex_check is False and not report.ok
    assert report.messages[-3:] == ["ridge (0, 1) lies in 3 cells",
                                    "ridge (0, 5) lies in 3 cells",
                                    "ridge (1, 5) lies in 3 cells"]


def test_cells_on_one_side_of_their_ridge_are_named():
    # Cell (0, 2) of the square folded over (0, 1): rays 1 and 2 lie on
    # one side of ray 0.
    rays = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    fan = SimplicialFan(rays, [(0, 1), (2, 0), (1, 3), (3, 4), (4, 2)])
    report = validate(fan)
    assert report.complex_check is False
    assert "cells 0 and 1 lie on one side of ridge (0,)" in report.messages


def test_near_duplicate_rays_give_a_report_not_an_lp_error():
    # The hexagon plus a ray turned 1.1e-9 from ray 0: the positive-span
    # LP fails there, and validation reports it.
    hexagon = catalog.hexagon_fan()
    turned = [[np.cos(1.1e-9), np.sin(1.1e-9)]]
    fan = SimplicialFan(np.vstack([hexagon.rays, turned]), hexagon.cells)
    report = validate(fan)
    assert report.rays_distinct and not report.positively_spanning and not report.ok
    assert report.messages[0].startswith("positive-span LP failed: ")
    with pytest.raises(InvalidFan, match="positive-span LP failed"):
        fan.require_valid()


def test_dependent_cell_generators_fail():
    rays = np.array([[1.0, 0.0], [2.0, 1e-13], [0.0, 1.0], [-1.0, -1.0]])
    fan = SimplicialFan(rays, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = validate(fan)
    assert not report.cells_independent


def square_with_a_dependent_cell():
    # Cell (0, 2) spans two opposite rays.
    rays = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return SimplicialFan(rays, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])


def near_duplicate_rays(gap):
    # The hexagon plus rays 6 and 7, positive multiples of rays 0 and 3
    # turned by `gap` radians: their unit vectors are `gap` apart.
    hexagon = catalog.hexagon_fan()
    turned = [3.0 * np.array([np.cos(gap), np.sin(gap)]),
              -0.5 * np.array([np.cos(gap), -np.sin(gap)])]
    return SimplicialFan(np.vstack([hexagon.rays, turned]), hexagon.cells)


@pytest.mark.parametrize("fan", [
    near_duplicate_rays(0.9e-9), near_duplicate_rays(1.1e-9),
    square_with_a_dependent_cell(),
    SimplicialFan([[1.0, 0.0], [2.0, 1e-13], [0.0, 1.0], [-1.0, -1.0]],
                  [(0, 1), (1, 2), (2, 3), (3, 0)]),
], ids=["gap-below-1e-9", "gap-above-1e-9", "dependent-cell", "dependent-and-parallel"])
def test_validation_report_equals_the_pair_and_cell_loops(fan):
    report = validate(fan)
    independent = loop_independent_cells(fan)
    rays_ok, ray_messages, incidence_ok, incidence_messages = loop_ray_checks(fan)
    assert report.cells_independent == all(independent)
    assert report.rays_distinct == rays_ok
    assert report.ray_incidence == incidence_ok
    # Each fan here spans the plane and passes the single cover where it
    # runs.  On
    # unit rays 1e-9 apart the positive-span LP fails, which is reported.
    span_messages = [m for m in report.messages if m.startswith("positive-span LP failed: ")]
    assert len(span_messages) == (not report.positively_spanning and report.rays_distinct)
    assert report.messages == (
        [f"cell {cell}: generators numerically dependent"
         for cell, ok in zip(fan.cells, independent) if not ok]
        + ray_messages + span_messages + incidence_messages)
    assert not report.ok


def test_near_duplicate_rays_are_flagged_below_1e_9_only():
    below = validate(near_duplicate_rays(0.9e-9))
    above = validate(near_duplicate_rays(1.1e-9))
    assert below.messages[:2] == ["rays 0 and 6 are positive multiples",
                                  "rays 3 and 7 are positive multiples"]
    assert not below.rays_distinct and above.rays_distinct


@pytest.mark.parametrize("fan", [
    catalog.hexagon_fan(), catalog.roof_fan_y(), catalog.cube_fan(4),
    catalog.random_polytopal_fan(3, 12, seed=7), catalog.random_polytopal_fan(5, 9, seed=2),
    square_with_a_dependent_cell(),
])
def test_inverse_table_is_one_c_contiguous_stack(fan):
    inverses, independent = fan._inverses
    assert inverses.shape == (fan.n_cells, fan.dim, fan.dim)
    assert inverses.flags.c_contiguous
    assert independent.tolist() == loop_independent_cells(fan)
    for cell, inv, ok in zip(fan.cells, inverses, independent):
        if ok:
            assert inv.tobytes() == np.linalg.inv(fan.rays[list(cell)].T).tobytes()
        else:
            assert not inv.any()
    if independent.all():
        assert fan.constants.cell_inverses is inverses


def test_not_positively_spanning_fails():
    rays = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fan = SimplicialFan(rays, [(0, 2), (2, 1)])
    report = validate(fan)
    assert not report.positively_spanning


def test_non_finite_rays_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            SimplicialFan([[1.0, 0.0], [0.0, bad], [-1.0, -1.0]],
                          [(0, 1), (1, 2), (2, 0)])


TRIANGLE_RAYS = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]


@pytest.mark.parametrize("rays, cells, message", [
    ([1.0, 0.0, -1.0], [(0,)], r"rays must be an \(n, d\) array"),
    ([[1.0], [-1.0]], [(0,), (1,)], "dim must be at least 2"),
    (TRIANGLE_RAYS, [(0, 1, 2)], r"cell \(0, 1, 2\) is not a d-subset of ray indices"),
    (TRIANGLE_RAYS, [(0, 1), (1, 3)], r"cell \(1, 3\) has an out-of-range ray index"),
])
def test_malformed_rays_and_cells_are_refused(rays, cells, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SimplicialFan(rays, cells)


def test_zero_ray_fails_validation():
    fan = SimplicialFan([[1.0, 0.0], [0.0, 0.0], [-1.0, -1.0]], [(0, 1), (1, 2), (2, 0)])
    report = validate(fan)
    assert not report.rays_distinct and not report.ok
    assert "zero ray generator" in report.messages


def test_rays_are_a_read_only_copy(hexagon):
    rays = np.array(hexagon.rays)
    fan = SimplicialFan(rays, hexagon.cells)
    rays[0] = [5.0, 5.0]
    assert np.array_equal(fan.rays, hexagon.rays)
    with pytest.raises(ValueError):
        fan.rays[0, 0] = 2.0


def test_operations_refuse_invalid_fan(hexagon):
    broken = SimplicialFan(hexagon.rays, hexagon.cells[:-1])
    with pytest.raises(InvalidFan):
        carrier(broken, np.array([1.0, 0.1]))


# Each public entry that takes directions or cap vectors, called with one
# direction u (the batch forms get it as the last of three rows).
DIRECTION_ENTRIES = {
    "carrier": lambda fan, u: carrier(fan, u),
    "carriers": lambda fan, u: carriers(fan, np.vstack([fan.rays[:2], u])),
    "in_ct": lambda fan, u: sim.in_ct(fan, u, 0, 0.2),
    "support_values": lambda fan, u: geometry.support_values(
        fan, np.ones(fan.n_rays), np.vstack([fan.rays[:2], u])),
    "cap_maxima": lambda fan, u: fan_mod.cap_maxima(fan, [0, 1, 2],
                                                    np.vstack([fan.rays[:2], u])),
    "max_linear_over_cone_cap": lambda fan, u: max_linear_over_cone_cap(fan, 0, u),
}


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_directions_are_refused(hexagon, entry, value):
    for u in (np.array([value, 0.0]), np.array([1.0, value])):
        with pytest.raises(ValueError, match=r"^(directions|vectors) must be finite$"):
            DIRECTION_ENTRIES[entry](hexagon, u)


# ---------------------------------------------------------------------------
# Carrier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(4, 3), (2,), (2, 2, 2), (4, 1)])
def test_carriers_refuse_directions_of_the_wrong_shape(hexagon, shape):
    message = rf"rows of width 2, the fan's dimension; .*shape {re.escape(str(shape))}"
    with pytest.raises(ValueError, match=message):
        carriers(hexagon, np.ones(shape))


@pytest.mark.parametrize("U", [np.ones((4, 3)), np.ones(3)])
def test_design_and_reconstruct_refuse_directions_of_the_wrong_width(hexagon, U):
    with pytest.raises(ValueError, match=r"rows of width 2, the fan's dimension"):
        build_design(hexagon, U)
    with pytest.raises(ValueError, match=r"rows of width 2, the fan's dimension"):
        reconstruct(hexagon, Dataset(U, np.ones(np.atleast_2d(U).shape[0])))


def test_carrier_hexagon_cell_sum(hexagon):
    bc = carrier(hexagon, hexagon.rays[0] + hexagon.rays[1])
    assert bc.cell_index == 0
    assert np.allclose(bc.coeffs, [1, 1, 0, 0, 0, 0], atol=1e-12)


def test_carrier_ray_gives_unit_vector(hexagon, roof_y):
    for fan in (hexagon, roof_y):
        for i in range(fan.n_rays):
            bc = carrier(fan, fan.rays[i])
            expected = np.zeros(fan.n_rays)
            expected[i] = 1.0
            assert np.allclose(bc.coeffs, expected, atol=1e-12)


def test_carrier_thirty_degrees(hexagon):
    u = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
    bc = carrier(hexagon, u)
    assert bc.cell_index == 0
    assert np.allclose(bc.coeffs[:2], 1.0 / np.sqrt(3.0), atol=1e-12)
    assert np.allclose(bc.coeffs[2:], 0.0)


def test_carrier_boundary_resolves_to_first_cell(hexagon):
    # rays[1] generates cells 0 and 1; fan order picks cell 0.
    bc = carrier(hexagon, hexagon.rays[1])
    assert bc.cell_index == 0


def test_carrier_zero_vector_rejected(hexagon):
    with pytest.raises(NoCarrier):
        carrier(hexagon, np.zeros(2))


def test_carriers_leave_zero_rows_and_rows_outside_every_cell_unplaced(hexagon):
    cells, _, guessed = carriers(hexagon, np.array([[1.0, 0.1], [0.0, 0.0], [-0.0, 0.0]]))
    assert cells.dtype == np.int64 and cells.tolist() == [0, -1, -1]
    assert guessed.tolist() == [True, False, False]
    # The first quadrant alone, validation bypassed: no cell admits the
    # second row.
    quadrant = catalog.orthant_fan(2)
    quadrant._validation = ValidationReport(True, True, True, True, True)
    cells, lam, guessed = carriers(quadrant, np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, 0.0]]))
    assert cells.tolist() == [0, -1, -1]
    assert guessed.tolist()[1:] == [False, False]
    assert lam[0].tolist() == [1.0, 0.5]


def test_carrier_of_rows_whose_sum_of_squares_under_or_overflows(hexagon):
    big = carrier(hexagon, [-1e300, -1e300])
    assert big.cell_index == carrier(hexagon, [-1.0, -1.0]).cell_index == 3
    assert np.allclose(big.coeffs * 1e-300, carrier(hexagon, [-1.0, -1.0]).coeffs,
                       rtol=1e-15, atol=0.0)
    tiny = carrier(hexagon, [1e-170, 0.0])
    assert tiny.cell_index == 0 and tiny.coeffs[0] == 1e-170


def test_carrier_reconstructs_and_is_homogeneous(hexagon, roof_y, random_fans):
    rng = np.random.default_rng(42)
    for fan in [hexagon, roof_y] + random_fans[:4]:
        for _ in range(50):
            u = rng.standard_normal(fan.dim)
            if np.linalg.norm(u) < 1e-9:
                continue
            bc = carrier(fan, u)
            recon = fan.rays.T @ bc.coeffs
            assert np.linalg.norm(recon - u) <= 1e-9 * np.linalg.norm(u)
            assert np.all(bc.coeffs >= 0.0)
            assert np.sum(bc.coeffs > 0) <= fan.dim
            alpha = float(rng.uniform(0.1, 10.0))
            bc2 = carrier(fan, alpha * u)
            assert bc2.cell_index == bc.cell_index
            assert np.allclose(bc2.coeffs, alpha * bc.coeffs,
                               rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# Wall crossings
# ---------------------------------------------------------------------------

def test_hexagon_wall_rows_exact(hexagon):
    ws = wall_crossings(hexagon)
    assert ws.matrix.shape == (6, 6)
    expected_pairs = ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))
    assert ws.pairs == expected_pairs
    # Pair (k, k+1) yields h_k - h_{k+1} + h_{k+2} >= 0.
    for row, (a, b) in zip(ws.matrix, ws.pairs):
        k = a if (a + 1) % 6 == b else b  # handles the (0, 5) wrap pair
        expected = np.zeros(6)
        expected[k] = 1.0
        expected[(k + 1) % 6] = -1.0
        expected[(k + 2) % 6] = 1.0
        assert np.allclose(row, expected, atol=1e-9)


@pytest.mark.parametrize("which, reduced", [
    ("y", [[1, 1, -1, -1, 0], [0, 0, 1, 1, 2]]),
    ("x", [[-1, -1, 1, 1, 0], [1, 1, 0, 0, 2]]),
])
def test_roof_wall_rows_reduce(which, reduced, roof_y, roof_x):
    fan = roof_y if which == "y" else roof_x
    ws = wall_crossings(fan)
    assert ws.matrix.shape[0] == 9  # nine adjacent cell pairs
    reduced = np.array(reduced, float)
    # Every produced row is a nonnegative combination of the two reduced
    # inequalities, i.e. lies in their span with the right sign structure.
    for row in ws.matrix:
        coef, residual, *_ = np.linalg.lstsq(reduced.T, row, rcond=None)
        assert np.linalg.norm(reduced.T @ coef - row) <= 1e-9
        assert np.all(coef >= -1e-9)


def test_wall_rows_satisfy_invariants(hexagon, roof_y, roof_x, random_fans):
    for fan in [hexagon, roof_y, roof_x] + random_fans:
        ws = wall_crossings(fan)
        max_norm = float(np.max(np.linalg.norm(fan.rays, axis=1)))
        for row, (a, b) in zip(ws.matrix, ws.pairs):
            assert np.sum(np.abs(row) > 1e-12) <= fan.dim + 1
            assert np.linalg.norm(fan.rays.T @ row) <= 1e-9 * max_norm
            shared = set(fan.cells[a]) & set(fan.cells[b])
            j1 = next(i for i in fan.cells[a] if i not in shared)
            j2 = next(i for i in fan.cells[b] if i not in shared)
            assert row[j1] + row[j2] == 2.0


def test_degenerate_wall_guard():
    # The two non-shared generators differ by a shared generator, so the
    # unique dependence has their coefficients summing to zero and cannot
    # be normalized; validation is bypassed to reach the solve, which must
    # refuse rather than emit a bogus row.
    rays = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                     [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    fan = SimplicialFan(rays, [(0, 1, 3), (2, 1, 3)])
    fan._validation = ValidationReport(True, True, True, True, True)
    with pytest.raises(DegenerateWall):
        wall_crossings(fan)


def thin_fan(height=1e-11):
    """The octants of R^3 with the ray (1, 1, 0) lifted by ``height``
    before normalizing: cells (0, 1, 2) and (3, 1, 2) are nearly flat."""
    lifted = np.array([1.0, 1.0, height])
    rays = np.vstack([np.eye(3)[:2], lifted / np.linalg.norm(lifted), -np.eye(3)])
    cells = [(0, 1, 2), (3, 1, 2), (0, 4, 2), (3, 4, 2),
             (0, 1, 5), (3, 1, 5), (0, 4, 5), (3, 4, 5)]
    return SimplicialFan(rays, cells)


@pytest.mark.parametrize("height", [1e-11, 1e-10])
def test_a_valid_fan_whose_walls_cannot_be_solved_is_invalid(height):
    # DegenerateWall was not an InvalidFan, so fan-info and reconstruct
    # ended in a traceback on this fan.
    assert issubclass(DegenerateWall, InvalidFan)
    fan = thin_fan(height)
    assert validate(fan).ok
    with pytest.raises(InvalidFan, match="^wall between cells 0 and 1 has a rank-deficient "
                                         "dependence$"):
        fan.wall_system


def test_a_thin_fan_whose_walls_can_be_solved_has_its_walls():
    assert thin_fan(1e-9).wall_system.n_walls == 12


def fans_for_the_wall_table():
    fans = [catalog.hexagon_fan(), catalog.regular_polygon_fan(7), catalog.roof_fan_x(),
            catalog.roof_fan_y(), catalog.cube_fan(2), catalog.cube_fan(3),
            catalog.cube_fan(4), catalog.cube_fan(5)]
    for d, count in [(2, 20), (3, 30), (4, 25), (5, 15)]:
        fans += [catalog.random_polytopal_fan(d, d + 2 + k % 5, seed=k) for k in range(count)]
    return fans


def test_wall_crossings_equal_the_pair_loop():
    fans = fans_for_the_wall_table()
    assert sum(fan.dim >= 4 for fan in fans) >= 40
    for fan in fans:
        walls, expected = wall_crossings(fan), loop_wall_crossings(fan)
        assert walls.pairs == expected.pairs
        assert walls.matrix.shape == expected.matrix.shape
        assert walls.matrix.tobytes() == expected.matrix.tobytes()


def unvalidated(rays, cells):
    fan = SimplicialFan(rays, cells)
    fan._validation = ValidationReport(True, True, True, True, True)
    return fan


@pytest.mark.parametrize("cells", [
    [(0, 1, 3), (2, 1, 3)],
    [(0, 1, 4), (0, 1, 3), (2, 1, 3)],
    # Pairs (0, 3) and (1, 2) are both degenerate; (0, 3) comes first in
    # pair order, (1, 2) first in the ridge table.
    [(0, 1, 4), (0, 1, 3), (2, 1, 3), (2, 1, 4)],
])
def test_degenerate_wall_names_the_pair_of_the_loop(cells):
    rays = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    with pytest.raises(DegenerateWall) as expected:
        loop_wall_crossings(unvalidated(rays, cells))
    with pytest.raises(DegenerateWall) as raised:
        wall_crossings(unvalidated(rays, cells))
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Cone-cap maximization and the coefficient bound
# ---------------------------------------------------------------------------

def test_cap_interior_returns_norm(hexagon):
    r = 3.0 * (hexagon.rays[0] + hexagon.rays[1])  # strictly inside cell 0
    assert max_linear_over_cone_cap(hexagon, 0, r) == pytest.approx(
        np.linalg.norm(r), abs=1e-12)


def test_cap_generator_and_negative(hexagon):
    assert max_linear_over_cone_cap(hexagon, 0, hexagon.rays[0]) == pytest.approx(1.0)
    assert max_linear_over_cone_cap(hexagon, 0, np.array([0.0, -1.0])) == 0.0


def test_cap_agrees_with_grid_oracle(hexagon, roof_y, random_fans):
    rng = np.random.default_rng(7)
    for fan in [hexagon, roof_y, random_fans[0], random_fans[5]]:
        for _ in range(8):
            ci = int(rng.integers(fan.n_cells))
            r = rng.standard_normal(fan.dim)
            r /= np.linalg.norm(r)
            exact = max_linear_over_cone_cap(fan, ci, r)
            generators = fan.rays[list(fan.cells[ci])].T
            grid = grid_cap_max(generators, r)
            assert grid <= exact + 1e-9
            assert exact - grid <= 1e-6


def test_c_delta_hexagon_and_orthant(hexagon):
    assert c_delta(hexagon) == pytest.approx(1.0, abs=1e-9)
    assert c_delta(catalog.orthant_fan(3)) == pytest.approx(1.0, abs=1e-12)
    assert c_delta(catalog.cube_fan(3)) == pytest.approx(1.0, abs=1e-9)


def test_c_delta_matches_sampling_oracle(hexagon, roof_y, random_fans):
    cases = [(hexagon, 1, 1_000_000), (roof_y, 2, 200_000),
             (random_fans[6], 3, 200_000)]
    for fan, seed, samples in cases:
        sampled = sampled_coefficient_max(fan, samples=samples, seed=seed)
        exact = c_delta(fan)
        assert sampled <= exact + 1e-9
        assert exact - sampled <= 1e-6


def test_c_delta_dominates_random_coefficients(hexagon, roof_y):
    for fan, seed in [(hexagon, 11), (roof_y, 12)]:
        rng = np.random.default_rng(seed)
        bound = c_delta(fan)
        best = 0.0
        for _ in range(100_000 if fan.dim == 2 else 20_000):
            u = rng.standard_normal(fan.dim)
            u /= np.linalg.norm(u)
            value = float(np.max(carrier(fan, u).coeffs))
            assert value <= bound + 1e-9
            best = max(best, value)
        assert bound - best <= 2e-2 * bound


def test_c_delta_is_computed_on_first_read_only(monkeypatch):
    def refuse(*args):
        raise AssertionError("c_delta computed")

    original = fan_mod._c_delta_exact
    built = [catalog.hexagon_fan(), catalog.random_polytopal_fan(3, 6, seed=203)]
    monkeypatch.setattr(fan_mod, "_c_delta_exact", refuse)
    fans = [SimplicialFan(fan.rays, fan.cells) for fan in built]  # nothing cached
    for fan in fans:
        fan.require_valid()
        h0 = np.ones(fan.n_rays)
        U = np.random.default_rng(4).standard_normal((30, fan.dim))
        assert np.all(scatter_carriers(fan, U)[0] >= 0)
        res = reconstruct(fan, Dataset(U, build_design(fan, U).matrix @ h0))
        assert geometry.hausdorff(fan, res.h_hat, h0) < 1e-6
        records = sim.run_convergence(
            fan, h0, lambda m: sim.facet_direction_plan(fan, m, seed=3), [20, 40],
            1, sim.NoiseModel(sigma=0.1, seed=2))
        assert not any(r.failed for r in records)

    computed = []
    monkeypatch.setattr(fan_mod, "_c_delta_exact",
                        lambda fan: computed.append(fan) or original(fan))
    for fan in fans:
        plan = sim.facet_direction_plan(fan, 100, seed=3)
        first = c_delta(fan)
        assert c_delta(fan) == first
        sim.bound_parameters(fan, plan, gamma=0.01, eta=0.05)
        geometry.hausdorff_bound(fan, np.ones(fan.n_rays), np.zeros(fan.n_rays))
        assert computed == [fan]
        computed.clear()
