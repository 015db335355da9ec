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

from oracles import grid_cap_max, sampled_coefficient_max


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_hexagon_validates(hexagon):
    report = validate(hexagon)
    assert report.ok
    assert report.messages == []


def test_hexagon_missing_cell_fails_completeness(hexagon):
    broken = SimplicialFan(hexagon.rays, hexagon.cells[:-1])
    report = validate(broken)
    assert not report.completeness_probe
    assert not report.ok


def test_roof_fans_validate(roof_y, roof_x):
    assert validate(roof_y).ok
    assert validate(roof_x).ok


def test_strict_mode_passes_on_good_fans(hexagon, roof_y):
    assert validate(hexagon, strict=True).ok
    assert validate(roof_y, strict=True).ok


def test_strict_mode_catches_overlapping_cells():
    # Second cell folds back over the first: pos{v0,v1} and pos{v1,v2}
    # overlap because v2 points into the first cell.
    rays = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    cells = [(0, 1), (1, 2), (1, 3), (3, 4), (4, 0)]
    fan = SimplicialFan(rays, cells)
    report = validate(fan, strict=True)
    assert not report.ok


def test_dependent_cell_generators_fail():
    rays = np.array([[1.0, 0.0], [2.0, 1e-13], [0.0, 1.0], [-1.0, -1.0]])
    fan = SimplicialFan(rays, [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = validate(fan)
    assert not report.cells_independent


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
        assert np.all(carriers(fan, U)[0] >= 0)
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
