import numpy as np
import pytest

from facetfit import catalog, qp
from facetfit import design as design_mod
from facetfit.design import Dataset, build_design, uniqueness_report
from facetfit.estimator import (
    detect_unbounded,
    gk_estimate,
    reconstruct,
    reconstruct_multi,
)
from facetfit.geometry import is_deformation, support_values
from facetfit.qp import SolverOptions

from conftest import random_members, time_limit
from test_design import ROOF_DIRECTIONS


def cycle_dataset(hexagon):
    U = np.array([hexagon.rays[i] + hexagon.rays[(i + 1) % 6] for i in range(6)])
    return Dataset(U, 2.0 * np.ones(6))


SEGMENT_ENDPOINTS = (
    np.array([4.0, 2, 4, 2, 4, 2]) / 3.0,
    np.array([2.0, 4, 2, 4, 2, 4]) / 3.0,
)


# ---------------------------------------------------------------------------
# Single-fan reconstruction
# ---------------------------------------------------------------------------

def test_cycle_reconstruction_segment(hexagon):
    res = reconstruct(hexagon, cycle_dataset(hexagon))
    assert res.objective <= 1e-18
    sset = res.solution_set
    assert sset.dimension == 1 and sset.bounded
    got = sset.segment_endpoints
    match_direct = (np.allclose(got[0], SEGMENT_ENDPOINTS[0], atol=1e-7)
                    and np.allclose(got[1], SEGMENT_ENDPOINTS[1], atol=1e-7))
    match_swapped = (np.allclose(got[0], SEGMENT_ENDPOINTS[1], atol=1e-7)
                     and np.allclose(got[1], SEGMENT_ENDPOINTS[0], atol=1e-7))
    assert match_direct or match_swapped
    assert res.uniqueness.numeric_rank == 5
    assert not res.uniqueness.unique_for_all_y
    # Endpoints are feasible and fit the same data.
    walls = hexagon.wall_system.matrix
    for e in got:
        assert np.min(walls @ e) >= -1e-9
        assert np.allclose(res.y_hat,
                           build_design(hexagon, cycle_dataset(hexagon).directions).matrix @ e,
                           atol=1e-8)


def test_identity_dataset_recovers_h(hexagon):
    h0 = np.array([1.0, 2, 1.5, 2, 1, 1.8])
    res = reconstruct(hexagon, Dataset(hexagon.rays, h0))
    assert np.allclose(res.h_hat, h0, atol=1e-9)
    assert res.solution_set.dimension == 0
    assert res.uniqueness.unique_for_all_y


def test_roof_noiseless_reconstruction(roof_y):
    y = np.array([6.0, 6, 6, 6, 14, 10])
    res = reconstruct(roof_y, Dataset(ROOF_DIRECTIONS, y))
    assert res.objective <= 1e-16
    assert np.allclose(res.h_hat, [4, 4, 2, 2, 0], atol=1e-7)


def test_noiseless_recovery_with_full_rank(hexagon, roof_y, random_fans):
    rng = np.random.default_rng(14)
    for fan in [hexagon, roof_y] + random_fans[:3]:
        h0 = random_members(fan, 1, seed=201)[0]
        # Interior sample per cell guarantees rank n (coverage condition).
        dirs = []
        for cell in fan.cells:
            lam = rng.uniform(0.2, 1.0, size=fan.dim)
            dirs.append(lam @ fan.rays[list(cell)])
        dirs = np.array(dirs)
        design = build_design(fan, dirs)
        assert uniqueness_report(fan, design).numeric_rank == fan.n_rays
        res = reconstruct(fan, Dataset(dirs, design.matrix @ h0))
        assert np.allclose(res.h_hat, h0, atol=1e-7)


def test_fitted_values_unique_across_warm_starts(hexagon):
    ds = cycle_dataset(hexagon)
    res_cold = reconstruct(hexagon, ds)
    res_warm = reconstruct(hexagon, ds,
                           SolverOptions(warm_start=SEGMENT_ENDPOINTS[0]))
    assert np.allclose(res_cold.y_hat, res_warm.y_hat, atol=1e-8)


# ---------------------------------------------------------------------------
# Solution-set geometry and unboundedness
# ---------------------------------------------------------------------------

def test_segment_endpoint_polytopes_are_triangles(hexagon):
    from facetfit.geometry import vertices
    for endpoint in SEGMENT_ENDPOINTS:
        vm = vertices(hexagon, endpoint)
        assert len(vm.merged_groups) == 3
        distinct = hexagon.n_cells - sum(len(g) - 1 for g in vm.merged_groups)
        assert distinct == 3


def test_one_cell_sampling_is_unbounded(hexagon):
    dirs = np.array([[1.0, 0.2], [1.0, 0.5], [0.9, 0.6]])
    design = build_design(hexagon, dirs)
    assert detect_unbounded(hexagon, design)
    res = reconstruct(hexagon, Dataset(dirs, np.ones(3)))
    assert not res.solution_set.bounded
    # Explicit certificate: this direction is in the cone and the kernel.
    ray = np.array([0.0, 0, 1, 1, 1, 0])
    assert np.min(hexagon.wall_system.matrix @ ray) >= -1e-12
    assert np.allclose(design.matrix @ ray, 0.0, atol=1e-12)


def test_full_rank_design_is_bounded(hexagon):
    design = build_design(hexagon, hexagon.rays)
    assert not detect_unbounded(hexagon, design)


def test_cycle_design_is_bounded(hexagon):
    design = build_design(hexagon, cycle_dataset(hexagon).directions)
    assert not detect_unbounded(hexagon, design)


def test_unboundedness_matches_solution_set_flag(hexagon, random_fans):
    rng = np.random.default_rng(90)
    for fan in [hexagon] + random_fans[:2]:
        for trial in range(6):
            m = int(rng.integers(1, fan.n_rays + 3))
            from facetfit.sim import sample_uniform_sphere
            dirs = sample_uniform_sphere(fan.dim, m, seed=600 + trial)
            design = build_design(fan, dirs)
            h0 = random_members(fan, 1, seed=700 + trial)[0]
            res = reconstruct(fan, Dataset(dirs, design.matrix @ h0))
            assert detect_unbounded(fan, design) == (not res.solution_set.bounded)


# Seven unit directions that positively span R^3: the second draw of
# ``standard_normal((7, 3))`` from ``default_rng([4, 2, 0])``, normalized.
SPANNING_SEVEN = np.array([
    [0.8922229403018752, -0.31680892336868866, -0.3218234467422296],
    [0.35562629842086063, -0.8351797304675334, -0.41952920480898037],
    [-0.5317958416291245, -0.8024792420650388, -0.27059240359014447],
    [-0.7579992682038218, 0.5412318178598935, 0.3640126766179245],
    [-0.22630013012314099, 0.9552035131113621, 0.1907209994886807],
    [-0.5188484248890702, -0.8415017523203, -0.15056929578103],
    [-0.6077593076836418, -0.4576225904498024, 0.6490070790322034],
])


def test_spanning_design_on_ten_rays_is_bounded():
    # m = 7 < n = 10, but the directions positively span R^3, so no nonzero
    # h in the design kernel meets the walls: the minimizer set is bounded.
    fan = catalog.random_polytopal_fan(3, 10, seed=11)
    design = build_design(fan, SPANNING_SEVEN)
    assert not detect_unbounded(fan, design)
    y = design.matrix @ np.ones(fan.n_rays)
    res = reconstruct(fan, Dataset(SPANNING_SEVEN, y))
    assert res.solution_set.bounded


def test_translation_kernel_direction_is_detected(hexagon):
    # Every sample orthogonal to the y axis: translations along y are
    # invisible, so the solution set is unbounded even though the coordinate
    # sums of those directions vanish.
    dirs = np.array([[1.0, 0.0], [-1.0, 0.0]])
    design = build_design(hexagon, dirs)
    assert detect_unbounded(hexagon, design)


# ---------------------------------------------------------------------------
# Multi-fan estimation
# ---------------------------------------------------------------------------

def test_multi_fan_tie(roof_y, roof_x):
    # Noiseless evaluations of both target bodies at the reference
    # directions; the source prints (6,6,6,6,10,10) for this vector but its
    # own matrices give 14 in entry 5 (see the design-matrix tests).
    y = np.array([6.0, 6, 6, 6, 14, 10])
    multi = reconstruct_multi([roof_y, roof_x], Dataset(ROOF_DIRECTIONS, y))
    assert multi.minimizing_fans == (0, 1)
    assert multi.is_tie
    assert multi.best_objective <= 1e-16
    assert np.allclose(multi.results[0].h_hat, [4, 4, 2, 2, 0], atol=1e-7)
    assert np.allclose(multi.results[1].h_hat, [2, 2, 4, 4, 0], atol=1e-7)


def test_multi_single_fan_matches_reconstruct(hexagon):
    ds = cycle_dataset(hexagon)
    multi = reconstruct_multi([hexagon], ds)
    solo = reconstruct(hexagon, ds)
    assert multi.best_objective == pytest.approx(solo.objective, abs=1e-15)
    assert np.allclose(multi.results[0].h_hat, solo.h_hat, atol=1e-12)


def test_multi_with_ray_directions_shares_identity_design(roof_y, roof_x):
    rays = roof_y.rays
    for fan in (roof_y, roof_x):
        assert np.allclose(build_design(fan, rays).matrix, np.eye(5), atol=1e-12)
    # A target on the common cone boundary is fit exactly by both fans.
    y = np.array([1.0, 1.0, 1.0, 1.0, 0.3])
    multi = reconstruct_multi([roof_y, roof_x], Dataset(rays, y))
    assert multi.is_tie
    assert multi.best_objective <= 1e-16


def test_multi_requires_a_fan(hexagon):
    with pytest.raises(ValueError, match="^need at least one fan$"):
        reconstruct_multi([], cycle_dataset(hexagon))


def test_multi_requires_shared_rays(hexagon, roof_y):
    with pytest.raises(ValueError):
        reconstruct_multi([hexagon, roof_y], cycle_dataset(hexagon))


def test_multi_lower_envelope_on_noiseless_data(roof_y, roof_x):
    # Noiseless data from a body strictly inside one cone: the best
    # objective over the fan list is attained (at zero) on that fan.
    h0 = np.array([4.0, 4, 2, 2, 0])
    dirs = np.vstack([roof_y.rays, ROOF_DIRECTIONS])
    design = build_design(roof_y, dirs)
    ds = Dataset(dirs, design.matrix @ h0)
    multi = reconstruct_multi([roof_y, roof_x], ds)
    solo = reconstruct(roof_y, ds)
    assert multi.best_objective == pytest.approx(solo.objective, abs=1e-12)
    assert solo.objective <= 1e-16
    assert 0 in multi.minimizing_fans
    assert multi.results[1].objective > 1e-2  # wrong cone cannot fit exactly


# ---------------------------------------------------------------------------
# Support-point baseline
# ---------------------------------------------------------------------------

def test_gk_single_measurement(hexagon):
    u = np.array([2.0, 0.0])
    ds = Dataset(u[None, :], np.array([3.0]))
    h = gk_estimate(hexagon.rays, ds)
    x_hat = 3.0 * u / 4.0
    assert np.allclose(h, hexagon.rays @ x_hat, atol=1e-9)


def test_gk_refuses_an_uncertified_solution(hexagon, uncertified):
    ds = Dataset(np.array([[2.0, 0.0]]), np.array([3.0]))
    with pytest.raises(qp.Uncertified, match="KKT residual") as info:
        gk_estimate(hexagon.rays, ds)
    assert not info.value.solution.certified


@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_reconstruct_refuses_data_whose_tolerance_overflows(hexagon, scale):
    # At 1e200 the KKT tolerance is inf, and the result, objective inf,
    # was certified; at 1e150 it is finite and the residual above it.
    U = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [0.3, 0.4]])
    ds = Dataset(U, np.array([scale, scale, scale, 1.0]))
    with pytest.raises(qp.Uncertified):
        reconstruct(hexagon, ds)


def test_gk_matches_estimator_in_facet_directions(hexagon, roof_y):
    for fan, h0 in [(hexagon, np.array([1.2, 1.0, 1.1, 0.9, 1.3, 1.0])),
                    (roof_y, np.array([4.0, 4, 2, 2, 0]))]:
        ds = Dataset(fan.rays, h0.astype(float))
        h_gk = gk_estimate(fan.rays, ds)
        res = reconstruct(fan, ds)
        assert np.allclose(h_gk, res.h_hat, atol=1e-7)
        fit = support_values(fan, h_gk, fan.rays)
        assert np.allclose(fit, h0, atol=1e-7)


def test_gk_starts_inside_the_cone_at_m_80():
    # The lifted problem has 160 unknowns and 6,320 comparison rows.  From
    # the apex its fit took about 240 s on a 2-core x86-64 host, from
    # x_j = u_j / ||u_j|| under 2 s.
    fan = catalog.regular_polygon_fan(80)
    y = 1.0 + 0.1 * np.random.default_rng(80).standard_normal(80)
    ds = Dataset(fan.rays, y)
    with time_limit(20):
        h_gk = gk_estimate(fan.rays, ds)
    assert np.max(np.abs(h_gk - reconstruct(fan, ds).h_hat)) <= 1e-9


def test_gk_off_facet_measurements_can_disagree():
    # Square facet directions, one diagonal measurement: the point-hull
    # baseline pins the far facets to the fitted point while the
    # cone-constrained estimator leaves them at zero.  Both fits are exact,
    # so the divergence is genuine solution-set ambiguity.
    from facetfit import catalog
    square = catalog.cube_fan(2)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ds = Dataset(u[None, :], np.array([1.0]))
    h_gk = gk_estimate(square.rays, ds)
    res = reconstruct(square, ds)
    assert res.objective <= 1e-18
    assert support_values(square, h_gk, u[None]) == pytest.approx([1.0], abs=1e-9)
    assert is_deformation(square, res.h_hat)
    assert np.linalg.norm(h_gk - res.h_hat) > 0.5


# ---------------------------------------------------------------------------
# One factorization of the design per reconstruction
# ---------------------------------------------------------------------------

def _unit(angles_deg):
    t = np.radians(angles_deg)
    return np.column_stack([np.cos(t), np.sin(t)])


FACTOR_CASES = {
    # m = 15 > n: solution_set stops at the rank.
    "full rank": _unit(np.arange(0.0, 360.0, 24.0)),
    # m = 4 < n: solution_set and detect_unbounded read the kernel too.
    "m < n": _unit([15.0, 105.0, 195.0, 285.0]),
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_reconstruct_factors_the_design_once(hexagon, monkeypatch, case):
    # One SVD per reconstruct, of the design's triangular factor R when
    # m > n and of the design itself, scattered from its blocks, when m <= n.
    U = FACTOR_CASES[case]
    y = 1.0 + 0.05 * np.random.default_rng(8).standard_normal(len(U))
    dm = build_design(hexagon, U)
    factor = dm.factor.R
    assert factor.shape == (min(dm.m, dm.n), dm.n)
    assert (factor.tobytes() == dm.matrix.tobytes()) == (case == "m < n")
    factored = []

    def counted(original):
        def rank_and_kernel(M, *args, **kwargs):
            factored.append(M.shape == factor.shape and np.array_equal(M, factor))
            return original(M, *args, **kwargs)
        return rank_and_kernel

    monkeypatch.setattr(design_mod, "rank_and_kernel", counted(design_mod.rank_and_kernel))
    monkeypatch.setattr(qp, "rank_and_kernel", counted(qp.rank_and_kernel))
    res = reconstruct(hexagon, Dataset(U, y))
    assert sum(factored) == 1
    assert (res.uniqueness.numeric_rank < 6) == (case == "m < n")


def test_design_and_its_kernel_are_read_only(hexagon):
    dm = build_design(hexagon, FACTOR_CASES["m < n"])
    rank, kernel = dm.rank_kernel
    assert dm.rank_kernel[1] is kernel
    assert rank == 4 and kernel.shape == (2, 6)
    for array in (dm.matrix, kernel):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_kernel_basis_is_the_fresh_factorization(hexagon):
    U = FACTOR_CASES["m < n"]
    res = reconstruct(hexagon, Dataset(U, np.ones(len(U))))
    fresh = qp.rank_and_kernel(build_design(hexagon, U).matrix)[1]
    assert res.uniqueness.kernel_basis.tobytes() == fresh.tobytes()
    assert res.uniqueness.kernel_basis.shape == fresh.shape


# ---------------------------------------------------------------------------
# Fields computed on first read
# ---------------------------------------------------------------------------

LAZY_CASES = ["full rank", "cycle", "exact rays", "m < n"]


@pytest.mark.parametrize("case", LAZY_CASES)
def test_lazy_fields_equal_the_eager_report_and_fit(hexagon, case):
    U = {"cycle": cycle_dataset(hexagon).directions,
         "exact rays": hexagon.rays}.get(case)
    U = FACTOR_CASES[case] if U is None else U
    y = 1.0 + 0.05 * np.random.default_rng(9).standard_normal(len(U))
    res = reconstruct(hexagon, Dataset(U, y))
    assert "uniqueness" not in vars(res) and "y_hat" not in vars(res)
    dm = build_design(hexagon, U)
    eager = uniqueness_report(hexagon, dm)
    got = res.uniqueness
    assert got is res.uniqueness
    assert (got.numeric_rank, got.matching_size, got.cells_covered, got.unique_for_all_y) \
        == (eager.numeric_rank, eager.matching_size, eager.cells_covered,
            eager.unique_for_all_y)
    assert got.kernel_basis.shape == eager.kernel_basis.shape
    assert got.kernel_basis.tobytes() == eager.kernel_basis.tobytes()
    assert res.y_hat.tobytes() == dm.dot(res.h_hat).tobytes()
    assert (got.numeric_rank, got.unique_for_all_y) == {
        "full rank": (6, True), "cycle": (5, False), "exact rays": (6, True),
        "m < n": (4, False)}[case]


# ---------------------------------------------------------------------------
# A dataset that carries its design
# ---------------------------------------------------------------------------

def test_a_design_from_another_fan_is_refused(roof_x, roof_y):
    # The two roof fans share their rays; the design is roof_x's.
    design = build_design(roof_x, ROOF_DIRECTIONS)
    data = Dataset(ROOF_DIRECTIONS, np.array([6.0, 6, 6, 6, 14, 10]), design)
    with pytest.raises(ValueError, match="^the dataset's design was built on another fan$"):
        reconstruct(roof_y, data)


def test_a_design_from_other_directions_is_refused(hexagon):
    U = FACTOR_CASES["full rank"]
    other = U.copy()
    other[3] = U[4]
    for directions in (other, U[:-1]):
        data = Dataset(U, np.ones(len(U)), build_design(hexagon, directions))
        with pytest.raises(ValueError,
                           match="^the dataset's design was built from other directions$"):
            reconstruct(hexagon, data)


def test_a_design_whose_directions_were_written_after_the_build_is_refused(hexagon):
    # The README's cycle data, with a ray written into the caller's array
    # after the fit: the design holds a read-only copy of the directions it
    # was built from, so it no longer matches them.
    U = cycle_dataset(hexagon).directions.copy()
    y = 2.0 * np.ones(6)
    design = reconstruct(hexagon, Dataset(U, y)).design
    U[0] = hexagon.rays[0]
    with pytest.raises(ValueError,
                       match="^the dataset's design was built from other directions$"):
        reconstruct(hexagon, Dataset(U, y, design))
    assert reconstruct(hexagon, Dataset(U, y)).objective > 0.2
    assert not design.directions.flags.writeable


@pytest.mark.parametrize("case", LAZY_CASES)
def test_a_valid_design_changes_no_bit_of_the_result(hexagon, case):
    U = {"cycle": cycle_dataset(hexagon).directions,
         "exact rays": hexagon.rays}.get(case)
    U = FACTOR_CASES[case] if U is None else U
    y = 1.0 + 0.05 * np.random.default_rng(10).standard_normal(len(U))
    fresh = reconstruct(hexagon, Dataset(U, y))
    # A design already factored, from an equal copy of the directions.
    design = reconstruct(hexagon, Dataset(U.copy(), 2.0 * y)).design
    given = reconstruct(hexagon, Dataset(U, y, design))
    assert given.design is design
    assert given.h_hat.tobytes() == fresh.h_hat.tobytes()
    assert float(given.objective).hex() == float(fresh.objective).hex()
    got, want = given.solution_set, fresh.solution_set
    assert (got.dimension, got.bounded) == (want.dimension, want.bounded)
    assert (got.segment_endpoints is None) == (want.segment_endpoints is None)
    if want.segment_endpoints is not None:
        assert [e.tobytes() for e in got.segment_endpoints] == \
            [e.tobytes() for e in want.segment_endpoints]
