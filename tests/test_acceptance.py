"""Acceptance suite: one test per criterion at its stated tolerance.

Each test prints `ACCEPTANCE <n> [<label>]: PASS (<seconds>)` on success
(run with ``pytest tests/test_acceptance.py -s`` to stream the lines) and
asserts its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np

from facetfit import catalog
from facetfit.design import Dataset, build_design, max_matching, \
    ray_facet_graph, uniqueness_report
from facetfit.estimator import reconstruct, reconstruct_multi
from facetfit.fan import wall_crossings
from facetfit.geometry import hausdorff, hausdorff_bound, vertices
from facetfit.qp import ConstrainedLS, solve_cls, solve_lp
from facetfit.sim import (
    NoiseModel,
    bound_parameters,
    facet_direction_plan,
    fit_loglog_slope,
    run_convergence,
    sample_uniform_sphere,
)

from conftest import random_members
from oracles import projected_gradient_cls
from test_design import ROOF_DESIGN_X, ROOF_DESIGN_Y, ROOF_DIRECTIONS


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget"


def cone_equals(system_a: np.ndarray, system_b: np.ndarray, n: int) -> bool:
    """Mutual containment of {A h >= 0} and {B h >= 0} by LP over a box."""
    box = [(-1.0, 1.0)] * n
    for outer, inner in ((system_a, system_b), (system_b, system_a)):
        for row in inner:
            worst = solve_lp(row, outer, bounds=box)
            if worst.objective < -1e-9:
                return False
    return True


# ---------------------------------------------------------------------------
# 1. Wall-crossing exactness
# ---------------------------------------------------------------------------

def test_criterion_1_wall_crossing_exactness():
    with criterion(1, "wall-crossing exactness", 1.0):
        hexagon = catalog.hexagon_fan()
        ws = wall_crossings(hexagon)
        assert ws.pairs == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))
        for row, (a, b) in zip(ws.matrix, ws.pairs):
            k = a if (a + 1) % 6 == b else b
            expected = np.zeros(6)
            expected[k] = 1.0
            expected[(k + 1) % 6] = -1.0
            expected[(k + 2) % 6] = 1.0
            assert np.allclose(row, expected, atol=1e-9)

        reduced_y = np.array([[1.0, 1, -1, -1, 0], [0.0, 0, 1, 1, 2]])
        reduced_x = np.array([[-1.0, -1, 1, 1, 0], [1.0, 1, 0, 0, 2]])
        assert cone_equals(wall_crossings(catalog.roof_fan_y()).matrix,
                           reduced_y, 5)
        assert cone_equals(wall_crossings(catalog.roof_fan_x()).matrix,
                           reduced_x, 5)
        # The two reduced systems are genuinely different cones.
        assert not cone_equals(reduced_y, reduced_x, 5)


# ---------------------------------------------------------------------------
# 2. Hexagon cycle reproduction
# ---------------------------------------------------------------------------

def test_criterion_2_hexagon_cycle():
    with criterion(2, "hexagon cycle data", 1.0):
        hexagon = catalog.hexagon_fan()
        U = np.array([hexagon.rays[i] + hexagon.rays[(i + 1) % 6]
                      for i in range(6)])
        res = reconstruct(hexagon, Dataset(U, 2.0 * np.ones(6)))
        assert res.objective <= 1e-12
        assert res.solution_set.dimension == 1
        assert res.solution_set.bounded
        endpoints = sorted(res.solution_set.segment_endpoints,
                           key=lambda e: e[0])
        targets = np.array([[2.0, 4, 2, 4, 2, 4], [4.0, 2, 4, 2, 4, 2]]) / 3.0
        assert np.allclose(endpoints[0], targets[0], atol=1e-7)
        assert np.allclose(endpoints[1], targets[1], atol=1e-7)
        assert res.uniqueness.numeric_rank == 5
        kernel = res.uniqueness.kernel_basis[0]
        alternating = np.array([1.0, -1, 1, -1, 1, -1]) / np.sqrt(6.0)
        assert abs(abs(kernel @ alternating) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# 3. Two-fan tie reproduction
# ---------------------------------------------------------------------------

def test_criterion_3_roof_tie():
    with criterion(3, "two-fan tie", 1.0):
        roof_y, roof_x = catalog.roof_fan_y(), catalog.roof_fan_x()
        design_y = build_design(roof_y, ROOF_DIRECTIONS)
        design_x = build_design(roof_x, ROOF_DIRECTIONS)
        assert np.array_equal(design_y.matrix, ROOF_DESIGN_Y)
        assert np.array_equal(design_x.matrix, ROOF_DESIGN_X)

        h_y = np.array([4.0, 4, 2, 2, 0])
        h_x = np.array([2.0, 2, 4, 4, 0])
        y = design_y.matrix @ h_y
        # Both target bodies produce the same noiseless evaluations.  Note
        # the fifth entry is 14; the source prints 10 there, which its own
        # matrices contradict.
        assert np.array_equal(y, design_x.matrix @ h_x)
        assert np.array_equal(y, [6.0, 6, 6, 6, 14, 10])
        assert y[4] != 10.0

        multi = reconstruct_multi([roof_y, roof_x], Dataset(ROOF_DIRECTIONS, y))
        assert multi.minimizing_fans == (0, 1)
        assert multi.best_objective <= 1e-12
        assert multi.results[0].objective <= 1e-12
        assert multi.results[1].objective <= 1e-12
        assert np.allclose(multi.results[0].h_hat, h_y, atol=1e-7)
        assert np.allclose(multi.results[1].h_hat, h_x, atol=1e-7)


# ---------------------------------------------------------------------------
# 4. Non-convergence outside the assumed cone
# ---------------------------------------------------------------------------

def test_criterion_4_nonconvergence():
    with criterion(4, "non-convergence fixed points", 5.0):
        roof_y, roof_x = catalog.roof_fan_y(), catalog.roof_fan_x()
        h_true = np.array([2.0, 2, 4, 4, 0])
        cases = [
            ([0, 0, 0, 1, 1, 1, 2, 3, 4, 4],
             np.array([2.5, 2.5, 2.5, 2.5, 0.0])),
            ([0, 1, 1, 1, 1, 1, 1, 2, 3, 4],
             np.array([62.0, 42, 52, 52, 0]) / 19.0),
        ]
        for pattern, target in cases:
            estimates = []
            for k in (1, 2, 4):
                dirs = np.array([roof_y.rays[j] for j in pattern] * k)
                values = np.array([h_true[j] for j in pattern] * k)
                res = reconstruct(roof_y, Dataset(dirs, values))
                assert np.allclose(res.h_hat, target, atol=1e-6)
                estimates.append(res.h_hat)
            for est in estimates[1:]:
                assert np.allclose(est, estimates[0], atol=1e-9)
            # Estimates land on the boundary shared with the other cone, so
            # the exact distance to the true body is computed there.
            assert hausdorff(roof_x, estimates[0], h_true) > 0.5


# ---------------------------------------------------------------------------
# 5. Convergence rate at desk scale
# ---------------------------------------------------------------------------

def test_criterion_5_convergence_rate():
    with criterion(5, "convergence rate", 120.0):
        hexagon = catalog.hexagon_fan()
        noise = NoiseModel(sigma=0.1, seed=11)
        records = run_convergence(
            hexagon, np.ones(6),
            lambda m: facet_direction_plan(hexagon, m, delta=1.0 / 6.0, seed=5),
            [100, 1000, 10000], 20, noise)
        assert len(records) == 60
        assert not any(r.failed for r in records)
        medians = [float(np.median([r.hausdorff_error for r in records
                                    if r.m == m]))
                   for m in (100, 1000, 10000)]
        assert medians[0] > medians[1] > medians[2]
        slope = fit_loglog_slope(records)
        assert -0.65 <= slope <= -0.35
        params = bound_parameters(
            hexagon, facet_direction_plan(hexagon, 100, delta=1.0 / 6.0, seed=5),
            gamma=noise.gamma, eta=0.05)
        violations = sum(1 for r in records
                         if r.hausdorff_error >= params.value(r.m))
        assert violations <= 3


# ---------------------------------------------------------------------------
# 6. Oracle equivalence suite
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalence(random_fans):
    with criterion(6, "oracle equivalence", 60.0):
        from oracles import vertex_distance_hausdorff
        assert len(random_fans) == 10
        rng = np.random.default_rng(1234)
        for fi, fan in enumerate(random_fans):
            members = random_members(fan, 100, seed=4000 + fi,
                                     translations=False)
            U = rng.standard_normal((100, fan.dim))
            U = U[np.linalg.norm(U, axis=1) > 1e-9]
            design = build_design(fan, U)
            vertex_maps = [vertices(fan, h).points for h in members]
            for h, pts in zip(members, vertex_maps):
                direct = design.matrix @ h
                oracle = (pts @ U.T).max(axis=0)
                scale = 1.0 + np.linalg.norm(h) * np.linalg.norm(U, axis=1)
                assert np.all(np.abs(direct - oracle) <= 1e-8 * scale)
            for k in range(0, 60, 2):
                h1, h2 = members[k], members[k + 1]
                exact = hausdorff(fan, h1, h2)
                oracle = vertex_distance_hausdorff(
                    fan, h1, h2, vertex_maps[k], vertex_maps[k + 1])
                assert abs(exact - oracle) <= 1e-6
                assert exact <= hausdorff_bound(fan, h1, h2) + 1e-12


# ---------------------------------------------------------------------------
# 7. Uniqueness diagnostics
# ---------------------------------------------------------------------------

def test_criterion_7_uniqueness_diagnostics(random_fans):
    with criterion(7, "uniqueness diagnostics", 30.0):
        corpus = [catalog.hexagon_fan(), catalog.roof_fan_y(),
                  catalog.roof_fan_x(), catalog.cube_fan(2),
                  catalog.cube_fan(3), catalog.regular_polygon_fan(5),
                  catalog.regular_polygon_fan(9)] + list(random_fans)
        for fan in corpus:
            assert max_matching(ray_facet_graph(fan)) == fan.n_rays

        # 100 seeded datasets with one interior sample per cell: full rank.
        rng = np.random.default_rng(4321)
        pool = [catalog.hexagon_fan(), catalog.roof_fan_y(), random_fans[0],
                random_fans[5]]
        for trial in range(100):
            fan = pool[trial % len(pool)]
            dirs = []
            for cell in fan.cells:
                lam = rng.uniform(0.1, 1.0, size=fan.dim)
                dirs.append(lam @ fan.rays[list(cell)])
            report = uniqueness_report(fan, build_design(fan, np.array(dirs)))
            assert all(report.cells_covered)
            assert report.numeric_rank == fan.n_rays
            assert report.unique_for_all_y

        # Fewer samples than rays can never be unique for all data.
        for trial in range(30):
            fan = pool[trial % len(pool)]
            m = int(rng.integers(1, fan.n_rays))
            U = sample_uniform_sphere(fan.dim, m, seed=7000 + trial)
            report = uniqueness_report(fan, build_design(fan, U))
            assert report.numeric_rank <= m
            assert not report.unique_for_all_y


# ---------------------------------------------------------------------------
# 8. KKT certification
# ---------------------------------------------------------------------------

def test_criterion_8_kkt_certification():
    with criterion(8, "KKT certification", 60.0):
        rng = np.random.default_rng(2718)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 21))
            p = int(rng.integers(0, 11))
            A = rng.standard_normal((m, n))
            y = rng.standard_normal(m)
            B = rng.standard_normal((p, n)) if p else np.zeros((0, n))
            problem = ConstrainedLS(A, y, B)
            sol = solve_cls(problem)

            grad = A.T @ (A @ sol.h_star - y)
            kkt_tol = 1e-8 * (1.0 + np.linalg.norm(A.T @ y))
            feas_tol = 1e-9 * (1.0 + np.linalg.norm(sol.h_star))
            assert np.all(sol.multipliers >= 0.0)
            if p:
                bh = B @ sol.h_star
                assert np.min(bh) >= -feas_tol
                assert np.linalg.norm(grad - B.T @ sol.multipliers) <= kkt_tol
                assert np.max(np.abs(sol.multipliers * bh)) <= kkt_tol
            else:
                assert np.linalg.norm(grad) <= kkt_tol

            _, oracle_obj = projected_gradient_cls(A, y, B)
            assert sol.objective <= oracle_obj + 1e-10
            assert abs(sol.objective - oracle_obj) <= 1e-5 * (1.0 + oracle_obj)
