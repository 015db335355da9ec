"""One Householder QR per tall design, against the full-design references.

The active set runs on the n x n factor R of a tall design.  Its estimate
and objective must agree with the same iteration on the full m x n design
(``oracles.full_design_cls``) and, at large m with active walls, with
scipy's NNLS; its rank and kernel with an SVD of the design; its ratio
test bit for bit with the per-wall loop; and the matching on support
patterns with the matching on every sample.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, qp
from facetfit.design import (POSITIVITY_TOL, Dataset, build_design, direction_graph,
                             max_matching, uniqueness_report)
from facetfit.estimator import reconstruct
from facetfit.qp import ConstrainedLS, IterationLimit, SolverOptions, solve_cls

from oracles import (brute_max_matching, full_design_cls, loop_ratio_test,
                     nnls_cone_least_squares)


@functools.cache
def fans():
    return (catalog.hexagon_fan(), catalog.regular_polygon_fan(8),
            catalog.cube_fan(3), catalog.cube_fan(4),
            catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(3, 8, seed=204),
            catalog.random_polytopal_fan(3, 12, seed=7))


def cell_directions(fan, rng, m, cells, zero_share=0.0):
    """m positive combinations of the generators of cells drawn from
    ``cells``; each weight is zeroed with probability ``zero_share``, so
    rows land on faces, rays and (all zero, redrawn) nowhere."""
    rows = []
    while len(rows) < m:
        gens = fan.rays[list(fan.cells[rng.choice(cells)])]
        weights = rng.random(fan.dim) * (rng.random(fan.dim) >= zero_share)
        if weights.any():
            rows.append(weights @ gens)
    return np.array(rows)


def tall_instance(fan, seed, m, sigma, restrict):
    """A tall design, Gaussian or confined to half the cells (then some rays
    carry no sample and the rank drops), with values ``1 + sigma N(0, 1)``:
    for sigma of 0.1 and above, walls are active at about half the optima."""
    rng = np.random.default_rng(seed)
    m = fan.n_rays + 1 + m
    if restrict:
        cells = rng.choice(fan.n_cells, size=max(1, fan.n_cells // 2), replace=False)
        U = cell_directions(fan, rng, m, cells)
    else:
        U = rng.standard_normal((m, fan.dim))
    return build_design(fan, U), 1.0 + sigma * rng.standard_normal(m)


# ---------------------------------------------------------------------------
# The factor
# ---------------------------------------------------------------------------

def test_factor_reduces_y_to_q_transpose_y():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((300, 7))
    y = rng.standard_normal(300)
    factor = qp.triangular_factor(A)
    Q, R = np.linalg.qr(A)
    assert factor.R.shape == (7, 7) and np.array_equal(factor.R, np.triu(factor.R))
    assert np.allclose(factor.R, R, rtol=0, atol=1e-13)
    assert np.allclose(factor.reduce(y), Q.T @ y, rtol=0, atol=1e-13)
    assert np.allclose(factor.R.T @ factor.reduce(y), A.T @ y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(4, 6), (6, 6)])
def test_a_matrix_with_m_at_most_n_is_its_own_factor(shape):
    A = np.random.default_rng(4).standard_normal(shape)
    y = np.arange(shape[0], dtype=float)
    factor = qp.triangular_factor(A)
    assert factor.R is A and factor.reduce(y) is y


# ---------------------------------------------------------------------------
# The active set on R against the active set on the full design
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       m=st.integers(0, 150), sigma=st.floats(0.1, 1.0), restrict=st.booleans())
def test_qr_path_agrees_with_the_full_design(index, seed, m, sigma, restrict):
    fan = fans()[index]
    dm, y = tall_instance(fan, seed, m, sigma, restrict)
    A, B = dm.matrix, fan.wall_system.matrix
    sol = solve_cls(ConstrainedLS(dm, y, B))
    h_ref, obj_ref = full_design_cls(A, y, B)
    assert sol.certified
    assert abs(sol.objective - obj_ref) <= 1e-9 * (1.0 + obj_ref)
    y_ref = A @ h_ref
    assert np.max(np.abs(A @ sol.h_star - y_ref)) <= 1e-9 * (1.0 + np.max(np.abs(y_ref)))

    rank, kernel = dm.rank_kernel
    rank_a, kernel_a = qp.rank_and_kernel(A)
    assert rank == rank_a == np.linalg.matrix_rank(A)
    # A cold fit that restarts from an interior point may end at another
    # point of the minimizer set than the apex path does, unless A has
    # full column rank and that set is one point.
    if rank == fan.n_rays:
        assert np.max(np.abs(sol.h_star - h_ref)) <= 1e-9 * (1.0 + np.max(np.abs(h_ref)))
    assert np.allclose(kernel.T @ kernel, kernel_a.T @ kernel_a, rtol=0, atol=1e-9)


def test_active_walls_at_large_m_match_nnls():
    # From the apex, which an explicit start at 0 keeps: the first step is
    # blocked there, and the walls join the working set one at a time.
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    rng = np.random.default_rng(7)
    U = rng.standard_normal((20_000, 3))
    U /= np.linalg.norm(U, axis=1)[:, None]
    y = 1.0 + 0.1 * rng.standard_normal(len(U))
    res = reconstruct(fan, Dataset(U, y), SolverOptions(warm_start=np.zeros(fan.n_rays)))
    sol = res.qp_solution
    A, B = build_design(fan, U).matrix, fan.wall_system.matrix
    h_ref, obj_ref = nnls_cone_least_squares(A, y, B)
    assert sol.active_rows == (2, 5, 14, 15, 20) and sol.iterations > 40
    assert sol.certified and sol.kkt_residual <= 1e-6 * sol.kkt_tolerance
    assert np.max(np.abs(res.h_hat - h_ref)) <= 1e-12 * (1.0 + np.max(np.abs(h_ref)))
    assert abs(res.objective - obj_ref) <= 1e-12 * obj_ref


def _measured_on_the_original(problem, sol):
    """The figures of ``sol`` recomputed from (A, y, B) and its multipliers."""
    A, y, B = problem.A, problem.y, problem.B
    residual = A @ sol.h_star - y
    grad = A.T @ residual
    bh = B @ sol.h_star
    ftol = 1e-9 * (1.0 + np.linalg.norm(sol.h_star))
    kkt = max(np.linalg.norm(grad - B.T @ sol.multipliers),
              max(0.0, float(-np.min(bh)) - ftol),
              float(np.max(np.abs(sol.multipliers * bh))))
    assert sol.objective == float(residual @ residual)
    assert sol.kkt_residual == kkt
    assert sol.kkt_tolerance == 1e-8 * (1.0 + np.linalg.norm(A.T @ y))
    assert sol.active_rows == tuple(np.flatnonzero(bh <= ftol).tolist())
    assert np.all(sol.multipliers >= 0.0)
    assert set(np.flatnonzero(sol.multipliers).tolist()) <= set(sol.active_rows)


def test_reported_figures_are_measured_on_the_design(monkeypatch):
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    dm, y = tall_instance(fan, 11, 3000, 0.3, False)
    problem = ConstrainedLS(dm.matrix, y, fan.wall_system.matrix)
    apex = SolverOptions(warm_start=np.zeros(fan.n_rays))
    sol = solve_cls(problem, apex)
    assert sol.active_rows and sol.certified
    _measured_on_the_original(problem, sol)
    # From the apex, a cap of one subproblem per unknown and wall,
    # n + p = 42, stops the iteration short of the optimum, with walls in
    # the working set.
    assert sol.iterations > 42
    monkeypatch.setattr(qp, "_ITERATION_CAP_FACTOR", 1)
    with pytest.raises(IterationLimit) as info:
        solve_cls(problem, apex)
    assert info.value.solution.iterations == 43
    assert np.any(info.value.solution.multipliers)
    _measured_on_the_original(problem, info.value.solution)


# ---------------------------------------------------------------------------
# Certify or refuse
# ---------------------------------------------------------------------------

def test_reconstruct_refuses_an_uncertified_solution(hexagon, uncertified):
    U = np.random.default_rng(6).standard_normal((30, 2))
    with pytest.raises(qp.Uncertified, match="KKT residual") as info:
        reconstruct(hexagon, Dataset(U, np.ones(30)))
    assert not info.value.solution.certified


# ---------------------------------------------------------------------------
# The ratio test
# ---------------------------------------------------------------------------

# Offsets around a common limit, in and out of the 1e-15 slack.
OFFSETS = (0.0, 2.2e-16, 4.4e-16, 9e-16, 1e-15, 1.1e-15, 2e-15, 3.3e-15, 1e-9)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.integers(1, 14),
       base=st.sampled_from((0.0, 0.25, 0.5, 1.0 - 2e-15, 1.0 - 1e-15, 1.0, 1.5)))
def test_ratio_test_matches_the_wall_loop(data, p, base):
    kinds = data.draw(st.lists(st.sampled_from(("tie", "tie", "far", "rising", "negative")),
                               min_size=p, max_size=p))
    bh, bstep = np.zeros(p), np.zeros(p)
    for i, kind in enumerate(kinds):
        sign = data.draw(st.sampled_from((-1.0, 1.0)))
        offset = data.draw(st.sampled_from(OFFSETS))
        if kind == "tie":        # limit base +- offset, bstep -1 exactly
            bh[i], bstep[i] = base + sign * offset, -1.0
        elif kind == "far":
            bh[i], bstep[i] = data.draw(st.floats(0.0, 4.0)), -data.draw(st.floats(0.5, 3.0))
        elif kind == "rising":   # not falling, or within the scale of zero
            bh[i], bstep[i] = 1.0, data.draw(st.sampled_from((0.0, -1e-13, 1e-13, 2.0)))
        else:                    # already past the wall: limit 0
            bh[i], bstep[i] = -data.draw(st.floats(0.0, 1.0)), -1.0
    working = sorted(data.draw(st.sets(st.integers(0, p - 1), max_size=p)))
    alpha, blocker = qp._ratio_test(bh, bstep, working)
    alpha_ref, blocker_ref = loop_ratio_test(bh, bstep, working)
    assert blocker == blocker_ref
    assert np.float64(alpha).tobytes() == np.float64(alpha_ref).tobytes()


# ---------------------------------------------------------------------------
# Matching on support patterns
# ---------------------------------------------------------------------------

def _row_covered_cells(fan, dm):
    interior = np.count_nonzero(dm.matrix > POSITIVITY_TOL, axis=1) == fan.dim
    return [bool(np.any(interior & (dm.carrier_cells == c))) for c in range(fan.n_cells)]


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 300), zero_share=st.sampled_from((0.0, 0.4, 0.7)))
def test_pattern_matching_equals_the_sample_matching(index, seed, m, zero_share):
    fan = fans()[index]
    rng = np.random.default_rng(seed)
    # Few cells, so that patterns repeat and some rays go unmatched.
    cells = rng.choice(fan.n_cells, size=int(rng.integers(1, fan.n_cells + 1)),
                       replace=False)
    dm = build_design(fan, cell_directions(fan, rng, m, cells, zero_share))
    report = uniqueness_report(fan, dm)
    graph = direction_graph(dm)
    assert report.matching_size == max_matching(graph)
    if fan.n_rays <= 8 and m <= 12:
        assert report.matching_size == brute_max_matching(graph.ray_neighbors,
                                                          graph.n_samples)
    assert report.cells_covered == _row_covered_cells(fan, dm)
