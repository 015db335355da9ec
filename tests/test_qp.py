import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import qp
from facetfit.qp import (
    BlockMatrix,
    ConstrainedLS,
    Infeasible,
    IterationLimit,
    SolverOptions,
    Unbounded,
    rank_and_kernel,
    solve_cls,
    solve_lp,
)

from oracles import projected_gradient_cls


def hexagon_walls():
    B = np.zeros((6, 6))
    for k in range(6):
        B[k, k] = 1.0
        B[k, (k + 1) % 6] = -1.0
        B[k, (k + 2) % 6] = 1.0
    return B


def cycle_design():
    A = np.zeros((6, 6))
    for i in range(6):
        A[i, i] = 1.0
        A[i, (i + 1) % 6] = 1.0
    return A


def assert_kkt(problem: ConstrainedLS, sol):
    """Recompute the KKT triple from scratch at the stated tolerances."""
    A, y, B = problem.A, problem.y, problem.B
    grad = A.T @ (A @ sol.h_star - y)
    kkt_tol = 1e-8 * (1.0 + np.linalg.norm(A.T @ y))
    feas_tol = 1e-9 * (1.0 + np.linalg.norm(sol.h_star))
    assert np.all(sol.multipliers >= 0.0)
    if B.shape[0]:
        bh = B @ sol.h_star
        assert np.min(bh) >= -feas_tol
        assert np.linalg.norm(grad - B.T @ sol.multipliers) <= kkt_tol
        assert np.max(np.abs(sol.multipliers * bh)) <= kkt_tol
        support = np.nonzero(sol.multipliers > 0)[0]
        assert set(support).issubset(set(sol.active_rows))
    else:
        assert np.linalg.norm(grad) <= kkt_tol
    assert sol.kkt_residual <= kkt_tol


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------

def test_lp_segment_extent_of_cycle_problem():
    # Range of movement along the alternating kernel direction inside the
    # hexagon wall cone, anchored at the all-ones vector: B (1 + x z) >= 0
    # posed as (B z) x - s = -B 1 with slacks s >= 0.
    B = hexagon_walls()
    z = np.array([1.0, -1, 1, -1, 1, -1])
    E = np.hstack([(B @ z)[:, None], -np.eye(6)])
    f = -(B @ np.ones(6))
    bounds = [(-np.inf, np.inf)] + [(0.0, np.inf)] * 6
    c = np.zeros(7)
    c[0] = 1.0
    hi = solve_lp(-c, E=E, f=f, bounds=bounds)
    lo = solve_lp(c, E=E, f=f, bounds=bounds)
    assert hi.x[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert lo.x[0] == pytest.approx(-1.0 / 3.0, abs=1e-9)


def test_lp_zero_objective_returns_feasible_point():
    B = hexagon_walls()
    sol = solve_lp(np.zeros(6), B, bounds=[(-1.0, 1.0)] * 6)
    assert sol.objective == 0.0
    assert np.min(B @ sol.x) >= -1e-9


def test_lp_unbounded_detection():
    with pytest.raises(Unbounded):
        solve_lp(np.array([-1.0, 0.0]))


def test_lp_infeasible_detection():
    # -x >= 1 with x >= 0, posed as -x - s = 1 with a slack s >= 0.
    with pytest.raises(Infeasible):
        solve_lp(np.array([1.0, 0.0]), E=np.array([[-1.0, -1.0]]), f=np.array([1.0]),
                 bounds=[(0.0, np.inf), (0.0, np.inf)])


def test_lp_equality_and_bounds():
    # min x1 + x2 s.t. x1 + x2 + x3 = 1, 0 <= x <= 1.
    sol = solve_lp(np.array([1.0, 1.0, 0.0]),
                   E=np.array([[1.0, 1.0, 1.0]]), f=np.array([1.0]),
                   bounds=[(0.0, 1.0)] * 3)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.x[2] == pytest.approx(1.0, abs=1e-9)


def test_lp_deterministic():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(5)
    B = rng.standard_normal((7, 5))
    a = solve_lp(c, B, bounds=[(-2.0, 2.0)] * 5)
    b = solve_lp(c, B, bounds=[(-2.0, 2.0)] * 5)
    assert np.array_equal(a.x, b.x)


# ---------------------------------------------------------------------------
# Constrained least squares
# ---------------------------------------------------------------------------

def test_cycle_problem_reaches_zero_objective():
    problem = ConstrainedLS(cycle_design(), 2.0 * np.ones(6), hexagon_walls())
    sol = solve_cls(problem)
    assert sol.objective <= 1e-18
    # The minimizer set is the segment ones + lambda * alternating,
    # lambda in [-1/3, 1/3].
    z = np.array([1.0, -1, 1, -1, 1, -1]) / 6.0
    lam = float((sol.h_star - 1.0) @ z * 6.0 / 6.0)
    assert np.allclose(sol.h_star, np.ones(6) + lam * np.array([1.0, -1, 1, -1, 1, -1]),
                       atol=1e-9)
    assert -1.0 / 3.0 - 1e-9 <= lam <= 1.0 / 3.0 + 1e-9
    assert rank_and_kernel(cycle_design())[0] == 5
    assert_kkt(problem, sol)


def test_unconstrained_projection():
    problem = ConstrainedLS(np.eye(4), np.array([1.0, -2, 3, 0.5]),
                            np.zeros((0, 4)))
    sol = solve_cls(problem)
    assert np.allclose(sol.h_star, problem.y, atol=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-18)


ROOF_WALLS = np.array([[1.0, 1, -1, -1, 0], [0.0, 0, 1, 1, 2],
                       [1.0, 1, 0, 0, 2]])


def periodic_design(pattern):
    A = np.zeros((len(pattern), 5))
    for i, j in enumerate(pattern):
        A[i, j] = 1.0
    return A


def test_periodic_sequence_fixed_points():
    h_true = np.array([2.0, 2, 4, 4, 0])
    A1 = periodic_design([0, 0, 0, 1, 1, 1, 2, 3, 4, 4])
    sol1 = solve_cls(ConstrainedLS(A1, A1 @ h_true, ROOF_WALLS))
    assert np.allclose(sol1.h_star, [2.5, 2.5, 2.5, 2.5, 0.0], atol=1e-9)
    A2 = periodic_design([0, 1, 1, 1, 1, 1, 1, 2, 3, 4])
    sol2 = solve_cls(ConstrainedLS(A2, A2 @ h_true, ROOF_WALLS))
    assert np.allclose(sol2.h_star,
                       np.array([62.0, 42, 52, 52, 0]) / 19.0, atol=1e-9)
    for problem, sol in [(ConstrainedLS(A1, A1 @ h_true, ROOF_WALLS), sol1),
                         (ConstrainedLS(A2, A2 @ h_true, ROOF_WALLS), sol2)]:
        assert_kkt(problem, sol)


def random_instance(rng, n_max=8, m_max=20):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(0, 11))
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    B = rng.standard_normal((p, n)) if p else np.zeros((0, n))
    return ConstrainedLS(A, y, B)


def assert_a_zero_wall_never_binds(problem):
    """Appending a zero wall row leaves the path and the fit bit for bit:
    the row never falls, so it never blocks a step or joins the working
    set; it is active (0 <= tolerance) with multiplier 0."""
    sol = solve_cls(problem)
    p, n = problem.B.shape
    walled = ConstrainedLS(problem.A, problem.y, np.vstack([problem.B, np.zeros((1, n))]))
    sol2 = solve_cls(walled)
    assert sol2.h_star.tobytes() == sol.h_star.tobytes()
    assert sol2.objective == sol.objective and sol2.iterations == sol.iterations
    assert sol2.active_rows == sol.active_rows + (p,)
    assert sol2.multipliers.tobytes() == np.append(sol.multipliers, 0.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_zero_wall_row_never_binds(seed):
    # p = 0 here too: one zero wall against none.
    assert_a_zero_wall_never_binds(random_instance(np.random.default_rng(seed)))


def test_a_working_set_of_rank_n_takes_no_step(monkeypatch):
    # min ||h + 1||^2 over h >= 0: the walls join the working set one by
    # one until its null space is {0}, and the last subproblem is a
    # least-squares problem in no unknowns, on an n x 0 matrix.
    shapes = []
    lstsq = np.linalg.lstsq

    def spy(M, b, **kwargs):
        shapes.append(M.shape)
        return lstsq(M, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    sol = solve_cls(ConstrainedLS(np.eye(4), -np.ones(4), np.eye(4)))
    assert (4, 0) in shapes
    assert sol.certified and sol.active_rows == (0, 1, 2, 3)
    assert np.all(sol.h_star == 0.0) and np.all(sol.multipliers == 1.0)


def test_kkt_certificates_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        problem = random_instance(rng)
        sol = solve_cls(problem)
        assert_kkt(problem, sol)


def test_projected_gradient_oracle_agreement():
    rng = np.random.default_rng(99)
    for _ in range(15):
        problem = random_instance(rng, n_max=6, m_max=12)
        sol = solve_cls(problem)
        _, oracle_obj = projected_gradient_cls(problem.A, problem.y, problem.B)
        assert sol.objective <= oracle_obj + 1e-10
        assert abs(sol.objective - oracle_obj) <= 1e-5 * (1.0 + oracle_obj)


def test_objective_monotone_under_consistent_row():
    rng = np.random.default_rng(5)
    problem = random_instance(rng, n_max=6, m_max=10)
    sol = solve_cls(problem)
    new_row = rng.standard_normal(problem.A.shape[1])
    extended = ConstrainedLS(
        np.vstack([problem.A, new_row]),
        np.concatenate([problem.y, [new_row @ sol.h_star]]),
        problem.B)
    sol2 = solve_cls(extended)
    assert abs(sol2.objective - sol.objective) <= 1e-10 * (1.0 + sol.objective)


def test_scaling_covariance():
    rng = np.random.default_rng(8)
    problem = random_instance(rng, n_max=6, m_max=12)
    alpha = 3.5
    scaled = ConstrainedLS(problem.A, alpha * problem.y, problem.B)
    sol = solve_cls(problem)
    sol_scaled = solve_cls(scaled)
    assert np.allclose(sol_scaled.h_star, alpha * sol.h_star,
                       rtol=1e-8, atol=1e-10)
    assert sol_scaled.objective == pytest.approx(alpha ** 2 * sol.objective,
                                                 rel=1e-8, abs=1e-12)


def test_warm_start_changes_path_not_fit():
    problem = ConstrainedLS(cycle_design(), 2.0 * np.ones(6), hexagon_walls())
    cold = solve_cls(problem)
    warm = solve_cls(problem, SolverOptions(
        warm_start=np.array([4.0, 2, 4, 2, 4, 2]) / 3.0))
    y_cold = problem.A @ cold.h_star
    y_warm = problem.A @ warm.h_star
    assert np.allclose(y_cold, y_warm, atol=1e-8)


@pytest.mark.parametrize("start", [np.ones(5), np.ones((2, 3)), np.full(6, np.nan),
                                   np.array([1.0, 1, 1, np.inf, 1, 1])])
def test_a_warm_start_of_wrong_shape_or_not_finite_is_refused(start):
    problem = ConstrainedLS(cycle_design(), 2.0 * np.ones(6), hexagon_walls())
    with pytest.raises(ValueError, match=r"shape \(6,\)"):
        solve_cls(problem, SolverOptions(warm_start=start))


@pytest.mark.parametrize("where", ["A", "y", "B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_problem_is_refused(where, bad):
    data = {"A": cycle_design(), "y": 2.0 * np.ones(6), "B": hexagon_walls()}
    data[where].flat[0] = bad
    with pytest.raises(ValueError, match=f"^non-finite entry in {where}$"):
        ConstrainedLS(data["A"], data["y"], data["B"])


def test_a_block_matrix_is_checked_through_its_blocks(monkeypatch):
    values = np.ones((2, 3))
    values[1, 2] = np.nan
    A = BlockMatrix(shape=(4, 6), blocks=(
        (np.array([0, 1]), np.array([0, 1, 2]), np.ones((2, 3))),
        (np.array([2, 3]), np.array([3, 4, 5]), values)))
    monkeypatch.setattr(BlockMatrix, "dense", lambda self: pytest.fail("densified"))
    with pytest.raises(ValueError, match="^non-finite entry in A$"):
        ConstrainedLS(A, np.ones(4), np.zeros((0, 6)))
    values[1, 2] = 1.0
    assert ConstrainedLS(A, np.ones(4), np.zeros((0, 6))).A is A


@pytest.mark.parametrize("y, B, message", [
    (np.ones(5), np.zeros((1, 6)), "A and y have inconsistent shapes"),
    (np.ones(6), np.zeros((1, 5)), "B and A have inconsistent column counts"),
])
def test_a_problem_of_inconsistent_shapes_is_refused(y, B, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConstrainedLS(cycle_design(), y, B)


def test_a_warm_start_outside_the_cone_falls_back_to_zero():
    problem = ConstrainedLS(cycle_design(), 2.0 * np.ones(6), hexagon_walls())
    outside = np.array([1.0, 0, 0, 0, 0, 0])
    assert np.min(problem.B @ outside) < 0
    warm = solve_cls(problem, SolverOptions(warm_start=outside))
    cold = solve_cls(problem)
    assert warm.h_star.tobytes() == cold.h_star.tobytes()
    assert warm.iterations == cold.iterations


def test_iteration_limit_carries_best_iterate(monkeypatch):
    rng = np.random.default_rng(12)
    problem = random_instance(rng, n_max=6, m_max=12)
    monkeypatch.setattr(qp, "_ITERATION_CAP_FACTOR", 0)
    with pytest.raises(IterationLimit) as info:
        solve_cls(problem)
    sol = info.value.solution
    assert sol.h_star.shape == (problem.A.shape[1],)


def test_an_uncertified_solution_is_raised_with_the_solution(uncertified):
    problem = ConstrainedLS(cycle_design(), 2.0 * np.ones(6), hexagon_walls())
    with pytest.raises(qp.Uncertified, match="^KKT residual .* above its tolerance ") as info:
        solve_cls(problem)
    sol = info.value.solution
    assert not sol.certified and sol.kkt_residual == 2.0 * sol.kkt_tolerance
    assert sol.objective <= 1e-18


def test_a_tolerance_that_overflows_certifies_nothing():
    # 1e-8 (1 + ||A^T y||) is inf once ||A^T y|| passes about 1e154, and
    # every residual, even an inf one, was at most it.
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    problem = ConstrainedLS(A, np.array([1e200, 1e200]), np.zeros((0, 2)))
    with np.errstate(over="ignore"):
        with pytest.raises(qp.Uncertified, match="^KKT residual .* above its tolerance, "
                                                 "which overflowed to inf$") as info:
            solve_cls(problem)
    sol = info.value.solution
    assert sol.kkt_tolerance == np.inf and not sol.certified


def test_rank_and_kernel_shapes():
    rank, kernel = rank_and_kernel(np.zeros((3, 4)))
    assert rank == 0 and kernel.shape == (4, 4)
    rank, kernel = rank_and_kernel(np.eye(3))
    assert rank == 3 and kernel.shape == (0, 3)
    rank, kernel = rank_and_kernel(np.zeros((0, 3)))
    assert rank == 0 and np.array_equal(kernel, np.eye(3))
