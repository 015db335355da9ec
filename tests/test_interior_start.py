"""A cold fit whose first step is blocked by several walls at the cone's apex
restarts from a least-distance interior point.

A first step blocked by one wall keeps the apex path.  The least-distance
point comes from one Lawson-Hanson NNLS (``qp._nnls``),
checked here against scipy's NNLS and its own optimality certificate.  The
restarted fit must reach the optimum of the apex path, which an explicit
start at 0 keeps: the same objective and fitted values, the same h where
the design has full column rank, and the NNLS oracle's h there too.  Fans
of 100 and 200 rays, on which the apex path stalls, are fitted in seconds.
"""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, qp
from facetfit.design import build_design
from facetfit.qp import ConstrainedLS, SolverOptions, solve_cls

from conftest import time_limit
from oracles import nnls_cone_least_squares
from test_factor import fans, tall_instance


# ---------------------------------------------------------------------------
# The NNLS
# ---------------------------------------------------------------------------

def assert_nnls_certificate(E, f, y):
    """y >= 0 is optimal for ``min ||E y - f||``: the dual ``w = E^T (f - E y)``
    is at most tol everywhere and within tol of 0 where y > 0."""
    w = E.T @ (f - E @ y)
    tol = 1e-9 * np.max(np.linalg.norm(E, axis=0)) * (1.0 + np.linalg.norm(f))
    assert np.all(y >= 0.0)
    assert np.all(w <= tol)
    assert np.all(np.abs(w[y > 0.0]) <= tol)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 15))
def test_nnls_is_certified_and_agrees_with_scipy(seed, rows, cols):
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((rows, cols))
    f = rng.standard_normal(rows)
    y = qp._nnls(E, f)
    assert_nnls_certificate(E, f, y)
    y_ref, rnorm = scipy.optimize.nnls(E, f)
    assert abs(np.linalg.norm(E @ y - f) - rnorm) <= 1e-9 * (1.0 + np.linalg.norm(f))
    if np.linalg.matrix_rank(E) == cols:
        assert np.max(np.abs(y - y_ref)) <= 1e-8 * (1.0 + np.max(y_ref))


@pytest.mark.parametrize("index", range(7))
def test_the_interior_point_solves_the_least_distance_program(index):
    walls = fans()[index].wall_system.matrix
    h = qp._interior_point(walls)
    assert h is not None and np.all(walls @ h >= 1.0 - 1e-9)
    # min ||h|| over walls @ h >= 1 is the projection of 0 onto that set:
    # h is a nonnegative combination of the rows it makes tight.
    tight = walls[walls @ h <= 1.0 + 1e-9]
    u, rnorm = scipy.optimize.nnls(tight.T, h)
    assert rnorm <= 1e-9 * (1.0 + np.linalg.norm(h))


@pytest.mark.parametrize("walls", [
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),    # a half-line: no interior
    np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),   # the cone {0}
])
def test_a_cone_without_interior_has_no_interior_point(walls):
    assert qp._interior_point(walls) is None


# ---------------------------------------------------------------------------
# The restart against the apex path
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       m=st.integers(0, 150), sigma=st.floats(0.1, 1.0), restrict=st.booleans())
def test_the_restart_reaches_the_apex_paths_optimum(index, seed, m, sigma, restrict):
    fan = fans()[index]
    dm, y = tall_instance(fan, seed, m, sigma, restrict)
    problem = ConstrainedLS(dm, y, fan.wall_system.matrix)
    sol = solve_cls(problem)
    apex = solve_cls(problem, SolverOptions(warm_start=np.zeros(fan.n_rays)))
    assert abs(sol.objective - apex.objective) <= 1e-9 * (1.0 + apex.objective)
    y_apex = dm.dot(apex.h_star)
    assert np.max(np.abs(dm.dot(sol.h_star) - y_apex)) <= 1e-9 * (1.0 + np.max(np.abs(y_apex)))
    if dm.rank_kernel[0] == fan.n_rays:
        h_ref, obj_ref = nnls_cone_least_squares(dm.matrix, y, problem.B)
        scale = 1.0 + np.max(np.abs(h_ref))
        assert np.max(np.abs(sol.h_star - apex.h_star)) <= 1e-9 * scale
        assert np.max(np.abs(sol.h_star - h_ref)) <= 1e-9 * scale
        assert abs(sol.objective - obj_ref) <= 1e-9 * (1.0 + obj_ref)


def spy_interior_point(monkeypatch):
    """The walls of every ``qp._interior_point`` call, as they are made."""
    calls = []
    interior_point = qp._interior_point

    def spy(walls):
        calls.append(walls)
        return interior_point(walls)

    monkeypatch.setattr(qp, "_interior_point", spy)
    return calls


def test_a_blocked_first_step_restarts(monkeypatch):
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    rng = np.random.default_rng(7)
    U = rng.standard_normal((20_000, 3))
    problem = ConstrainedLS(build_design(fan, U), 1.0 + 0.1 * rng.standard_normal(len(U)),
                            fan.wall_system.matrix)
    calls = spy_interior_point(monkeypatch)
    sol = solve_cls(problem)
    assert len(calls) == 1
    apex = solve_cls(problem, SolverOptions(warm_start=np.zeros(fan.n_rays)))
    assert len(calls) == 1
    assert sol.active_rows == apex.active_rows and sol.iterations < apex.iterations / 4


def test_a_first_step_that_is_not_blocked_keeps_its_path(monkeypatch):
    # Values of a member of the cone, with little noise: the unconstrained
    # optimum is inside the cone and the first step reaches it.
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    U = np.random.default_rng(3).standard_normal((500, 3))
    dm = build_design(fan, U)
    problem = ConstrainedLS(dm, dm.dot(np.ones(fan.n_rays)), fan.wall_system.matrix)
    calls = spy_interior_point(monkeypatch)
    sol = solve_cls(problem)
    apex = solve_cls(problem, SolverOptions(warm_start=np.zeros(fan.n_rays)))
    assert not calls and sol.iterations == 1
    assert sol.h_star.tobytes() == apex.h_star.tobytes()


def test_a_first_step_blocked_by_one_wall_keeps_its_path(monkeypatch):
    # min ||h - y||^2 over the hexagon's cone, y = 1 + 2 e_1: y breaks wall
    # 0 alone (h_0 - h_1 + h_2 = -1), so the apex path takes one step of
    # length zero, onto that wall, and then one to the optimum.
    walls = catalog.hexagon_fan().wall_system.matrix
    y = np.ones(6)
    y[1] = 3.0
    assert np.count_nonzero(walls @ y < 0.0) == 1
    problem = ConstrainedLS(np.eye(6), y, walls)
    calls = spy_interior_point(monkeypatch)
    sol = solve_cls(problem)
    apex = solve_cls(problem, SolverOptions(warm_start=np.zeros(6)))
    assert not calls and sol.iterations == apex.iterations == 2
    assert sol.h_star.tobytes() == apex.h_star.tobytes()


# ---------------------------------------------------------------------------
# Fans on which the apex path stalls
# ---------------------------------------------------------------------------

def many_ray_problem(d, n):
    """2 10^4 Gaussian directions on ``random_polytopal_fan(d, n, seed=7)``
    with values ``A 1 + 0.1 N(0, 1)``."""
    fan = catalog.random_polytopal_fan(d, n, seed=7)
    rng = np.random.default_rng(0)
    dm = build_design(fan, rng.standard_normal((20_000, d)))
    y = dm.dot(np.ones(fan.n_rays)) + 0.1 * rng.standard_normal(20_000)
    return ConstrainedLS(dm, y, fan.wall_system.matrix)


@pytest.mark.parametrize("d, n, seconds", [(3, 100, 10), (5, 40, 2), (3, 200, 60)])
def test_a_cold_fit_on_many_rays_is_certified(d, n, seconds):
    # From the apex, (3, 100) takes 9,246 subproblems, (5, 40) 13,247, and
    # (3, 200) exhausts its cap of 39,700.
    problem = many_ray_problem(d, n)
    problem.A.factor
    with time_limit(seconds):
        sol = solve_cls(problem)
    assert sol.certified
    inside = solve_cls(problem, SolverOptions(warm_start=np.ones(n)))
    assert sol.active_rows == inside.active_rows
    assert abs(sol.objective - inside.objective) <= 1e-12 * inside.objective
