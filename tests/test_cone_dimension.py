"""``qp.cone_dimension`` and the two cone tests built on it, against HiGHS.

The reference in ``oracles`` runs one scipy implicit-equality LP per row;
``cone_dimension`` runs one LP for all rows.  Both cone tests of the
library, the positive span of a fan's rays and the boundedness of the
minimizer set, must agree with the reference.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, qp
from facetfit import fan as fan_mod
from facetfit.design import build_design, numeric_rank
from facetfit.estimator import detect_unbounded
from facetfit.fan import SimplicialFan, validate
from facetfit.qp import cone_dimension

from oracles import highs_cone_dimension
from test_batched import broken_fans


@st.composite
def cone_matrices(draw):
    """Integer or Gaussian rows, then duplicates, negations, positive
    multiples and zero rows appended, in a drawn order."""
    k = draw(st.integers(1, 4))
    p = draw(st.integers(0, 7))
    if draw(st.booleans()):
        rows = [np.array(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)),
                         float) for _ in range(p)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rows = list(rng.standard_normal((p, k)))
    ops = draw(st.lists(st.tuples(st.sampled_from(["dup", "neg", "scale", "zero"]),
                                  st.integers(0, 99)), max_size=4))
    for op, j in ops:
        if op == "zero":
            rows.append(np.zeros(k))
        elif rows:
            r = rows[j % len(rows)]
            rows.append({"dup": r, "neg": -r, "scale": 2.5 * r}[op])
    order = draw(st.permutations(range(len(rows))))
    return np.array([rows[i] for i in order]).reshape(len(rows), k)


@settings(max_examples=80, deadline=None)
@given(M=cone_matrices())
def test_cone_dimension_equals_highs(M):
    assert cone_dimension(M) == highs_cone_dimension(M)


@pytest.mark.parametrize("M, dim", [
    (np.zeros((0, 3)), 3),                                  # p = 0
    (np.array([[1.0], [2.0]]), 1),                          # k = 1, half-line
    (np.array([[1.0], [-1.0]]), 0),                         # k = 1, {0}
    (np.zeros((2, 2)), 2),                                  # zero rows only
    (np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 2),    # duplicate row
    (np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]), 2),    # row and negation
    (np.vstack([np.eye(3), -np.eye(3)]), 0),
    (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), 1),
])
def test_cone_dimension_edge_cases(M, dim):
    assert cone_dimension(M) == dim == highs_cone_dimension(M)


@pytest.mark.parametrize("M, message", [
    (np.array([[np.inf, 1.0], [1.0, 0.0]]), "non-finite entry in M"),
    (np.array([[np.nan, 1.0]]), "non-finite entry in M"),
    (np.array([1.0, 0.0]), "M must be 2-D"),
], ids=["inf", "nan", "1-D"])
def test_cone_dimension_refuses_a_non_finite_or_not_2d_matrix(M, message):
    # A non-finite row norm would make the drop threshold NaN or inf, drop
    # every row and return the whole space.
    with pytest.raises(ValueError, match=message):
        cone_dimension(M)


@pytest.mark.parametrize("x", [
    [1.0, 0.0, 0.0, 0.0],     # y = (1, 0): M^T y = 1
    [0.0, 0.0, -1.0, -1.0],   # M^T y = 0, but w = -1 breaks w >= 0
], ids=["misses-MTy=0", "negative-w"])
def test_cone_dimension_refuses_a_point_that_fails_its_certificate(monkeypatch, x):
    x = np.array(x)
    monkeypatch.setattr(qp, "solve_lp", lambda *args: qp.LPSolution(x, -x[:2].sum()))
    with pytest.raises(qp.Inaccurate, match=r"simplex point misses M\^T y = 0 or y >= u"):
        cone_dimension(np.array([[1.0], [-1.0]]))


def test_cone_dimension_lp_is_in_equality_form(monkeypatch):
    # q = 5 kept rows (the zero row is dropped) of rank r = 2: the LP over
    # (u, w) has r equality rows on 2q columns and no inequality rows.
    calls = []
    real = qp.solve_lp
    monkeypatch.setattr(qp, "solve_lp", lambda *args: calls.append(args) or real(*args))
    M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                  [2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.0]])
    assert cone_dimension(M) == highs_cone_dimension(M)
    (c, B, E, f, bounds), = calls
    assert B is None or np.size(B) == 0
    assert np.shape(E) == (2, 10) and np.shape(f) == (2,)
    assert bounds == [(0.0, 1.0)] * 5 + [(0.0, np.inf)] * 5


@functools.cache
def fans():
    return (catalog.hexagon_fan(), catalog.regular_polygon_fan(8),
            catalog.roof_fan_y(), catalog.cube_fan(3),
            catalog.random_polytopal_fan(3, 8, seed=204),
            catalog.random_polytopal_fan(3, 10, seed=11),
            catalog.random_polytopal_fan(3, 12, seed=7))


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.1, 0.95))
def test_detect_unbounded_equals_highs_for_m_below_n(index, seed, fraction):
    fan = fans()[index]
    m = max(1, min(fan.n_rays - 1, int(fraction * fan.n_rays)))
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, fan.dim))
    design = build_design(fan, U / np.linalg.norm(U, axis=1)[:, None])
    recession = highs_cone_dimension(fan.wall_system.matrix, E=design.matrix)
    _, kernel = numeric_rank(design)
    assert cone_dimension(fan.wall_system.matrix @ kernel.T) == recession
    assert detect_unbounded(fan, design) == (recession > 0)


def test_half_line_of_solutions_is_unbounded(hexagon):
    # Directions at rays 0..3 fix h_0..h_3; the walls then force h_4 = h_5
    # >= 0, so the recession cone is a half-line.
    design = build_design(hexagon, hexagon.rays[:4])
    _, kernel = numeric_rank(design)
    assert cone_dimension(hexagon.wall_system.matrix @ kernel.T) == 1
    assert detect_unbounded(hexagon, design)


def test_kernel_cone_with_dependent_columns():
    # m = 2 leaves a translation in the design kernel, so B K^T has
    # dependent columns; with M^T y = 0 posed on all of them instead of an
    # orthonormal basis of the rows' span, the simplex missed its constraints.
    fan = catalog.random_polytopal_fan(3, 12, seed=7)
    rng = np.random.default_rng(10_184)
    m = int(rng.integers(1, fan.n_rays))
    U = rng.standard_normal((m, 3))
    design = build_design(fan, U / np.linalg.norm(U, axis=1)[:, None])
    _, kernel = numeric_rank(design)
    M = fan.wall_system.matrix @ kernel.T
    assert np.linalg.matrix_rank(M) < M.shape[1]
    assert cone_dimension(M) == highs_cone_dimension(
        fan.wall_system.matrix, E=design.matrix) == fan.n_rays - m


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 3), extra=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       half_space=st.booleans())
def test_positive_span_equals_highs(d, extra, seed, half_space):
    rng = np.random.default_rng(seed)
    rays = rng.standard_normal((d + extra, d))
    if half_space:  # every ray on one side of a hyperplane: no positive span
        rays[rays[:, 0] < 0] *= -1.0
    report = validate(SimplicialFan(rays, [tuple(range(d))]))
    unit = rays / np.linalg.norm(rays, axis=1)[:, None]
    assert report.rays_distinct
    assert report.positively_spanning == (highs_cone_dimension(unit) == 0)


@pytest.mark.parametrize("fan", [catalog.random_polytopal_fan(2, 7, seed=101),
                                 catalog.random_polytopal_fan(3, 9, seed=5),
                                 catalog.cube_fan(4)])
def test_polytopal_fans_positively_span(fan):
    unit = fan.rays / np.linalg.norm(fan.rays, axis=1)[:, None]
    assert validate(fan).positively_spanning
    assert highs_cone_dimension(unit) == 0


def refuse(*args, **kwargs):
    raise AssertionError("an LP ran during validation")


@pytest.mark.parametrize("fan", [
    catalog.hexagon_fan(), catalog.regular_polygon_fan(8), catalog.roof_fan_x(),
    catalog.roof_fan_y(), catalog.cube_fan(3), catalog.cube_fan(4), catalog.cube_fan(5),
    catalog.random_polytopal_fan(2, 9, seed=1), catalog.random_polytopal_fan(3, 12, seed=7),
    catalog.random_polytopal_fan(3, 200, seed=7), catalog.random_polytopal_fan(4, 12, seed=1),
    catalog.random_polytopal_fan(5, 9, seed=2),
], ids=lambda fan: repr(fan))
def test_valid_fans_solve_no_lp(monkeypatch, fan):
    # The ridge check and the single cover certify a complete fan, whose rays
    # positively span R^d: no positive-span LP, nor any other, runs.
    monkeypatch.setattr(fan_mod, "_positively_spanning", refuse)
    monkeypatch.setattr(qp, "solve_lp", refuse)
    report = validate(SimplicialFan(fan.rays, fan.cells))
    assert report.ok and report.positively_spanning


@pytest.mark.parametrize("broken", broken_fans() + (catalog.orthant_fan(3),),
                         ids=["hexagon-less-a-cell", "cube-less-a-cell", "cube-cell-twice",
                              "orthant"])
def test_failing_fans_still_solve_the_positive_span_lp(monkeypatch, broken):
    # The orthant's rays do not positively span R^3; the others' do.
    verdicts = []
    spanning = fan_mod._positively_spanning
    monkeypatch.setattr(fan_mod, "_positively_spanning",
                        lambda unit: verdicts.append(spanning(unit)) or verdicts[-1])
    report = validate(broken)
    assert not report.ok and verdicts == [report.positively_spanning]
    unit = broken.rays / np.linalg.norm(broken.rays, axis=1)[:, None]
    assert report.positively_spanning == (highs_cone_dimension(unit) == 0)
