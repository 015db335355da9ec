"""Batched cone-cap maxima against the one-pair loop of ``oracles``.

``cap_maxima`` sweeps the faces of a cached per-fan table over any number
of (cell, vector) pairs; ``max_linear_over_cone_cap``, ``c_delta`` and
``hausdorff_rows`` all read it.  The loop solves each face's projection on its
own, so the two agree to rounding, within 1e-12 of the value.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog
from facetfit.fan import InvalidFan, SimplicialFan, c_delta, cap_maxima, max_linear_over_cone_cap
from facetfit.geometry import NotInDeformationCone, hausdorff, hausdorff_rows

from conftest import random_members
from oracles import cell_inverses, loop_c_delta, loop_cap_faces, loop_cap_max, loop_hausdorff

RTOL = 1e-12


@functools.cache
def fans():
    return (catalog.hexagon_fan(), catalog.regular_polygon_fan(5),
            catalog.roof_fan_y(), catalog.roof_fan_x(),
            catalog.cube_fan(3), catalog.cube_fan(4),
            catalog.random_polytopal_fan(2, 7, seed=101),
            catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(3, 12, seed=7))


KINDS = ("inside", "face", "near", "polar", "zero", "gaussian")


def _vector(fan, cell, kind, rng):
    """A vector of one kind for a cell: a positive combination of its
    generators (inside), one whose cap maximizer lies on a proper face S (a
    positive combination of S's generators minus rows of the cell's inverse
    off S, which are orthogonal to S's span), the same just outside the cell
    (near: the rows off S weigh 1e-8 to 1e-2 of the rest), one of the polar
    cone (minus a nonnegative combination of the inverse's rows), zero, or
    Gaussian; at a random scale."""
    d = fan.dim
    G = fan.rays[list(fan.cells[cell])].T
    inv = cell_inverses(fan)[cell]
    if kind == "inside":
        r = G @ rng.uniform(0.01, 1.0, d)
    elif kind in ("face", "near"):
        size = int(rng.integers(1, d))
        S = rng.permutation(d)
        on, off = S[:size], S[size:]
        weights = rng.uniform(0.0, 1.0, d - size)
        if kind == "near":
            weights *= 10.0 ** rng.uniform(-8, -2)
        r = G[:, on] @ rng.uniform(0.01, 1.0, size) - inv[off].T @ weights
    elif kind == "polar":
        r = -inv.T @ rng.uniform(0.0, 1.0, d)
    elif kind == "zero":
        r = np.zeros(d)
    else:
        r = rng.standard_normal(d)
    return r * 10.0 ** rng.uniform(-3, 3)


@st.composite
def cap_batches(draw, max_size=30):
    """A fan and a batch of (cell, vector) pairs for it."""
    fan = fans()[draw(st.integers(0, len(fans()) - 1))]
    queries = draw(st.lists(st.tuples(st.integers(0, fan.n_cells - 1),
                                      st.sampled_from(KINDS),
                                      st.integers(0, 2**32 - 1)),
                            min_size=1, max_size=max_size))
    cells = np.array([cell for cell, _, _ in queries])
    R = np.array([_vector(fan, cell, kind, np.random.default_rng(seed))
                  for cell, kind, seed in queries])
    return fan, cells, R


@settings(max_examples=400, deadline=None)
@given(cap_batches(max_size=1))
def test_one_pair_matches_the_loop(batch):
    fan, (cell,), (r,) = batch
    expected = loop_cap_max(fan, cell, r)
    got = max_linear_over_cone_cap(fan, cell, r)
    assert abs(got - expected) <= RTOL * expected
    assert 0.0 <= got <= np.linalg.norm(r) * (1.0 + RTOL)


@settings(max_examples=60, deadline=None)
@given(cap_batches())
def test_a_batch_matches_the_loop_pair_by_pair(batch):
    fan, cells, R = batch
    got = cap_maxima(fan, cells, R)
    expected = np.array([loop_cap_max(fan, c, r) for c, r in zip(cells, R)])
    assert got.shape == cells.shape
    assert np.all(np.abs(got - expected) <= RTOL * expected)
    # A pair's value does not depend on the rest of the batch.
    assert got.tolist() == [max_linear_over_cone_cap(fan, c, r) for c, r in zip(cells, R)]


@pytest.mark.parametrize("fan", [
    *fans(), catalog.cube_fan(5), catalog.random_polytopal_fan(5, 12, seed=4),
    catalog.random_polytopal_fan(3, 60, seed=7),
    # Face {0, 1} of cell 0 spans a line: its Gram matrix is singular.
    SimplicialFan([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                  [(0, 1, 2), (0, 2, 3)]),
])
def test_face_table_equals_the_per_cell_loop(fan):
    faces = fan._cap_faces
    expected = loop_cap_faces(fan)
    assert len(faces) == len(expected) == 2 ** fan.dim - 2
    for (G, projectors, usable), (G0, projectors0, usable0) in zip(faces, expected):
        assert G.tobytes() == G0.tobytes()
        assert projectors.tobytes() == projectors0.tobytes()
        assert usable.tolist() == usable0.tolist()
    if fan.n_rays == 4:
        assert not faces[3][2][0] and faces[3][2][1]


def test_cap_maxima_refuses_a_cell_with_dependent_generators():
    fan = SimplicialFan([[1, 0], [2, 0], [0, 1], [-1, -1]],
                        [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(InvalidFan,
                       match=r"^cell \(0, 1\) has numerically dependent generators$"):
        cap_maxima(fan, [1], np.array([[0.0, 1.0]]))


@pytest.mark.parametrize("index", range(len(fans())))
def test_c_delta_matches_the_loop(index):
    built = fans()[index]
    fan = SimplicialFan(built.rays, built.cells)   # nothing cached
    expected = loop_c_delta(fan)
    assert abs(c_delta(fan) - expected) <= RTOL * expected


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(fans()) - 1), st.integers(0, 2**16))
def test_hausdorff_is_symmetric_and_matches_the_loop(index, seed):
    fan = fans()[index]
    a, b = random_members(fan, 2, seed=seed)
    forward = hausdorff(fan, a, b)
    assert forward == hausdorff(fan, b, a)
    expected = loop_hausdorff(fan, a, b)
    assert abs(forward - expected) <= RTOL * expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, len(fans()) - 1), st.integers(0, 2**16), st.integers(0, 5))
def test_stacked_hausdorff_equals_the_one_pair_form(index, seed, k):
    # Each row's distance is the one-pair distance bit for bit, whatever
    # the other rows are.
    fan = fans()[index]
    *H, h2 = random_members(fan, k + 1, seed=seed)
    stacked = hausdorff_rows(fan, np.reshape(H, (k, fan.n_rays)), h2)
    assert [d.hex() for d in stacked.tolist()] == [hausdorff(fan, h, h2).hex() for h in H]


def test_stacked_hausdorff_refuses_rows_outside_the_cone(hexagon):
    inside, outside = np.ones(6), np.array([3.0, 1, 1, 1, 1, 1])
    with pytest.raises(NotInDeformationCone, match=r"by 1\.000e\+00$"):
        hausdorff_rows(hexagon, [inside, outside], inside)
    with pytest.raises(NotInDeformationCone, match=r"by 1\.000e\+00$"):
        hausdorff_rows(hexagon, [inside], outside)
    with pytest.raises(ValueError, match="must be rows"):
        hausdorff_rows(hexagon, inside, inside)
    assert hausdorff_rows(hexagon, np.zeros((0, 6)), inside).shape == (0,)


def test_cap_maxima_refuses_mismatched_shapes(hexagon):
    with pytest.raises(ValueError, match="rows of width 2"):
        cap_maxima(hexagon, [0], np.ones((1, 3)))
    with pytest.raises(ValueError, match="as many cells"):
        cap_maxima(hexagon, [0, 1], np.ones((1, 2)))


def test_cap_maxima_of_no_pairs_is_empty(hexagon):
    assert cap_maxima(hexagon, np.zeros(0, int), np.zeros((0, 2))).shape == (0,)


def test_cap_maxima_refuses_a_bad_cell_index(hexagon):
    r = np.array([1.0, 0.3])
    with pytest.raises(ValueError, match=r"^cell index -1 is outside 0\.\.5$"):
        cap_maxima(hexagon, [-1], r[None])
    with pytest.raises(ValueError, match="^cell indices must be integers, not float64"):
        max_linear_over_cone_cap(hexagon, 2.7, r)
    with pytest.raises(ValueError, match="^cell indices must be integers, not bool"):
        max_linear_over_cone_cap(hexagon, True, r)
    with pytest.raises(ValueError, match=r"^cell index 6 is outside 0\.\.5$"):
        max_linear_over_cone_cap(hexagon, 6, r)
    assert max_linear_over_cone_cap(hexagon, np.int64(5), r) == \
        max_linear_over_cone_cap(hexagon, 5, r)
