"""Extents of the minimizer set along the design kernel.

``estimator._extents`` is a ratio test over ``B K^T``; HiGHS solves the same
one-variable LPs in ``oracles.highs_extents``.  A rank-deficient
``reconstruct`` then needs one LP, the ``cone_dimension`` LP behind
``detect_unbounded``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog
from facetfit.design import Dataset, build_design
from facetfit.estimator import _extents, reconstruct
from perfbench import oracle as bench_oracle

from oracles import highs_extents
from test_cone_dimension import fans
from test_estimator import cycle_dataset
from test_simplex import fixed_case, lp_trace


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.1, 0.95))
def test_extents_equal_highs_for_m_below_n(index, seed, fraction):
    fan = fans()[index]
    m = max(1, min(fan.n_rays - 1, int(fraction * fan.n_rays)))
    # Cold start with N(0, 0.3^2) noise, so that the estimate often ends on walls.
    _, data, _ = fixed_case(fan, m, seed)
    h_hat = reconstruct(fan, data).h_hat
    _, kernel = build_design(fan, data.directions).rank_kernel
    B = fan.wall_system.matrix
    lo, hi = _extents(B @ h_hat, B @ kernel.T)
    for k, z in enumerate(kernel):
        for got, want in zip((lo[k], hi[k]), highs_extents(B, h_hat, z)):
            if np.isinf(want):
                assert got == want
            else:
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_extents_of_an_unblocked_and_a_pinned_direction():
    g = np.array([0.0, 2.0, 1.0])
    G = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.5]])
    lo, hi = _extents(g, G)
    assert lo.tolist() == [-np.inf, 0.0] and hi.tolist() == [np.inf, 2.0]


def slow_simplex_case():
    """m = 3 on a 14-ray fan, whose per-vector extent LPs took 24 s."""
    fan = catalog.random_polytopal_fan(3, 14, seed=13)
    rng = np.random.default_rng([6, 3, 0])
    U = rng.standard_normal((3, 3))
    return fan, Dataset(U, 1.0 + 0.3 * rng.standard_normal(3))


@pytest.mark.parametrize("case", ["hexagon cycle", "14 rays, m = 3"])
def test_rank_deficient_reconstruct_solves_one_lp(hexagon, case):
    fan, data = ((hexagon, cycle_dataset(hexagon)) if case == "hexagon cycle"
                 else slow_simplex_case())
    fan.require_valid()   # validating a valid fan solves no LP; the trace is reconstruct's
    trace = lp_trace(lambda: reconstruct(fan, data),
                     lambda result: result.solution_set.dimension)
    assert len(trace) == 2 and isinstance(trace[0], bytes)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: solution_set counts the kernel vectors along which "
    "h_hat can move, not the dimension of the minimizer set"))
@pytest.mark.parametrize("case", [
    fixed_case(catalog.random_polytopal_fan(3, 12, seed=7), 7, 1060),
    fixed_case(catalog.hexagon_fan(), 4, 11),
], ids=["F1", "F2"])
def test_fixed_underdetermined_cases_match_the_minimizer_set(case):
    fan, data, _ = case
    result = reconstruct(fan, data)
    rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
    A = bench_oracle.design(rays, cells, data.directions)
    W = bench_oracle.wall_rows(rays, cells)
    sset = result.solution_set
    assert (sset.dimension, sset.bounded) == bench_oracle.minimizer_set(A, W, result.y_hat)
