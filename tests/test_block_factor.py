"""The design's block QR against one Householder QR of the dense design.

A tall design in cell form is factored one carrier block at a time and once
more over the stacked triangles (``qp.triangular_factor``), and the
reconstruction never scatters it into a dense m x n matrix.  The factor's R
and ``reduce(y)`` must agree with ``np.linalg.qr`` of the scattered matrix
row by row up to sign when the design has full rank, and in the normal
equations and the residual otherwise; its rank and kernel projector with an
SVD of the matrix; and ``solve_cls`` on the cell form with the active set
on the full design (``oracles.full_design_cls``).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facetfit.design
import facetfit.estimator
import facetfit.fan
import facetfit.sim
from facetfit import catalog, qp
from facetfit.design import Dataset, DesignMatrix, build_design
from facetfit.estimator import reconstruct
from facetfit.qp import ConstrainedLS, solve_cls

from oracles import full_design_cls


@functools.cache
def fans():
    return (catalog.hexagon_fan(), catalog.regular_polygon_fan(8), catalog.roof_fan_y(),
            catalog.cube_fan(3), catalog.cube_fan(4),
            catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(3, 12, seed=7))


def in_cells(fan, rng, counts, zero_share=0.3):
    """``counts[c]`` positive combinations of the generators of cell c, each
    weight zeroed with probability ``zero_share``, so that rows also land
    on faces and rays."""
    rows = []
    for c, k in enumerate(counts):
        gens = fan.rays[list(fan.cells[c])]
        while k > 0:
            weights = rng.random(fan.dim) * (rng.random(fan.dim) >= zero_share)
            if weights.any():
                rows.append(weights @ gens)
                k -= 1
    return np.array(rows).reshape(-1, fan.dim)


def directions(fan, kind, rng, extra):
    """m = n + 1 + extra directions of one kind, or fewer for
    ``small blocks``, which has at most d rows in each cell."""
    m = fan.n_rays + 1 + extra
    if kind == "gaussian":
        return rng.standard_normal((m, fan.dim))
    if kind == "few cells":      # empty cells; the stack may have <= n rows
        cells = rng.choice(fan.n_cells, size=int(rng.integers(1, fan.n_cells // 2 + 1)),
                           replace=False)
        counts = np.bincount(rng.choice(cells, size=m), minlength=fan.n_cells)
        return in_cells(fan, rng, counts)
    if kind == "small blocks":   # m_c <= d in every cell, some cells empty
        return in_cells(fan, rng, rng.integers(0, fan.dim + 1, size=fan.n_cells))
    # Exact rays, scaled: every row has one nonzero coefficient, so every
    # block has rank 1.
    return fan.rays[rng.integers(fan.n_rays, size=m)] * rng.uniform(0.5, 2.0, (m, 1))


def assert_factor_matches_dense_qr(dm: DesignMatrix, y: np.ndarray):
    A = dm.matrix
    m, n = A.shape
    factor = dm.factor
    z = factor.reduce(y)
    if m <= n:
        assert factor.R is A and z is y
        return
    R = factor.R
    # Entries of R and z are at most the column norms of A and ||y||.
    scale = 1.0 + float(np.max(np.linalg.norm(A, axis=0))) + np.linalg.norm(y)
    tol = 1e-12 * scale
    assert R.shape == (n, n) and np.array_equal(R, np.triu(R)) and z.shape == (n,)
    rank, kernel = dm.rank_kernel
    rank_a, kernel_a = qp.rank_and_kernel(A)
    assert rank == rank_a
    assert np.allclose(kernel.T @ kernel, kernel_a.T @ kernel_a, rtol=0, atol=1e-9)
    # For every h, ||A h - y||^2 = ||R h - z||^2 + ||y||^2 - ||z||^2.
    assert np.allclose(R.T @ R, A.T @ A, rtol=0, atol=tol * scale)
    assert np.allclose(R.T @ z, A.T @ y, rtol=0, atol=tol * scale)
    h = np.random.default_rng(0).standard_normal(n)
    lhs = np.sum((A @ h - y) ** 2)
    assert abs(lhs - (np.sum((R @ h - z) ** 2) + y @ y - z @ z)) <= tol * scale
    if rank == n:
        Q_d, R_d = np.linalg.qr(A)
        z_d = Q_d.T @ y
        # Row i of R is determined up to its sign when A has full rank.
        sign = np.sign(np.diag(R)) * np.sign(np.diag(R_d))
        assert np.allclose(R, sign[:, None] * R_d, rtol=0, atol=tol)
        assert np.allclose(z, sign * z_d, rtol=0, atol=tol)


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 80),
       kind=st.sampled_from(("gaussian", "few cells", "small blocks", "exact rays")),
       sigma=st.sampled_from((0.0, 0.1, 1.0)), own_qr=st.booleans())
def test_block_factor_agrees_with_the_dense_qr(index, seed, extra, kind, sigma, own_qr):
    # At these sizes every block enters the stack as it is, unless the
    # work bound is 0, when every block is factored on its own first.
    fan = fans()[index]
    rng = np.random.default_rng(seed)
    U = directions(fan, kind, rng, extra)
    dm = build_design(fan, U)
    y = 1.0 + sigma * rng.standard_normal(dm.m)
    with mock.patch.object(qp, "_BLOCK_QR_WORK", 0 if own_qr else qp._BLOCK_QR_WORK):
        assert_factor_matches_dense_qr(dm, y)
        if own_qr:
            assert all(reflectors is not None for _, reflectors, _ in dm.factor.blocks)

    A, B = dm.matrix, fan.wall_system.matrix
    sol = solve_cls(ConstrainedLS(dm.operator, y, B), factor=dm.factor)
    h_ref, obj_ref = full_design_cls(A, y, B)
    assert sol.certified
    assert abs(sol.objective - obj_ref) <= 1e-9 * (1.0 + obj_ref)
    if dm.rank_kernel[0] == dm.n:
        assert np.max(np.abs(sol.h_star - h_ref)) <= 1e-9 * (1.0 + np.max(np.abs(h_ref)))


@pytest.mark.parametrize("own_qr", [False, True])
@pytest.mark.parametrize("case", ["m = n + 1", "stack of n rows", "stack under n rows",
                                  "blocks of at most d rows"])
def test_block_factor_edge_cases(case, own_qr):
    hexagon = catalog.hexagon_fan()
    rng = np.random.default_rng(3)
    counts = {"m = n + 1": [2, 1, 1, 1, 1, 1],    # one block of 2 rows = d
              "stack of n rows": [0, 0, 0, 7, 3, 5],    # three 2 x 2 triangles
              "stack under n rows": [0, 0, 1000, 0, 0, 0],  # one 2 x 2 triangle
              "blocks of at most d rows": [1, 2, 0, 2, 1, 2]}[case]
    dm = build_design(hexagon, in_cells(hexagon, rng, counts, zero_share=0.0))
    y = rng.standard_normal(dm.m)
    assert dm.m > dm.n
    with mock.patch.object(qp, "_BLOCK_QR_WORK", 0 if own_qr else qp._BLOCK_QR_WORK):
        assert_factor_matches_dense_qr(dm, y)
        if case == "stack under n rows":
            # A block of 1000 rows has its own QR even under the default
            # bound, and R and z end in zeros below its triangle.
            assert len(dm.blocks.blocks) == 1 and len(dm.factor.stack[1]) == 2
            assert not np.any(dm.factor.R[2:]) and not np.any(dm.factor.reduce(y)[2:])


def test_a_dense_matrix_is_one_block_with_one_householder_qr():
    A = np.random.default_rng(2).standard_normal((40, 5))
    blocks = qp.BlockMatrix.of(A)
    h, r = np.arange(5.0), np.linspace(-1.0, 1.0, 40)
    assert blocks.dense() is blocks.blocks[0][2]
    assert blocks.dot(h).tobytes() == (A @ h).tobytes()
    assert blocks.tdot(r).tobytes() == (A.T @ r).tobytes()
    # The one Householder QR of A, its R and its reflectors applied in turn.
    raw, tau = np.linalg.qr(np.asfortranarray(A), mode="raw")
    z = r.copy()
    for k in range(5):
        v = np.concatenate([np.zeros(k), [1.0], raw[k, k + 1:]])
        z -= (tau[k] * (v @ z)) * v
    factor = qp.triangular_factor(A)
    assert factor.blocks[0][1] is None
    assert factor.R.tobytes() == np.triu(raw[:, :5].T).tobytes()
    assert factor.reduce(r).tobytes() == z[:5].tobytes()


# ---------------------------------------------------------------------------
# No dense design on the reconstruct path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [0, 4, 6])
def test_reconstruct_makes_no_dense_design(index, monkeypatch):
    fan = fans()[index]
    rng = np.random.default_rng(index)
    U = rng.standard_normal((400, fan.dim))
    y = 1.0 + 0.3 * rng.standard_normal(len(U))
    matrix_reads, carrier_calls = [], []
    scatter = DesignMatrix.matrix

    def read(design):
        matrix_reads.append(design.m)
        return scatter.__get__(design, DesignMatrix)

    def carriers(fan, U):
        carrier_calls.append(len(U))
        return inner(fan, U)

    inner = facetfit.fan.carriers
    monkeypatch.setattr(DesignMatrix, "matrix", property(read))
    for module in (facetfit.fan, facetfit.design, facetfit.estimator, facetfit.sim):
        monkeypatch.setattr(module, "carriers", carriers, raising=False)
    res = reconstruct(fan, Dataset(U, y))
    assert res.qp_solution.certified
    assert matrix_reads == [] and carrier_calls == []
    # The spy does see a read.
    assert build_design(fan, U[:3]).matrix.shape == (3, fan.n_rays) and matrix_reads == [3]
