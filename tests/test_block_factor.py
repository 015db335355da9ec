"""The design's block QR against one Householder QR of the dense design.

A tall design in cell form is factored one carrier block at a time and once
more over the stacked triangles (``qp.triangular_factor``), and the
reconstruction never scatters it into a dense m x n matrix.  The factor's R
and ``reduce(y)`` must agree with ``np.linalg.qr`` of the scattered matrix
row by row up to sign when the design has full rank, and in the normal
equations and the residual otherwise; its R byte for byte with the R read
from LAPACK's raw reflector layout (``oracles.raw_mode_block_r``); its rank
and kernel projector with an SVD of the matrix; and ``solve_cls`` on the
cell form with the active set on the full design
(``oracles.full_design_cls``).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, qp
from facetfit.design import Dataset, DesignMatrix, build_design
from facetfit.estimator import reconstruct
from facetfit.qp import ConstrainedLS, solve_cls

from oracles import full_design_cls, raw_mode_block_r
from test_qp import assert_a_zero_wall_never_binds


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
        # The blocks scattered into an R of their own, equal to the design.
        assert factor.R.tobytes() == A.tobytes() and z is y
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


DESIGNS = dict(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
               extra=st.integers(0, 80),
               kind=st.sampled_from(("gaussian", "few cells", "small blocks", "exact rays")))


@settings(max_examples=150, deadline=None)
@given(**DESIGNS, sigma=st.sampled_from((0.0, 0.1, 1.0)), own_qr=st.booleans())
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
            assert all(Q is not None for _, Q in dm.factor.blocks)

    A, B = dm.matrix, fan.wall_system.matrix
    sol = solve_cls(ConstrainedLS(dm, y, B))
    h_ref, obj_ref = full_design_cls(A, y, B)
    assert sol.certified
    assert abs(sol.objective - obj_ref) <= 1e-9 * (1.0 + obj_ref)
    if dm.rank_kernel[0] == dm.n:
        assert np.max(np.abs(sol.h_star - h_ref)) <= 1e-9 * (1.0 + np.max(np.abs(h_ref)))


@settings(max_examples=150, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), tall=st.booleans(),
       extra=st.integers(0, 20), sigma=st.sampled_from((0.0, 0.1, 1.0)))
def test_a_zero_wall_row_never_binds_on_a_design(index, seed, tall, extra, sigma):
    # Gaussian directions, m > n or m <= n, the design in cell form with
    # its own factor, as ``reconstruct`` passes it.
    fan = fans()[index]
    rng = np.random.default_rng(seed)
    m = fan.n_rays + 1 + extra if tall else max(1, fan.n_rays - extra)
    dm = build_design(fan, rng.standard_normal((m, fan.dim)))
    y = 1.0 + sigma * rng.standard_normal(m)
    assert_a_zero_wall_never_binds(ConstrainedLS(dm, y, fan.wall_system.matrix))


@settings(max_examples=150, deadline=None)
@given(**DESIGNS)
def test_block_factor_r_equals_the_raw_layout_r(index, seed, extra, kind):
    # R decides rank, kernel and uniqueness reports, so it must not move at
    # the last bit with the way Q is kept.
    fan = fans()[index]
    dm = build_design(fan, directions(fan, kind, np.random.default_rng(seed), extra))
    if dm.m <= dm.n:
        return
    for work in (0, qp._BLOCK_QR_WORK):
        with mock.patch.object(qp, "_BLOCK_QR_WORK", work):
            R = qp.triangular_factor(dm).R
        assert R.tobytes() == raw_mode_block_r(dm, work).tobytes()


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
            assert len(dm.blocks) == 1 and dm.factor.stack.shape == (2, 2)
            assert not np.any(dm.factor.R[2:]) and not np.any(dm.factor.reduce(y)[2:])


def test_a_dense_matrix_is_one_block_with_one_householder_qr():
    A = np.random.default_rng(2).standard_normal((40, 5))
    blocks = qp.BlockMatrix.of(A)
    h, r = np.arange(5.0), np.linspace(-1.0, 1.0, 40)
    assert blocks.dense() is blocks.blocks[0][2]
    assert blocks.dot(h).tobytes() == (A @ h).tobytes()
    assert blocks.tdot(r).tobytes() == (A.T @ r).tobytes()
    # The one QR of A: its R, and its Q^T applied to r.
    Q, R = np.linalg.qr(A)
    factor = qp.triangular_factor(A)
    assert factor.blocks[0][1] is None
    assert factor.R.tobytes() == R.tobytes()
    assert factor.reduce(r).tobytes() == (Q.T @ r).tobytes()


# ---------------------------------------------------------------------------
# No dense design on the reconstruct path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [0, 4, 6])
def test_reconstruct_makes_no_dense_design(index, monkeypatch):
    assert_reconstruct_reads_no_matrix(index, 400, monkeypatch)


@pytest.mark.parametrize("rows", [3, "n"])
@pytest.mark.parametrize("index", [0, 4, 6])
def test_reconstruct_makes_no_dense_design_when_m_is_at_most_n(index, rows, monkeypatch):
    # The factor R is a scatter of the blocks of its own, and the
    # rank-deficient path reads the kernel of R alone.
    assert_reconstruct_reads_no_matrix(index, fans()[index].n_rays if rows == "n" else rows,
                                       monkeypatch)


def assert_reconstruct_reads_no_matrix(index, m, monkeypatch):
    fan = fans()[index]
    rng = np.random.default_rng(index)
    U = rng.standard_normal((m, fan.dim))
    y = 1.0 + 0.3 * rng.standard_normal(len(U))
    matrix_reads = []
    scatter = DesignMatrix.matrix

    def read(design):
        matrix_reads.append(design.m)
        return scatter.__get__(design, DesignMatrix)

    monkeypatch.setattr(DesignMatrix, "matrix", property(read))
    res = reconstruct(fan, Dataset(U, y))
    assert res.qp_solution.certified
    assert matrix_reads == []
    # The spy does see a read.
    assert build_design(fan, U[:3]).matrix.shape == (3, fan.n_rays) and matrix_reads == [3]
