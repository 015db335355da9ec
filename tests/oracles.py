"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: maxima over
cone caps come from dense grids, Hausdorff distances from vertex-to-body
projections enumerated over faces, matchings from backtracking, and the
constrained least-squares checks are a projected-gradient iteration whose
cone projections use scipy's Lawson-Hanson NNLS, the same projection after
numpy's QR, and the active set run on the full m x n design; the R of
the design's block QR comes from LAPACK's raw reflector layout; cone
dimensions come from one HiGHS implicit-equality LP per inequality row,
solution-set extents from two one-variable HiGHS LPs per kernel vector,
support values of a possibly redundant ``P(h)`` from one HiGHS LP per ray,
and the tableau simplex runs with a Python loop for every row operation.
Exact cone-cap maxima, their face table, c_delta and Hausdorff distances
also have a loop reference, one (cell, vector) pair and one face at a time.
Irredundant wall subsets come from one HiGHS implication LP per wall.

The per-row loops near the end are the slow references of the batched
carrier, direction-graph, sampling, convergence-run and cell-vertex
paths: one direction, one matrix entry, one Gaussian draw, one replicate
and one cell at a time, with the same arithmetic, so the batched results
must equal them bit for bit.  Beside them sit the earlier forms of the
carrier guess (one vertex at a time), of the support-pattern count
(one ``bincount`` over all rows) and of the sampler's membership pass
(one call of the rule per carrier cell).  The last section holds the loop
references of fan construction and set-up: the cells of a random fan from
all d-subsets of its rays, and the wall system, the face-to-face check
(one LP per pair of cells), the independence test, the ray checks of
``validate`` and the merged vertex groups one pair at a time.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import linprog, nnls

from facetfit import geometry, qp, sim
from facetfit.design import POSITIVITY_TOL, Dataset, DirectionGraph
from facetfit.estimator import reconstruct
from facetfit.fan import (DegenerateWall, InvalidFan, NoCarrier, SimplicialFan,
                          WallCrossingSystem, carriers)
from facetfit.qp import Infeasible, Unbounded


# ---------------------------------------------------------------------------
# Dense sampling over cone caps and the sphere
# ---------------------------------------------------------------------------

def grid_cap_max(generators: np.ndarray, r: np.ndarray, resolution: int = 1200) -> float:
    """max <r, u> over the unit cap of pos(generators) by simplex-grid sampling.

    ``generators`` has the generators as columns (2 or 3 of them).  Points
    are dense in the cap, so the value is a lower bound converging
    quadratically in the resolution.
    """
    d = generators.shape[1]
    if d == 2:
        ts = np.linspace(0.0, 1.0, resolution * resolution // 2)
        pts = (1.0 - ts)[:, None] * generators[:, 0] + ts[:, None] * generators[:, 1]
    elif d == 3:
        ij = [(i, j) for i in range(resolution + 1)
              for j in range(resolution + 1 - i)]
        ij = np.array(ij, float) / resolution
        a, b = ij[:, 0], ij[:, 1]
        c = 1.0 - a - b
        pts = (a[:, None] * generators[:, 0] + b[:, None] * generators[:, 1]
               + c[:, None] * generators[:, 2])
    else:
        raise ValueError("grid oracle supports 2 or 3 generators")
    norms = np.linalg.norm(pts, axis=1)
    keep = norms > 1e-12
    values = (pts[keep] @ r) / norms[keep]
    return max(0.0, float(values.max()))


def sampled_coefficient_max(fan, samples: int, seed: int, zoom_rounds: int = 3) -> float:
    """max over unit u of the largest barycentric coefficient, by sampling.

    Coarse uniform stage followed by Gaussian zooms around the incumbent;
    purely sampling-based, no cap geometry involved.
    """
    rng = np.random.default_rng(seed)
    inverses = [np.linalg.inv(fan.rays[list(cell)].T) for cell in fan.cells]

    def coeff_max(U):
        best = np.zeros(U.shape[0])
        feas_any = np.zeros(U.shape[0], bool)
        for inv in inverses:
            lam = U @ inv.T
            feas = lam.min(axis=1) >= -1e-12
            val = lam.max(axis=1)
            upd = feas & (~feas_any | (val > best))
            best[upd] = val[upd]
            feas_any |= feas
        return best, feas_any

    pts = rng.standard_normal((samples, fan.dim))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    vals, feas = coeff_max(pts)
    vals[~feas] = -np.inf
    center = pts[int(np.argmax(vals))]
    incumbent = float(np.max(vals))
    width = 0.5
    for _ in range(zoom_rounds):
        local = center[None, :] + width * rng.standard_normal((samples, fan.dim))
        norms = np.linalg.norm(local, axis=1)
        local = local[norms > 1e-12] / norms[norms > 1e-12][:, None]
        vals, feas = coeff_max(local)
        vals[~feas] = -np.inf
        if vals.size and np.max(vals) > incumbent:
            incumbent = float(np.max(vals))
            center = local[int(np.argmax(vals))]
        width *= 0.1
    return incumbent


# ---------------------------------------------------------------------------
# Exact cone-cap maxima, one pair and one face at a time
# ---------------------------------------------------------------------------

def loop_cap_max(fan, cell: int, r) -> float:
    """``max{<r, u> : u in cell, ||u|| <= 1}``: the interior test, then each
    proper face's projection by its own ``np.linalg.solve``, with the
    thresholds of ``fan.cap_maxima``."""
    r = np.asarray(r, float)
    norm_r = np.linalg.norm(r)
    if norm_r == 0.0:
        return 0.0
    generators = fan.rays[list(fan.cells[cell])].T
    lam = np.linalg.inv(generators) @ r
    if np.min(lam) >= -1e-12 * norm_r:
        return float(norm_r)
    best = 0.0
    d = fan.dim
    for size in range(1, d):
        for subset in itertools.combinations(range(d), size):
            G = generators[:, subset]
            # Projection of r onto span(G): G (G^T G)^{-1} G^T r.
            try:
                coef = np.linalg.solve(G.T @ G, G.T @ r)
            except np.linalg.LinAlgError:
                continue
            norm_p = np.linalg.norm(G @ coef)
            if norm_p <= 1e-14 * norm_r:
                continue
            # The maximizer over the face span is proj/||proj||; keep it
            # only when it lies in the face cone.
            if np.min(coef) >= -1e-12 * norm_p:
                best = max(best, float(norm_p))
    return best


def loop_cap_faces(fan) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The faces of ``fan._cap_faces``, one (cell, face) at a time: each
    projector from its own ``np.linalg.solve``, and a face unusable where
    that solve raises ``LinAlgError``."""
    generators = np.array([fan.rays[list(cell)].T for cell in fan.cells])
    faces = []
    for size in range(1, fan.dim):
        for subset in itertools.combinations(range(fan.dim), size):
            G = generators[:, :, list(subset)]
            projectors = np.zeros((fan.n_cells, size, fan.dim))
            usable = np.ones(fan.n_cells, bool)
            for c in range(fan.n_cells):
                try:
                    projectors[c] = np.linalg.solve(G[c].T @ G[c], G[c].T)
                except np.linalg.LinAlgError:
                    usable[c] = False
            faces.append((G, projectors, usable))
    return faces


def loop_c_delta(fan) -> float:
    """Largest barycentric coefficient over unit vectors: the cap maximum
    of every coefficient gradient ``inv_c[k]``, one at a time."""
    best = 0.0
    for ci, inv in enumerate(cell_inverses(fan)):
        for k in range(fan.dim):
            best = max(best, loop_cap_max(fan, ci, inv[k]))
    return best


def loop_hausdorff(fan, h1, h2) -> float:
    """Hausdorff distance from the cap maxima of the per-cell gradients of
    the support difference, both signs, one at a time."""
    diff = np.asarray(h1, float) - np.asarray(h2, float)
    best = 0.0
    for ci, (cell, inv) in enumerate(zip(fan.cells, cell_inverses(fan))):
        g = inv.T @ diff[list(cell)]
        best = max(best, loop_cap_max(fan, ci, g), loop_cap_max(fan, ci, -g))
    return best


# ---------------------------------------------------------------------------
# Vertex-distance Hausdorff oracle
# ---------------------------------------------------------------------------

def point_to_polytope_distance(p: np.ndarray, fan, h: np.ndarray,
                               vertex_points: np.ndarray) -> float:
    """Euclidean distance from p to P(h) via explicit face candidates.

    Candidates: p itself when feasible, the projection onto each facet
    plane when it stays feasible, projections onto the segments between
    vertices of adjacent cells, and the vertices.  For d <= 3 these cover
    every face of a simple polytope, so the minimum is exact.
    """
    rays = fan.rays
    h = np.asarray(h, float)
    tol = 1e-9 * (1.0 + np.linalg.norm(h))
    if np.all(rays @ p <= h + tol):
        return 0.0
    best = np.inf
    # Facet planes.
    for i in range(fan.n_rays):
        v = rays[i]
        q = p + (h[i] - v @ p) / (v @ v) * v
        if np.all(rays @ q <= h + tol):
            best = min(best, float(np.linalg.norm(p - q)))
    # Edges between vertices of adjacent cells.
    for a, b in fan.wall_system.pairs:
        xa, xb = vertex_points[a], vertex_points[b]
        seg = xb - xa
        denom = seg @ seg
        if denom > 1e-18:
            t = np.clip((p - xa) @ seg / denom, 0.0, 1.0)
            q = xa + t * seg
            best = min(best, float(np.linalg.norm(p - q)))
    # Vertices.
    best = min(best, float(np.min(np.linalg.norm(vertex_points - p, axis=1))))
    return best


def vertex_distance_hausdorff(fan, h1, h2, vm1, vm2) -> float:
    """Hausdorff distance from vertex-to-body distances (both directions)."""
    d12 = max(point_to_polytope_distance(p, fan, h2, vm2) for p in vm1)
    d21 = max(point_to_polytope_distance(q, fan, h1, vm1) for q in vm2)
    return max(d12, d21)


# ---------------------------------------------------------------------------
# Brute-force bipartite matching
# ---------------------------------------------------------------------------

def brute_max_matching(ray_neighbors, n_samples: int) -> int:
    """Maximum matching size by backtracking over rays (small graphs only)."""
    n = len(ray_neighbors)

    def best_from(ray: int, used: set) -> int:
        if ray == n:
            return 0
        # Skip this ray.
        result = best_from(ray + 1, used)
        for s in ray_neighbors[ray]:
            if s not in used:
                used.add(s)
                result = max(result, 1 + best_from(ray + 1, used))
                used.remove(s)
        return result

    return best_from(0, set())


# ---------------------------------------------------------------------------
# Projected-gradient oracle for constrained least squares
# ---------------------------------------------------------------------------

def project_onto_cone(x: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto {h : B h >= 0} via Moreau + NNLS.

    The polar cone is {-B^T mu : mu >= 0}; its projection is the NNLS fit,
    and the cone projection is the Moreau complement.
    """
    if B.shape[0] == 0:
        return x
    mu, _ = nnls(-B.T, x)
    return x + B.T @ mu


def projected_gradient_cls(A: np.ndarray, y: np.ndarray, B: np.ndarray,
                           max_iter: int = 100_000, stall: float = 1e-14) -> tuple[np.ndarray, float]:
    """Projected gradient with fixed step 1/||A^T A|| from the origin.

    Stops early when the objective stalls; returns (h, objective).
    """
    AtA = A.T @ A
    step = 1.0 / max(np.linalg.eigvalsh(AtA)[-1], 1e-302)
    h = np.zeros(A.shape[1])
    obj = float(np.sum((A @ h - y) ** 2))
    since_improvement = 0
    for _ in range(max_iter):
        grad = A.T @ (A @ h - y)
        h = project_onto_cone(h - step * grad, B)
        new_obj = float(np.sum((A @ h - y) ** 2))
        if obj - new_obj < stall * (1.0 + obj):
            since_improvement += 1
            if since_improvement > 50:
                obj = min(obj, new_obj)
                break
        else:
            since_improvement = 0
        obj = min(obj, new_obj)
    return h, obj


def nnls_cone_least_squares(A: np.ndarray, y: np.ndarray, B: np.ndarray):
    """``min ||A h - y||^2`` over ``B h >= 0`` for A of full column rank.

    With ``A = QR`` and ``w = R h`` it is the projection of ``Q^T y`` onto
    the cone ``{w : B R^{-1} w >= 0}``, made by ``project_onto_cone``
    (Moreau + NNLS).  Returns ``(h, objective)``, the objective from A.
    """
    Q, R = np.linalg.qr(A)
    G = np.linalg.solve(R.T, B.T).T
    h = np.linalg.solve(R, project_onto_cone(Q.T @ y, G))
    r = A @ h - y
    return h, float(r @ r)


# ---------------------------------------------------------------------------
# The active-set solver on the full m x n design, one wall at a time
# ---------------------------------------------------------------------------

def loop_ratio_test(bh: np.ndarray, bstep: np.ndarray, working) -> tuple[float, int]:
    """(alpha, blocker) of the active-set step: the walls in index order, a
    wall taking over when it undercuts the running limit by more than 1e-15."""
    alpha = 1.0
    blocker = -1
    scale = 1e-12 * (1.0 + float(np.max(np.abs(bstep))))
    for i in range(len(bh)):
        if i in working or bstep[i] >= -scale:
            continue
        limit = max(0.0, bh[i]) / (-bstep[i])
        if limit < alpha - 1e-15:
            alpha = limit
            blocker = i
    return alpha, blocker


def full_design_cls(A: np.ndarray, y: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """The primal active set of ``qp.solve_cls`` with every step an m x n
    ``lstsq`` of the design itself.  Returns ``(h, objective)``."""
    m, n = A.shape
    p = B.shape[0]
    kkt_tol = 1e-8 * (1.0 + np.linalg.norm(A.T @ y))
    h = np.zeros(n)
    working: list[int] = []
    for _ in range(50 * (n + p) + 1):
        if working:
            _, s, vt = np.linalg.svd(B[working])
            rank = int(np.sum(s > max(len(working), n) * np.finfo(float).eps
                              * float(np.max(np.linalg.norm(B[working], axis=0)))))
            Z = vt[rank:].T
        else:
            Z = np.eye(n)
        step = np.zeros(n)
        if Z.shape[1]:
            step = Z @ np.linalg.lstsq(A @ Z, y - A @ h, rcond=None)[0]
        if np.linalg.norm(step) > 1e-13 * (1.0 + np.linalg.norm(h)):
            alpha, blocker = loop_ratio_test(B @ h, B @ step, working) if p else (1.0, -1)
            h = h + alpha * step
            if blocker >= 0:
                working = sorted(working + [blocker])
                continue
        if not working:
            break
        mu = np.linalg.lstsq(B[working].T, A.T @ (A @ h - y), rcond=None)[0]
        neg = np.flatnonzero(mu < -kkt_tol)
        if neg.size == 0:
            break
        del working[int(neg[0])]
    else:
        raise RuntimeError("full-design active set did not converge")
    r = A @ h - y
    return h, float(r @ r)


def raw_mode_block_r(A: qp.BlockMatrix, work: int) -> np.ndarray:
    """R of the block QR of a tall design, read from LAPACK's raw layout
    (``np.linalg.qr(mode="raw")``, reflectors below the diagonal of R's
    transpose) of a column-major copy of each matrix factored, with
    ``qp.triangular_factor``'s rule for the blocks factored on their own."""
    def raw_r(M):
        raw, _ = np.linalg.qr(np.asfortranarray(M), mode="raw")
        return np.triu(raw[:, :min(M.shape)].T)

    n = A.shape[1]
    parts = [(cols, raw_r(values) if values.shape[1] < n and len(values) * n * n > work
              else values) for _, cols, values in A.blocks]
    stack = np.zeros((sum(len(values) for _, values in parts), n))
    top = 0
    for cols, values in parts:
        stack[top:top + len(values), cols] = values
        top += len(values)
    R = raw_r(stack)
    return np.vstack([R, np.zeros((n - len(R), n))])


# ---------------------------------------------------------------------------
# Cone dimension by one implicit-equality LP per row
# ---------------------------------------------------------------------------

def highs_cone_dimension(M: np.ndarray, E: np.ndarray | None = None) -> int:
    """Dimension of ``{x : M x >= 0, E x = 0}`` by scipy's HiGHS.

    Row i of M is an implicit equality when ``max s`` subject to
    ``M x >= 0``, ``E x = 0``, ``M_i x >= s`` and ``s <= 1`` is 0; x is
    free, so the optimum is 0 or 1.  The dimension is the column count
    minus the rank of E stacked on the implicit rows.
    """
    M = np.asarray(M, float)
    p, k = M.shape
    E = np.zeros((0, k)) if E is None else np.asarray(E, float)
    A_eq = np.hstack([E, np.zeros((E.shape[0], 1))]) if E.shape[0] else None
    b_eq = np.zeros(E.shape[0]) if E.shape[0] else None
    c = np.zeros(k + 1)
    c[k] = -1.0
    implicit = []
    for i in range(p):
        A_ub = np.zeros((p + 1, k + 1))
        A_ub[:p, :k] = -M
        A_ub[p, :k] = -M[i]
        A_ub[p, k] = 1.0
        res = linprog(c, A_ub=A_ub, b_ub=np.zeros(p + 1), A_eq=A_eq, b_eq=b_eq,
                      bounds=[(None, None)] * k + [(0.0, 1.0)], method="highs")
        if res.status != 0:
            raise ArithmeticError(f"implicit-equality LP for row {i}: {res.message}")
        if -res.fun < 0.5:
            implicit.append(i)
    rows = np.vstack([E, M[implicit]])
    return k - (int(np.linalg.matrix_rank(rows)) if rows.shape[0] else 0)


def highs_extents(B: np.ndarray, h: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """``min`` and ``max`` of lambda subject to ``B (h + lambda z) >= 0``,
    as two one-variable LPs solved by scipy's HiGHS; an unbounded side
    (status 3) is -inf or +inf."""
    A_ub = -(B @ z)[:, None]
    b_ub = B @ h
    out = []
    for sense in (1.0, -1.0):
        res = linprog([sense], A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)],
                      method="highs")
        if res.status == 3:
            out.append(-sense * np.inf)
        elif res.status == 0:
            out.append(float(res.x[0]))
        else:
            raise ArithmeticError(f"extent LP: {res.message}")
    return out[0], out[1]


def highs_support_values(fan, h) -> np.ndarray | None:
    """``max <v_i, x>`` over ``P(h) = {x : V x <= h}`` for each ray i, one
    HiGHS LP per ray; None when ``P(h)`` is empty (status 2)."""
    h = np.asarray(h, float)
    out = np.empty(fan.n_rays)
    for i, v in enumerate(fan.rays):
        res = linprog(-v, A_ub=fan.rays, b_ub=h, bounds=[(None, None)] * fan.dim,
                      method="highs")
        if res.status == 2:
            return None
        if res.status != 0:
            raise ArithmeticError(f"support LP for ray {i}: {res.message}")
        out[i] = -res.fun
    return out


def highs_essential_rows(matrix: np.ndarray) -> list[bool]:
    """``cli._essential_rows`` by scipy's HiGHS: rows are dropped in order,
    each when it is a nonnegative combination of the rows still present
    (``B_P^T y = b_k``, ``y >= 0`` feasible, status 0) and kept when that
    LP is infeasible (status 2)."""
    p = matrix.shape[0]
    present = [True] * p
    for k in range(p):
        others = [j for j in range(p) if j != k and present[j]]
        if not others:
            continue
        res = linprog(np.zeros(len(others)), A_eq=matrix[others].T, b_eq=matrix[k],
                      bounds=[(0.0, None)] * len(others), method="highs")
        if res.status not in (0, 2):
            raise ArithmeticError(f"implication LP for row {k}: {res.message}")
        present[k] = res.status == 2
    return present


# ---------------------------------------------------------------------------
# The tableau simplex one row and one column at a time
# ---------------------------------------------------------------------------

def loop_two_phase_simplex(T: np.ndarray, rhs: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """``min cost.z`` s.t. ``T z = rhs, z >= 0``: the two-phase Bland-rule
    tableau simplex of ``qp._two_phase_simplex`` with every row operation a
    Python loop and no phase-1 memo, so the vectorized engine must take the
    same pivots and return the same bits."""
    m, ncols = T.shape
    T = T.copy()
    rhs = rhs.copy()
    for i in range(m):
        if rhs[i] < 0:
            T[i] *= -1.0
            rhs[i] *= -1.0

    # Phase 1: artificial basis.
    tab = np.hstack([T, np.eye(m), rhs[:, None]])
    basis = list(range(ncols, ncols + m))
    art_cost = np.concatenate([np.zeros(ncols), np.ones(m), [0.0]])
    _loop_simplex_iterate(tab, basis, art_cost, ncols + m)
    phase1 = sum(tab[i, -1] for i in range(m) if basis[i] >= ncols)
    if phase1 > 1e-8 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        raise Infeasible("phase-1 optimum is positive")

    # Drive remaining artificial variables out of the basis.
    for i in range(m):
        if basis[i] < ncols:
            continue
        pivot_col = -1
        for j in range(ncols):
            if abs(tab[i, j]) > _LOOP_PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            _loop_pivot(tab, i, pivot_col)
            basis[i] = pivot_col

    keep = [i for i in range(m) if basis[i] < ncols]
    tab = np.hstack([tab[keep][:, :ncols], tab[keep][:, -1:]])
    basis = [basis[i] for i in keep]

    full_cost = np.concatenate([cost, [0.0]])
    _loop_simplex_iterate(tab, basis, full_cost, ncols)

    z = np.zeros(ncols)
    for i, b in enumerate(basis):
        z[b] = tab[i, -1]
    return z


_LOOP_PIVOT_TOL = 1e-10


def _loop_simplex_iterate(tab, basis, cost, ncols):
    m = len(basis)
    while True:
        reduced = cost[:ncols].copy()
        for i, b in enumerate(basis):
            if abs(cost[b]) > 0:
                reduced -= cost[b] * tab[i, :ncols]
        entering = -1
        for j in range(ncols):
            if j in basis:
                continue
            if reduced[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return
        ratio = np.inf
        leaving = -1
        for i in range(m):
            a = tab[i, entering]
            if a > _LOOP_PIVOT_TOL:
                r = tab[i, -1] / a
                # Smallest ratio; ties broken by smallest basis index.
                if r < ratio - 1e-12 or (abs(r - ratio) <= 1e-12 and
                                         (leaving < 0 or basis[i] < basis[leaving])):
                    ratio = r
                    leaving = i
        if leaving < 0:
            raise Unbounded(f"entering column {entering} is unbounded")
        _loop_pivot(tab, leaving, entering)
        basis[leaving] = entering


def _loop_pivot(tab, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0:
            tab[i] -= tab[i, col] * tab[row]


# ---------------------------------------------------------------------------
# Per-row references for the batched paths
# ---------------------------------------------------------------------------

def cell_inverses(fan) -> list[np.ndarray]:
    return [np.linalg.inv(fan.rays[list(cell)].T) for cell in fan.cells]


def scatter_carriers(fan, U) -> tuple[np.ndarray, np.ndarray]:
    """``(cells, coeffs)`` of the rows of ``U``: the cells of
    ``fan.carriers``, -1 for a row without a carrier, and its coefficients
    scattered into an (m, n) matrix, whose rows without a carrier are
    zero."""
    cells, lam, _ = carriers(fan, U)
    coeffs = np.zeros((len(cells), fan.n_rays))
    rows = np.flatnonzero(cells >= 0)
    coeffs[rows[:, None], np.array(fan.cells)[cells[rows]]] = lam[rows]
    return cells, coeffs


def left_to_right(inv, u) -> np.ndarray:
    """``inv @ u`` with each entry summed left to right in Python floats:
    ``(inv[j, 0] u_0 + inv[j, 1] u_1) + ...``, one row at a time."""
    u = np.asarray(u, float).tolist()
    lam = []
    for row in np.asarray(inv, float).tolist():
        total = row[0] * u[0]
        for a, x in zip(row[1:], u[1:]):
            total += a * x
        lam.append(total)
    return np.array(lam)


def loop_carrier(fan, u, inverses) -> tuple[int, np.ndarray]:
    """(cell, coeffs) of one vector: scan the cells in fan order, take the
    first whose coefficients, summed left to right (``left_to_right``),
    clear ``-1e-9 ||u|| / min ||v_i||``.  When the sum of squares of a
    nonzero u under- or overflows, ``||u||`` is taken from u scaled by a
    power of 2 that brings its largest entry into [1/2, 1)."""
    u = np.asarray(u, float)
    with np.errstate(over="ignore"):
        norm_u = np.linalg.norm(u)
    if (norm_u == 0.0 and np.any(u)) or norm_u == np.inf:
        e = np.frexp(np.max(np.abs(u)))[1]
        norm_u = np.ldexp(np.linalg.norm(np.ldexp(u, -e)), e)
    if norm_u == 0.0:
        raise NoCarrier("zero vector has no carrier")
    min_norm = float(np.min(np.linalg.norm(fan.rays, axis=1)))
    tol = 1e-9 * norm_u / max(min_norm, 1e-300)
    for ci, cell in enumerate(fan.cells):
        lam = left_to_right(inverses[ci], u)
        if np.min(lam) >= -tol:
            coeffs = np.zeros(fan.n_rays)
            coeffs[list(cell)] = np.maximum(lam, 0.0)
            return ci, coeffs
    raise NoCarrier(f"no cell of {fan!r} admits nonnegative coefficients")


def loop_design(fan, U) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, carrier_cells) row by row; ``NoCarrier`` names the row."""
    inverses = cell_inverses(fan)
    U = np.atleast_2d(np.asarray(U, float))
    matrix = np.zeros((U.shape[0], fan.n_rays))
    cells = np.zeros(U.shape[0], int)
    for i in range(U.shape[0]):
        try:
            cells[i], matrix[i] = loop_carrier(fan, U[i], inverses)
        except NoCarrier as exc:
            raise NoCarrier(f"row {i}: {exc}", row=i) from None
    return matrix, cells


def loop_direction_graph(design) -> DirectionGraph:
    """Ray/sample adjacency one column and one entry at a time."""
    neighbors = []
    for i in range(design.n):
        col = design.matrix[:, i]
        neighbors.append(tuple(int(j) for j in np.nonzero(col > POSITIVITY_TOL)[0]))
    return DirectionGraph(n_rays=design.n, n_samples=design.m,
                          ray_neighbors=tuple(neighbors))


def loop_vertex_labels(vertices: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``fan._vertex_labels`` one vertex at a time: a running best score
    and its label, replaced only by a strictly greater score, so the first
    vertex wins a tie."""
    best = U @ vertices[0]
    score = np.empty_like(best)
    better = np.empty(best.shape, bool)
    labels = np.zeros(best.shape, np.min_scalar_type(len(vertices) - 1))
    for c in range(1, len(vertices)):
        np.matmul(U, vertices[c], out=score)
        np.greater(score, best, out=better)
        np.putmask(labels, better, c)
        np.maximum(best, score, out=best)
    return labels


def concatenated_support_patterns(fan, design):
    """``design._support_patterns`` from every row at once: the rows and
    coefficients of all blocks concatenated, each row's key
    ``cell * 2^d + mask`` and one ``np.bincount`` of the keys."""
    d = fan.dim
    blocks = design.blocks
    rows = np.concatenate([rows for rows, _, _ in blocks])
    positive = np.concatenate([lam for _, _, lam in blocks]) > POSITIVITY_TOL
    keys = design.carrier_cells[rows] * (1 << d) + positive @ (1 << np.arange(d))
    counts = np.bincount(keys, minlength=fan.n_cells << d)
    keys = np.flatnonzero(counts)
    cells, masks = np.divmod(keys, 1 << d)
    return cells, masks, counts[keys]


def loop_in_ct(fan, x, j, t, inverses) -> bool:
    coeffs = loop_carrier(fan, x, inverses)[1]
    scaled = coeffs * np.linalg.norm(fan.rays, axis=1)
    target = np.zeros(fan.n_rays)
    target[j] = 1.0
    return float(np.max(np.abs(scaled - target))) <= t + 1e-9


def loop_block_membership(fan, X, ray, t) -> tuple[np.ndarray, np.ndarray]:
    """``sim._membership`` one carrier cell at a time: the rows
    ``fan.carriers`` places in a cell, one ``_in_neighborhoods`` call per
    cell, with its d ray norms."""
    column = np.full((fan.n_cells, fan.n_rays), -1)
    column[np.arange(fan.n_cells)[:, None], fan._cell_array] = np.arange(fan.dim)
    cells, lam, _ = carriers(fan, X)
    member = np.zeros(len(X), bool)
    for c in range(fan.n_cells):
        rows = np.flatnonzero(cells == c)
        member[rows] = sim._in_neighborhoods(
            lam[rows], fan.constants.ray_norms[list(fan.cells[c])], column[c, ray[rows]], t)
    return member, cells >= 0


def _loop_unit(rng, d) -> np.ndarray:
    while True:
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def loop_uniform_sphere(d, m, seed) -> np.ndarray:
    """One ``standard_normal(d)`` call per unit vector."""
    rng = sim._rng(seed)
    return np.array([_loop_unit(rng, d) for _ in range(m)])


def loop_concentrated(fan, plan) -> np.ndarray:
    """Quota slots round robin by ray, each rejection-sampled with one
    ``standard_normal(d)`` call per trial from its ray's child stream of
    the plan seed, then the uniform fill from the plan seed's own stream."""
    inverses = cell_inverses(fan)
    n = fan.n_rays
    streams = np.random.SeedSequence(plan.seed).spawn(n)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams]
    norms = np.linalg.norm(fan.rays, axis=1)
    units = fan.rays / norms[:, None]
    radius = 0.5 * plan.t * float(np.min(norms))
    out = []
    remaining = list(plan.quotas)
    while any(q > 0 for q in remaining):
        for j in range(n):
            if remaining[j] <= 0:
                continue
            remaining[j] -= 1
            if plan.t == 0.0:
                out.append(units[j].copy())
                continue
            for _ in range(10000):
                x = units[j] + radius * rngs[j].standard_normal(fan.dim)
                norm = np.linalg.norm(x)
                if norm < 1e-12:
                    continue
                x /= norm
                if loop_in_ct(fan, x, j, plan.t, inverses):
                    out.append(x)
                    break
            else:
                raise RuntimeError(
                    f"rejection sampling starved for ray {j} at t={plan.t}")
    rng = sim._rng(plan.seed)
    out += [_loop_unit(rng, fan.dim) for _ in range(plan.m - len(out))]
    return np.array(out)


def loop_convergence(fan, h0, plan_family, m_schedule, replicates,
                     noise) -> list[sim.ConvergenceRecord]:
    """``sim.run_convergence`` one replicate at a time: its own
    ``sample_concentrated`` call, its noise, the support values of P(h0)
    with h0 checked again, ``reconstruct`` and a one-pair ``hausdorff``,
    every failure its replicate's record.  ``elapsed`` is the replicate's
    own time."""
    records = []
    for m in m_schedule:
        base_plan = plan_family(m)
        for rep in range(replicates):
            plan = replace(base_plan, seed=sim.derive_seed(base_plan.seed, m, rep))
            start = time.perf_counter()
            try:
                dirs = sim.sample_concentrated(fan, plan)
                eps = noise.sample(m, key=(m, rep))
                y = geometry.support_values(fan, h0, dirs) + eps
                result = reconstruct(fan, Dataset(dirs, y))
                err = geometry.hausdorff(fan, result.h_hat, h0)
                records.append(sim.ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=err,
                    objective=result.objective,
                    elapsed=time.perf_counter() - start))
            except Exception as exc:  # noqa: BLE001 - recorded per replicate
                records.append(sim.ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=float("nan"),
                    objective=float("nan"), elapsed=time.perf_counter() - start,
                    failed=True, message=str(exc)))
    return records


def loop_cell_vertices(fan, h) -> np.ndarray:
    """Row c is ``inv_c.T @ h_c``, one cell at a time."""
    h = np.asarray(h, float)
    return np.array([inv.T @ h[list(cell)] for cell, inv in zip(fan.cells, cell_inverses(fan))])


# ---------------------------------------------------------------------------
# Loop references of fan construction and set-up
# ---------------------------------------------------------------------------

def subset_polytope_cells(rays: np.ndarray):
    """Vertex/facet incidences of ``{x : rays @ x <= 1}`` if simple, else None."""
    n, d = rays.shape
    tol = 1e-9
    cells = []
    used = np.zeros(n, bool)
    for subset in itertools.combinations(range(n), d):
        M = rays[list(subset)]
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, np.ones(d))
        slack = rays @ x - 1.0
        if np.max(slack) > tol:
            continue
        # Simplicity: exactly d constraints tight at the vertex.
        tight = np.sum(slack > -tol)
        if tight != d:
            return None
        if np.linalg.norm(x) > 1e6:
            return None
        cells.append(subset)
        used[list(subset)] = True
    if not cells or not used.all():
        return None  # unbounded or a redundant facet
    return cells


def subset_random_polytopal_fan(d: int, n: int, seed: int,
                                max_attempts: int = 200) -> SimplicialFan:
    """``catalog.random_polytopal_fan`` with the cells of each draw from the
    loop over all d-subsets of the rays."""
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        rays = rng.standard_normal((n, d))
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        cells = subset_polytope_cells(rays)
        if cells is None:
            continue
        fan = SimplicialFan(rays, cells)
        try:
            fan.require_valid()
        except InvalidFan:
            continue
        return fan
    raise RuntimeError(f"no valid random fan after {max_attempts} attempts")


def loop_wall_crossings(fan) -> WallCrossingSystem:
    """The wall system one pair of cells and one dependence solve at a time."""
    fan.require_valid()
    rays = fan.rays
    rows = []
    pairs = []
    for a, b in itertools.combinations(range(fan.n_cells), 2):
        shared = sorted(set(fan.cells[a]) & set(fan.cells[b]))
        if len(shared) != fan.dim - 1:
            continue
        j1 = next(i for i in fan.cells[a] if i not in shared)
        j2 = next(i for i in fan.cells[b] if i not in shared)
        involved = [j1, j2] + shared
        # Unknown coefficients c over `involved`: sum c_j v_j = 0 and
        # c_{j1} + c_{j2} = 2.
        system = np.zeros((fan.dim + 1, fan.dim + 1))
        system[:fan.dim, :] = rays[involved].T
        system[fan.dim, 0] = 1.0
        system[fan.dim, 1] = 1.0
        rhs = np.zeros(fan.dim + 1)
        rhs[fan.dim] = 2.0
        smin = np.linalg.svd(system, compute_uv=False)[-1]
        if smin <= 1e-10 * float(np.max(np.abs(system))):
            raise DegenerateWall(
                f"wall between cells {a} and {b} has a rank-deficient dependence")
        coeff = np.linalg.solve(system, rhs)
        coeff *= 2.0 / (coeff[0] + coeff[1])  # make the normalization exact
        row = np.zeros(fan.n_rays)
        row[involved] = coeff
        rows.append(row)
        pairs.append((a, b))
    matrix = np.array(rows) if rows else np.zeros((0, fan.n_rays))
    return WallCrossingSystem(matrix=matrix, pairs=tuple(pairs))


def loop_pairwise_face_check(fan, messages: list[str]) -> bool:
    """Strict complex condition: cells intersect in the common-generator cone."""
    ok = True
    for a, b in itertools.combinations(range(fan.n_cells), 2):
        ca, cb = fan.cells[a], fan.cells[b]
        shared = sorted(set(ca) & set(cb))
        only_a = [i for i in ca if i not in shared]
        only_b = [i for i in cb if i not in shared]
        if not only_a:
            continue  # identical cells are caught by the ridge check
        # max sum of the a-only coefficients over points common to both
        # cones, normalized; positive optimum means the intersection
        # leaks outside the shared face.
        na, nb = len(ca), len(cb)
        c = np.zeros(na + nb)
        for k, i in enumerate(ca):
            if i in only_a:
                c[k] = -1.0
        E = np.zeros((fan.dim, na + nb))
        E[:, :na] = fan.rays[list(ca)].T
        E[:, na:] = -fan.rays[list(cb)].T
        f = np.zeros(fan.dim)
        bounds = [(0.0, 1.0)] * (na + nb)
        try:
            sol = qp.solve_lp(c, None, E, f, bounds)
        except qp.Infeasible:
            continue
        if -sol.objective > 1e-9:
            ok = False
            messages.append(f"cells {a} and {b} do not meet in a common face")
    return ok


def loop_independent_cells(fan) -> list[bool]:
    """Per cell: are its generators numerically independent?  One
    determinant against the product of the generator norms per cell."""
    out = []
    for cell in fan.cells:
        M = fan.rays[list(cell)].T
        scale = np.prod(np.linalg.norm(M, axis=0))
        out.append(bool(abs(np.linalg.det(M)) > 1e-12 * max(scale, 1e-300)))
    return out


def loop_ray_checks(fan) -> tuple[bool, list[str], bool, list[str]]:
    """(rays distinct, its messages, ray incidence, its messages) of
    ``validate``, one pair of rays and one cell at a time."""
    ray_messages = []
    rays_ok = True
    norms = np.linalg.norm(fan.rays, axis=1)
    if np.any(norms <= 0):
        rays_ok = False
        ray_messages.append("zero ray generator")
    else:
        unit = fan.rays / norms[:, None]
        for i, j in itertools.combinations(range(fan.n_rays), 2):
            if np.linalg.norm(unit[i] - unit[j]) < 1e-9:
                rays_ok = False
                ray_messages.append(f"rays {i} and {j} are positive multiples")
    incidence_messages = []
    incidence_ok = True
    counts = np.zeros(fan.n_rays, int)
    for cell in fan.cells:
        counts[list(cell)] += 1
    for i in range(fan.n_rays):
        if counts[i] < fan.dim:
            incidence_ok = False
            incidence_messages.append(f"ray {i} appears in {counts[i]} < d cells")
    return rays_ok, ray_messages, incidence_ok, incidence_messages


def loop_merged_groups(points: np.ndarray, tol: float) -> tuple[tuple[int, ...], ...]:
    """The merged groups of ``geometry.vertices``, one pair of points at a
    time: each point not yet in a group starts one with every later free
    point within ``tol``; groups of one are dropped."""
    assigned = [-1] * len(points)
    groups = []
    for i in range(len(points)):
        if assigned[i] >= 0:
            continue
        group = [i]
        assigned[i] = i
        for j in range(i + 1, len(points)):
            if assigned[j] < 0 and np.linalg.norm(points[i] - points[j]) <= tol:
                assigned[j] = i
                group.append(j)
        if len(group) > 1:
            groups.append(tuple(group))
    return tuple(groups)
