"""Reference computations that the benchmark checks facetfit against.

Nothing here calls into facetfit.  The fan enters only as its ray array and
cell list, and every quantity is computed along a different route from the
library's:

- design rows from a stacked solve over all cells at once, picking the most
  interior cell instead of the first feasible one in fan order;
- the deformation cone from the vertex/facet view (the vertex of cell a must
  lie below the facet of the one ray that the adjacent cell b adds), not
  from the linear dependence across a wall;
- constrained least squares by a thin QR and the Moreau decomposition with
  scipy's NNLS, and the KKT residual from NNLS multipliers on the active
  rows;
- the minimizer set by HiGHS linear programs: its implicit equalities give
  the exact dimension, the recession cone gives boundedness;
- Hausdorff distances from support values sampled over a fixed covering of
  the sphere.

scipy is imported inside the functions that need it, so a benchmark process
does not load it before the timed part of a run is over.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Rows per block when a computation over all samples and all cells would
# otherwise build an (m, cells, d) temporary.
_BLOCK = 4096


def _cell_inverses(rays: np.ndarray, cells) -> np.ndarray:
    """Stack of inverses of the generator matrices (rays as columns)."""
    return np.stack([np.linalg.inv(rays[list(cell)].T) for cell in cells])


def design(rays: np.ndarray, cells, directions: np.ndarray) -> np.ndarray:
    """Barycentric design matrix: row i holds the coefficients of direction i.

    Every cell's coefficients are computed at once and the cell whose
    smallest coefficient is largest carries the row.  On a wall the two
    cells give the same row up to round-off.
    """
    cells = [tuple(c) for c in cells]
    inverses = _cell_inverses(rays, cells)
    index = np.array(cells)
    U = np.atleast_2d(np.asarray(directions, float))
    A = np.zeros((U.shape[0], rays.shape[0]))
    for start in range(0, U.shape[0], _BLOCK):
        block = U[start:start + _BLOCK]
        lam = np.einsum("cij,mj->mci", inverses, block)
        best = np.argmax(lam.min(axis=2), axis=1)
        rows = np.arange(block.shape[0])
        coeffs = np.maximum(lam[rows, best], 0.0)
        A[start + rows[:, None], index[best]] = coeffs
    return A


def adjacent_pairs(cells):
    """Pairs (a, b, j) of cells sharing d - 1 rays; j is the ray b adds."""
    out = []
    for a, b in itertools.permutations(range(len(cells)), 2):
        extra = set(cells[b]) - set(cells[a])
        if len(extra) == 1:
            out.append((a, b, extra.pop()))
    return out


def wall_rows(rays: np.ndarray, cells) -> np.ndarray:
    """Unit rows W with ``W h >= 0`` exactly on the deformation cone.

    For adjacent cells a and b the row is ``h_j - <v_j, x_a(h)>``, the slack
    of the vertex of cell a in the facet inequality of the ray j that b
    adds.  ``x_a(h)`` is linear in ``h`` with ``<v_j, x_a> = lambda . h_a``,
    lambda being the barycentric coefficients of ``v_j`` in cell a.
    """
    cells = [tuple(c) for c in cells]
    rows = []
    for a, _, j in adjacent_pairs(cells):
        row = np.zeros(rays.shape[0])
        row[j] = 1.0
        row[list(cells[a])] -= np.linalg.solve(rays[list(cells[a])].T, rays[j])
        rows.append(row / np.linalg.norm(row))
    return np.array(rows)


def vertices(rays: np.ndarray, cells, h) -> np.ndarray:
    """One point per cell: the solution of ``<v_i, x> = h_i`` over its rays."""
    h = np.asarray(h, float)
    return np.array([np.linalg.solve(rays[list(cell)], h[list(cell)])
                     for cell in cells])


def support_values(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """``max_x <x, u>`` over the given points for every direction u."""
    U = np.atleast_2d(np.asarray(directions, float))
    out = np.empty(U.shape[0])
    for start in range(0, U.shape[0], _BLOCK):
        out[start:start + _BLOCK] = (U[start:start + _BLOCK] @ points.T).max(axis=1)
    return out


def positively_spanning(U: np.ndarray, margin: float = 1e-6) -> bool:
    """Whether the unit directions U positively span R^d (d = 2 or 3).

    In the plane the largest angular gap must stay below pi.  In space a
    plane through the origin that has every direction on one side can be
    turned until it touches two of them, so it is enough to test the
    planes spanned by pairs.
    """
    m, d = U.shape
    if d == 2:
        angles = np.sort(np.arctan2(U[:, 1], U[:, 0]))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
        return bool(np.max(gaps) < np.pi - margin)
    if np.linalg.matrix_rank(U) < 3:
        return False
    for i, j in itertools.combinations(range(m), 2):
        w = np.cross(U[i], U[j])
        if np.linalg.norm(w) < margin:
            return False
        side = U @ (w / np.linalg.norm(w))
        if side.max() < margin or side.min() > -margin:
            return False
    return True


# ---------------------------------------------------------------------------
# Constrained least squares
# ---------------------------------------------------------------------------

def cone_least_squares(A: np.ndarray, y: np.ndarray, W: np.ndarray):
    """``min ||A h - y||^2`` over ``W h >= 0`` for A of full column rank.

    With ``A = QR`` and ``w = R h`` the problem is the projection of
    ``z = Q^T y`` onto the cone ``{w : G w >= 0}``, ``G = W R^{-1}``.  By
    Moreau's decomposition that projection is ``z + G^T mu`` with
    ``mu = argmin_{mu >= 0} ||G^T mu + z||`` (an NNLS problem).  Returns
    ``(h, objective)``.
    """
    from scipy.linalg import solve_triangular
    from scipy.optimize import nnls

    Q, R = np.linalg.qr(A)
    z = Q.T @ y
    offset = float(y @ y - z @ z)
    G = solve_triangular(R, W.T, trans="T").T          # W R^{-1}
    mu, _ = nnls(-G.T, z, maxiter=50 * G.shape[0])
    w = z + G.T @ mu
    h = solve_triangular(R, w)
    return h, float((w - z) @ (w - z)) + offset


def kkt_residual(A: np.ndarray, y: np.ndarray, W: np.ndarray, h) -> float:
    """Largest violation of the KKT conditions of ``min ||Ah - y||^2, Wh >= 0``.

    Stationarity ``grad = W_act^T mu`` is fitted by NNLS on the rows active
    at h; primal feasibility and complementary slackness are measured on
    all rows.  Rows are unit vectors, so the residual is in gradient units.
    """
    from scipy.optimize import nnls

    h = np.asarray(h, float)
    grad = 2.0 * A.T @ (A @ h - y)
    slack = W @ h
    active = slack <= 1e-9 * (1.0 + np.linalg.norm(h))
    mu = np.zeros(W.shape[0])
    if active.any():
        mu[active], _ = nnls(W[active].T, grad)
    stationarity = float(np.linalg.norm(grad - W.T @ mu))
    primal = max(0.0, float(-slack.min()))
    comp = float(np.max(np.abs(mu * slack)))
    return max(stationarity, primal, comp)


def kkt_tolerance(A: np.ndarray, y: np.ndarray) -> float:
    """Certificate tolerance, in the gradient units of ``kkt_residual``."""
    return 1e-8 * (1.0 + 2.0 * float(np.linalg.norm(A.T @ y)))


# ---------------------------------------------------------------------------
# Minimizer-set geometry by linear programming
# ---------------------------------------------------------------------------

def _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    return res


def consistent(A: np.ndarray, W: np.ndarray, y) -> bool:
    """Whether some h with ``W h >= 0`` fits the data exactly (``A h = y``),
    in which case the least-squares optimum is 0 and the fitted values are y."""
    n = A.shape[1]
    res = _linprog(np.zeros(n), -W, np.zeros(W.shape[0]), A, y,
                   [(None, None)] * n)
    return res.status == 0


def minimizer_set(A: np.ndarray, W: np.ndarray, y_fit) -> tuple[int, bool]:
    """Exact dimension and boundedness of ``{h : W h >= 0, A h = y_fit}``.

    Row i of W is an implicit equality of the set when ``max W_i h`` over
    the set is 0; one LP per row decides it.  The dimension is then
    ``n - rank([A; W_implicit])``.  The set is bounded exactly when its
    recession cone ``{h : W h >= 0, A h = 0}`` is {0}, which 2n LPs over
    the box ``[-1, 1]^n`` decide.
    """
    m, n = A.shape
    p = W.shape[0]
    y_fit = np.asarray(y_fit, float)
    # HiGHS meets its constraints to about 1e-7, so a row counts as an
    # implicit equality, and a recession direction as zero, below 1e-6.
    tol = 1e-6 * (1.0 + float(np.max(np.abs(y_fit))))
    A_eq = np.hstack([A, np.zeros((m, 1))])
    implicit = []
    for i in range(p):
        # Variables (h, s): maximize s <= 1 subject to W h >= 0, W_i h >= s.
        A_ub = np.zeros((p + 1, n + 1))
        A_ub[:p, :n] = -W
        A_ub[p, :n] = -W[i]
        A_ub[p, n] = 1.0
        c = np.zeros(n + 1)
        c[n] = -1.0
        res = _linprog(c, A_ub, np.zeros(p + 1), A_eq, y_fit,
                       [(None, None)] * n + [(0.0, 1.0)])
        if res.status != 0:
            raise ArithmeticError(f"implicit-equality LP for row {i}: {res.message}")
        if -res.fun <= tol:
            implicit.append(i)
    M = np.vstack([A, W[implicit]]) if implicit else A
    s = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size else 0
    bounded = True
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign
            res = _linprog(c, -W, np.zeros(p), A, np.zeros(m),
                           [(-1.0, 1.0)] * n)
            if res.status != 0:
                raise ArithmeticError(f"recession LP for h[{j}]: {res.message}")
            if -res.fun > 1e-6:
                bounded = False
    return n - rank, bounded


# ---------------------------------------------------------------------------
# Hausdorff distance by sampling
# ---------------------------------------------------------------------------

def sphere_covering(d: int, count: int) -> np.ndarray:
    """Fixed near-uniform unit directions: equal angles in 2D, a Fibonacci
    lattice in 3D."""
    if d == 2:
        t = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(t), np.sin(t)])
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    r = np.sqrt(1.0 - z * z)
    phi = np.pi * (1.0 + math.sqrt(5.0)) * k
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def covering_radius(d: int, count: int) -> float:
    """Bound on the angle from any unit vector to the nearest point of
    ``sphere_covering(d, count)`` (generous in 3D)."""
    if d == 2:
        return np.pi / count
    return 4.0 / math.sqrt(count)


def sampled_hausdorff(rays: np.ndarray, cells, h1, h2, directions: np.ndarray):
    """``(lower, slack)``: the sampled Hausdorff distance between P(h1) and
    P(h2) and the most the true value can exceed it per radian of covering
    radius (the largest vertex displacement)."""
    p1 = vertices(rays, cells, h1)
    p2 = vertices(rays, cells, h2)
    diff = support_values(p1, directions) - support_values(p2, directions)
    lipschitz = float(np.max(np.linalg.norm(p1 - p2, axis=1)))
    return float(np.max(np.abs(diff))), lipschitz


def loglog_slope(ms, medians) -> float:
    """Least-squares slope of log(median error) against log(m)."""
    x = np.log(np.asarray(ms, float))
    z = np.log(np.asarray(medians, float))
    x = x - x.mean()
    return float(x @ (z - z.mean()) / (x @ x))
