"""Independent reference computations used to check the library.

Everything here deliberately avoids the code paths under test: maxima over
cone caps come from dense grids, Hausdorff distances from vertex-to-body
projections enumerated over faces, matchings from backtracking, and the
constrained least-squares check is a projected-gradient iteration whose
cone projections use scipy's Lawson-Hanson NNLS.

The per-row loops at the end are the slow references of the batched
carrier, sampling and probe paths: one direction, one Gaussian draw and
one cell at a time, with the same arithmetic, so the batched results must
equal them bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

from facetfit import sim
from facetfit.fan import NoCarrier


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


# ---------------------------------------------------------------------------
# Per-row references for the batched paths
# ---------------------------------------------------------------------------

def cell_inverses(fan) -> list[np.ndarray]:
    return [np.linalg.inv(fan.rays[list(cell)].T) for cell in fan.cells]


def loop_carrier(fan, u, inverses) -> tuple[int, np.ndarray]:
    """(cell, coeffs) of one vector: scan the cells in fan order, take the
    first whose coefficients clear ``-1e-9 ||u|| / min ||v_i||``."""
    u = np.asarray(u, float)
    norm_u = np.linalg.norm(u)
    if norm_u == 0.0:
        raise NoCarrier("zero vector has no carrier")
    min_norm = float(np.min(np.linalg.norm(fan.rays, axis=1)))
    tol = 1e-9 * norm_u / max(min_norm, 1e-300)
    for ci, cell in enumerate(fan.cells):
        lam = inverses[ci] @ u
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


def loop_in_ct(fan, x, j, t, inverses) -> bool:
    coeffs = loop_carrier(fan, x, inverses)[1]
    scaled = coeffs * np.linalg.norm(fan.rays, axis=1)
    target = np.zeros(fan.n_rays)
    target[j] = 1.0
    return float(np.max(np.abs(scaled - target))) <= t + 1e-9


def _loop_unit(rng, d) -> np.ndarray:
    while True:
        g = sim.gaussian_polar(rng, d)
        norm = np.linalg.norm(g)
        if norm > 1e-12:
            return g / norm


def loop_uniform_sphere(d, m, seed) -> np.ndarray:
    """One ``gaussian_polar`` call per unit vector."""
    rng = sim._rng(seed)
    return np.array([_loop_unit(rng, d) for _ in range(m)])


def loop_concentrated(fan, plan) -> np.ndarray:
    """Quota slots round robin by ray, each rejection-sampled with one
    ``gaussian_polar`` call per trial, then the uniform fill."""
    inverses = cell_inverses(fan)
    n = fan.n_rays
    rng = sim._rng(plan.seed)
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
                x = units[j] + radius * sim.gaussian_polar(rng, fan.dim)
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
    out += [_loop_unit(rng, fan.dim) for _ in range(plan.m - len(out))]
    return np.array(out)


def loop_completeness_probe(fan, probes=1000, seed=20210) -> tuple[bool, list[str]]:
    """(verdict, messages) of the probe, one direction and one cell at a time."""
    rng = np.random.default_rng(seed)
    inverses = cell_inverses(fan)
    for _ in range(probes):
        u = rng.standard_normal(fan.dim)
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            continue
        u /= norm
        hits = sum(1 for inv in inverses if np.min(inv @ u) >= -1e-9)
        if hits != 1:
            return False, [f"direction {u.tolist()} has {hits} carriers (expected 1)"]
    return True, []
