"""Polytope-level computations on support vectors.

A support vector ``h`` identifies the polytope ``P(h) = {x : <v_i, x> <= h_i}``
over the rays of a fixed fan.  Membership in the deformation cone, vertex
maps, support-function values, irredundancy, Minkowski sums and exact
Hausdorff distances are all computed directly from the fan's cell data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qp
from .fan import (SimplicialFan, as_rows, c_delta, cap_maxima, cell_vertices,
                  row_norms, vertex_max)
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps geometry.carrier
from .fan import max_linear_over_cone_cap  # noqa: F401 - perfbench's tracer wraps it here


class NotInDeformationCone(Exception):
    """The support vector violates a wall-crossing inequality."""


@dataclass(frozen=True)
class VertexMap:
    """One point per maximal cell: the vertex whose normal cone is the cell.

    ``merged_groups`` lists the groups of cells (size >= 2) whose points
    coincide within tolerance; a nonempty list means ``h`` sits on the
    boundary of the type cone and some vertices have degenerated together.
    """

    points: np.ndarray
    merged_groups: tuple[tuple[int, ...], ...]


def membership_gap(fan: SimplicialFan, h) -> float:
    """Smallest wall value ``min(B h)``; nonnegative inside the cone.  A
    valid complete fan has walls, and ``wall_system`` requires a valid fan."""
    return float(np.min(fan.wall_system.matrix @ np.asarray(h, float)))


def is_deformation(fan: SimplicialFan, h) -> bool:
    """Whether ``P(h)`` is a deformation of the fan's polytopes.

    Tolerated membership: every wall value may dip ``1e-8 * (1 + ||h||)``
    below zero, so boundary vectors and round-off survivors count as inside.
    """
    h = np.asarray(h, float)
    tol = 1e-8 * (1.0 + np.linalg.norm(h))
    return membership_gap(fan, h) >= -tol


def _require_member(fan, h):
    h = np.asarray(h, float)
    if not is_deformation(fan, h):
        raise NotInDeformationCone(
            f"support vector violates the wall inequalities by "
            f"{-membership_gap(fan, h):.3e}")
    return h


def vertices(fan: SimplicialFan, h) -> VertexMap:
    """Vertices of ``P(h)``, one per maximal cell.

    Cell sigma contributes the solution of ``<v_i, x> = h_i`` over its
    generators; for ``h`` in the deformation cone every other facet
    inequality holds at that point.  Coinciding points are reported as
    merged groups rather than deduplicated.
    """
    h = _require_member(fan, h)
    points = cell_vertices(fan, h)
    tol = 1e-9 * (1.0 + np.linalg.norm(h))
    # Each cell not yet in a group starts one with every later free cell
    # within tol: one row_norms per cell, O(cells) memory.
    free = np.ones(fan.n_cells, bool)
    groups: list[list[int]] = []
    for c in range(fan.n_cells):
        if free[c]:
            mates = c + 1 + np.flatnonzero(
                free[c + 1:] & (row_norms(points[c] - points[c + 1:]) <= tol))
            free[mates] = False
            if mates.size:
                groups.append([c, *mates.tolist()])
    return VertexMap(points=points,
                     merged_groups=tuple(tuple(g) for g in groups))


def support_value(fan: SimplicialFan, h, u) -> float:
    """Support-function value of ``P(h)`` at ``u``: ``support_values`` on
    one row.  Raises ``NotInDeformationCone`` for an h outside the cone."""
    return float(support_values(fan, h, np.asarray(u, float)[None])[0])


def support_values(fan: SimplicialFan, h, U) -> np.ndarray:
    """Support-function values ``h_{P(h)}(u) = max <u, x>`` of ``P(h)`` at
    the rows u of ``U``.

    On a polytope the support function is the largest ``<u, x>`` over its
    vertices (Ziegler, *Lectures on Polytopes*, 7.1), so the values are a
    running maximum over the rows of ``cell_vertices(fan, h)``: O(m)
    memory, no carrier lookup and no (m, cells) score matrix.  For h in the
    deformation cone they equal ``<h, [u]>``, the design rows applied to h,
    up to rounding.  Raises ``NotInDeformationCone`` for an h outside the
    cone, where ``<h, [u]>`` is not a support function.
    """
    h = _require_member(fan, h)
    return vertex_max(cell_vertices(fan, h), as_rows(fan, U, "directions"))


def is_irredundant(fan: SimplicialFan, h) -> list[bool]:
    """Per ray: is the bound ``h_i`` attained on ``P(h)``?

    Entry i is True when ``h_i`` equals the true support value of ``P(h)``
    at ray i, i.e. the i-th inequality touches the polytope.  Inside the
    deformation cone every entry is attained, and the support values are
    the largest ``<v_i, x>`` over ``cell_vertices``.  Outside it (a
    compatible but dishonest ``h``) each ray's support value is one
    ``solve_lp`` over ``P(h)`` posed as ``V x + s = h``, ``s >= 0``: one
    feasible region for all n rays, so phase 1 runs once.  Raises
    ``NotInDeformationCone`` when ``P(h)`` is empty.
    """
    h = np.asarray(h, float)
    tol = 1e-8 * (1.0 + np.linalg.norm(h))
    n, d = fan.n_rays, fan.dim
    if is_deformation(fan, h):
        best = vertex_max(cell_vertices(fan, h), fan.rays)
    else:
        E = np.hstack([fan.rays, np.eye(n)])
        bounds = [(-np.inf, np.inf)] * d + [(0.0, np.inf)] * n
        best = np.empty(n)
        for i in range(n):
            try:
                sol = qp.solve_lp(np.concatenate([-fan.rays[i], np.zeros(n)]),
                                  E=E, f=h, bounds=bounds)
            except qp.Infeasible:
                raise NotInDeformationCone(
                    "P(h) is empty; h is not a compatible vector") from None
            best[i] = -sol.objective
    return [bool(h[i] - best[i] <= tol) for i in range(n)]


def minkowski_add(fan: SimplicialFan, h, h2) -> np.ndarray:
    """Support vector of the Minkowski sum ``P(h) + P(h2)``."""
    h = _require_member(fan, h)
    h2 = _require_member(fan, h2)
    return h + h2


def hausdorff(fan: SimplicialFan, h, h2) -> float:
    """Exact Hausdorff distance between ``P(h)`` and ``P(h2)``:
    ``hausdorff_rows`` on the one row h.  The pairs of ``(h2, h)`` are
    those of ``(h, h2)`` negated, in another order, so the distance is
    symmetric bit for bit."""
    return float(hausdorff_rows(fan, np.asarray(h, float)[None], h2)[0])


def hausdorff_rows(fan: SimplicialFan, H, h2) -> np.ndarray:
    """Exact Hausdorff distance between ``P(h)`` and ``P(h2)`` for each row
    h of ``H``.

    The support difference is linear on every maximal cell with gradient
    ``M_sigma^{-T} (h - h2)`` restricted to the cell's generators, so the
    maximum absolute difference over the sphere is the largest cone-cap
    maximum of the per-cell gradients, both signs probed: one
    ``cap_maxima`` call over the 2 * cells pairs (g, -g) of every row.
    ``cap_maxima`` treats each pair alone, so a row's distance does not
    depend on the other rows.  Raises ``NotInDeformationCone`` for the
    first row of H outside the cone, then for an h2 outside it;
    ``ValueError`` unless H is 2-D.
    """
    H = np.asarray(H, float)
    if H.ndim != 2:
        raise ValueError(f"support vectors must be rows, got an array of shape {H.shape}")
    rows = [_require_member(fan, h) for h in H]
    h2 = _require_member(fan, h2)
    G = np.reshape([cell_vertices(fan, h - h2) for h in rows],
                   (len(rows), fan.n_cells, fan.dim))
    cells = np.tile(np.arange(fan.n_cells), 2 * len(rows))
    pairs = np.concatenate([G, -G], axis=1).reshape(-1, fan.dim)
    return cap_maxima(fan, cells, pairs).reshape(len(rows), 2 * fan.n_cells).max(axis=1)


def hausdorff_bound(fan: SimplicialFan, h, h2) -> float:
    """Lipschitz bound ``sqrt(d) * c_delta * ||h - h2||`` on the Hausdorff
    distance; valid whenever both vectors are in the deformation cone."""
    diff = np.asarray(h, float) - np.asarray(h2, float)
    return float(np.sqrt(fan.dim) * c_delta(fan) * np.linalg.norm(diff))
