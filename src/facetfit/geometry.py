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
from .fan import (SimplicialFan, c_delta, carrier, cell_vertices,
                  max_linear_over_cone_cap)


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
    """Smallest wall value ``min(B h)``; nonnegative inside the cone."""
    walls = fan.wall_system.matrix
    if walls.shape[0] == 0:
        return 0.0
    return float(np.min(walls @ np.asarray(h, float)))


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
    assigned = [-1] * fan.n_cells
    groups: list[list[int]] = []
    for i in range(fan.n_cells):
        if assigned[i] >= 0:
            continue
        group = [i]
        assigned[i] = i
        for j in range(i + 1, fan.n_cells):
            if assigned[j] < 0 and np.linalg.norm(points[i] - points[j]) <= tol:
                assigned[j] = i
                group.append(j)
        if len(group) > 1:
            groups.append(group)
    return VertexMap(points=points,
                     merged_groups=tuple(tuple(g) for g in groups))


def support_value(fan: SimplicialFan, h, u) -> float:
    """Support-function value ``h_P(u) = <h, [u]>`` of ``P(h)`` at ``u``."""
    h = np.asarray(h, float)
    return float(h @ carrier(fan, u).coeffs)


def is_irredundant(fan: SimplicialFan, h) -> list[bool]:
    """Per ray: is the bound ``h_i`` attained on ``P(h)``?

    Entry i is True when ``h_i`` equals the true support value of ``P(h)``
    at ray i, i.e. the i-th inequality touches the polytope.  Inside the
    deformation cone every entry is attained and the vertex map answers
    directly; outside it (a compatible but dishonest ``h``) the support
    values are obtained by one linear program per ray.  Raises
    ``NotInDeformationCone`` when ``P(h)`` is empty.
    """
    h = np.asarray(h, float)
    tol = 1e-8 * (1.0 + np.linalg.norm(h))
    if is_deformation(fan, h):
        pts = vertices(fan, h).points
        best = (pts @ fan.rays.T).max(axis=0)
    else:
        best = np.empty(fan.n_rays)
        for i in range(fan.n_rays):
            try:
                sol = qp.solve_affine_lp(-fan.rays[i], B=-fan.rays, b=-h)
            except qp.Infeasible:
                raise NotInDeformationCone(
                    "P(h) is empty; h is not a compatible vector") from None
            best[i] = -sol.objective
    return [bool(h[i] - best[i] <= tol) for i in range(fan.n_rays)]


def minkowski_add(fan: SimplicialFan, h, h2) -> np.ndarray:
    """Support vector of the Minkowski sum ``P(h) + P(h2)``."""
    h = _require_member(fan, h)
    h2 = _require_member(fan, h2)
    return h + h2


def hausdorff(fan: SimplicialFan, h, h2) -> float:
    """Exact Hausdorff distance between ``P(h)`` and ``P(h2)``.

    The support difference is linear on every maximal cell with gradient
    ``M_sigma^{-T} (h - h2)`` restricted to the cell's generators, so the
    maximum absolute difference over the sphere is the largest cone-cap
    maximum of the per-cell gradients, both signs probed.
    """
    h = _require_member(fan, h)
    h2 = _require_member(fan, h2)
    best = 0.0
    for ci, g in enumerate(cell_vertices(fan, h - h2)):
        best = max(best,
                   max_linear_over_cone_cap(fan, ci, g),
                   max_linear_over_cone_cap(fan, ci, -g))
    return float(best)


def hausdorff_bound(fan: SimplicialFan, h, h2) -> float:
    """Lipschitz bound ``sqrt(d) * c_delta * ||h - h2||`` on the Hausdorff
    distance; valid whenever both vectors are in the deformation cone."""
    diff = np.asarray(h, float) - np.asarray(h2, float)
    return float(np.sqrt(fan.dim) * c_delta(fan) * np.linalg.norm(diff))
