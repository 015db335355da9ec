"""Ready-made fans: regular polygons, the two roof fans, cubes, random fans.

These cover the recurring geometries of the test suite and give the CLI
something to write example files from.  ``random_polytopal_fan`` builds a
fan in any dimension d >= 2 as the normal fan of a randomly generated
simple polytope, so the result is polytopal by construction; its cells
come from one pivot walk over the polytope's vertices, never from a loop
over all d-subsets of the rays.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fan import InvalidFan, SimplicialFan


def regular_polygon_fan(k: int) -> SimplicialFan:
    """Fan of the regular k-gon: unit rays at angles 2*pi*i/k, consecutive cells."""
    if k < 3:
        raise ValueError("need at least 3 rays")
    angles = 2.0 * np.pi * np.arange(k) / k
    rays = np.column_stack([np.cos(angles), np.sin(angles)])
    cells = [(i, (i + 1) % k) for i in range(k)]
    return SimplicialFan(rays, cells)


def hexagon_fan() -> SimplicialFan:
    return regular_polygon_fan(6)


_ROOF_RAYS = np.array([
    [0.0, 1.0, 1.0],
    [0.0, -1.0, 1.0],
    [1.0, 0.0, 1.0],
    [-1.0, 0.0, 1.0],
    [0.0, 0.0, -1.0],
])


def roof_fan_y() -> SimplicialFan:
    """Normal fan of the roof-shaped solid whose top ridge runs along the y axis."""
    cells = [(0, 2, 4), (1, 2, 4), (0, 3, 4), (1, 3, 4), (0, 2, 3), (1, 2, 3)]
    return SimplicialFan(_ROOF_RAYS.copy(), cells)


def roof_fan_x() -> SimplicialFan:
    """Same five rays as ``roof_fan_y`` but the ridge runs along the x axis."""
    cells = [(0, 2, 4), (1, 2, 4), (0, 3, 4), (1, 3, 4), (0, 1, 2), (0, 1, 3)]
    return SimplicialFan(_ROOF_RAYS.copy(), cells)


def cube_fan(d: int) -> SimplicialFan:
    """Normal fan of the cube [-1, 1]^d: rays +-e_i, one cell per orthant."""
    rays = np.vstack([np.eye(d), -np.eye(d)])
    cells = []
    for signs in itertools.product((0, 1), repeat=d):
        cells.append(tuple(i + d * s for i, s in enumerate(signs)))
    return SimplicialFan(rays, cells)


def orthant_fan(d: int) -> SimplicialFan:
    """Single cell spanned by the standard basis.  Not complete; only the
    per-cell operations are meaningful on it."""
    return SimplicialFan(np.eye(d), [tuple(range(d))])


_MAX_ATTEMPTS = 200   # draws of facet normals before RuntimeError


def random_polytopal_fan(d: int, n: int, seed: int) -> SimplicialFan:
    """Normal fan of a random simple polytope with n facets in R^d, any d >= 2.

    Samples unit facet normals and keeps a draw when the polytope
    ``P = {x : <v_i, x> <= 1}`` is bounded, simple and has all n facets; its
    vertex normal cones are then the maximal cells, which
    ``_pivot_walk_cells`` finds by walking the edges of P.  A draw that
    fails validation (``InvalidFan``) is redrawn, 200 draws at most; any
    other error raised by validation propagates.  The support vector of all
    ones lies strictly inside the deformation cone of the result.
    """
    if d < 2:
        raise ValueError("random fans need d >= 2")
    if n < d + 1:
        raise ValueError("need at least d+1 facet normals")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_ATTEMPTS):
        rays = rng.standard_normal((n, d))
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        cells = _pivot_walk_cells(rays)
        if cells is None:
            continue
        fan = SimplicialFan(rays, cells)
        try:
            fan.require_valid()
        except InvalidFan:
            continue
        return fan
    raise RuntimeError(f"no valid random fan after {_MAX_ATTEMPTS} attempts")


def _pivot_walk_cells(rays: np.ndarray):
    """Vertex/facet incidences of ``P = {x : rays @ x <= 1}`` if P is bounded
    and simple and uses every facet, else None; sorted, as index tuples.

    The graph of a d-polytope is connected (Balinski, 1961), so a walk
    along its edges from one vertex visits every vertex (Avis & Fukuda,
    1992).  The first vertex is reached from the interior point 0 by d
    ratio tests, each along a unit direction orthogonal to the rows already
    tight, in the sign whose blocking row comes first.  At a vertex whose
    tight rows form the cell, edge k is ``-inv(rays[cell])[:, k]``: it
    leaves row k and keeps the others tight.  One ratio test over all rows
    and edges names the row each edge enters.  Each vertex is solved and checked
    from its sorted cell (a nonsingular cell, no slack above 1e-9, exactly
    d tight rows, ``||x|| <= 1e6``); a failed check, an edge no row blocks
    (P unbounded) and an unused facet each reject the draw.
    """
    n, d = rays.shape
    tol = 1e-9
    x = np.zeros(d)
    tight: list[int] = []
    for _ in range(d):
        e = np.linalg.qr(rays[tight].T, mode="complete")[0][:, len(tight)]
        E = np.column_stack([e, -e])
        rate = rays @ E
        rate[tight] = 0.0
        step = np.divide((1.0 - rays @ x)[:, None], rate,
                         out=np.full_like(rate, np.inf), where=rate > 0.0)
        enter, sign = np.unravel_index(np.argmin(step), step.shape)
        if step[enter, sign] == np.inf:
            return None  # P contains a line
        x = x + step[enter, sign] * E[:, sign]
        tight.append(int(enter))
    start = tuple(sorted(tight))
    seen, todo = {start}, [start]
    used = np.zeros(n, bool)
    while todo:
        cell = todo.pop()
        M = rays[list(cell)]
        if abs(np.linalg.det(M)) < 1e-9:
            return None
        x = np.linalg.solve(M, np.ones(d))
        slack = rays @ x - 1.0
        if (np.max(slack) > tol or np.sum(slack > -tol) != d
                or np.linalg.norm(x) > 1e6):
            return None
        used[list(cell)] = True
        rate = rays @ -np.linalg.inv(M)
        rate[list(cell)] = 0.0
        step = np.divide(-slack[:, None], rate, out=np.full_like(rate, np.inf),
                         where=rate > 0.0)
        enter = np.argmin(step, axis=0)
        if np.any(step[enter, np.arange(d)] == np.inf):
            return None  # an unbounded edge
        for k in range(d):
            nxt = tuple(sorted(cell[:k] + cell[k + 1:] + (int(enter[k]),)))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    if not used.all():
        return None  # a redundant facet
    return sorted(seen)
