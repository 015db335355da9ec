"""Design matrices, direction graphs, and uniqueness diagnostics.

The m measured directions turn into the m x n regression operator whose
row i holds the barycentric coefficients of direction i; all rows come
from one stacked carrier lookup (``fan.carriers``).  Uniqueness of
the estimate for every right-hand side is a rank question; the bipartite
ray/sample graph gives the combinatorial counterpart (a matching touching
every ray), and per-cell coverage gives a practical sufficient condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fan import NoCarrier, SimplicialFan, carriers
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps design.carrier
from .qp import rank_and_kernel

# Entries at or below this are treated as structural zeros when building
# graphs; carrier clamps negatives to 0 so this only guards round-off.
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Measured directions (m x d) and support evaluations (m,)."""

    directions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.directions, float))
        y = np.atleast_1d(np.asarray(self.values, float))
        object.__setattr__(self, "directions", U)
        object.__setattr__(self, "values", y)
        if U.shape[0] != y.shape[0]:
            raise ValueError("directions and values have different lengths")
        if U.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(y))):
            raise ValueError("directions and values must be finite")
        if np.any(np.linalg.norm(U, axis=1) == 0.0):
            raise ValueError("zero direction in dataset")

    @property
    def m(self) -> int:
        return self.directions.shape[0]


@dataclass(frozen=True)
class DesignMatrix:
    """Rows are barycentric coefficient vectors; at most d nonzeros per row.

    Stored dense (desk-scale m and n); ``carrier_cells[i]`` is the index of
    the maximal cell carrying direction i.  ``build_design`` makes
    ``matrix`` read-only, so the cached ``rank_kernel`` cannot go stale.
    """

    matrix: np.ndarray
    carrier_cells: np.ndarray

    @cached_property
    def rank_kernel(self) -> tuple[int, np.ndarray]:
        """``rank_and_kernel(matrix)`` on first use, with a read-only kernel."""
        rank, kernel = rank_and_kernel(self.matrix)
        kernel.setflags(write=False)
        return rank, kernel

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class DirectionGraph:
    """Bipartite graph between ray indices and sample indices.

    ``ray_neighbors[i]`` lists the samples whose coefficient on ray i is
    strictly positive.
    """

    n_rays: int
    n_samples: int
    ray_neighbors: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Matching:
    size: int


@dataclass
class UniquenessReport:
    numeric_rank: int
    matching_size: int
    cells_covered: list[bool]
    unique_for_all_y: bool
    kernel_basis: np.ndarray


def build_design(fan: SimplicialFan, directions) -> DesignMatrix:
    """Assemble the design matrix from one stacked carrier lookup.

    Deterministic given fan order.  A direction outside the fan support
    raises ``NoCarrier`` with the first offending row index attached.
    """
    U = np.atleast_2d(np.asarray(directions, float))
    cells, matrix = carriers(fan, U)
    bad = np.flatnonzero(cells < 0)
    if bad.size:
        raise NoCarrier.for_vector(fan, U[bad[0]], row=int(bad[0]))
    matrix.setflags(write=False)
    return DesignMatrix(matrix=matrix, carrier_cells=cells)


def direction_graph(design: DesignMatrix) -> DirectionGraph:
    """Ray/sample adjacency from strict positivity of the coefficients."""
    neighbors = tuple(tuple(np.flatnonzero(col > POSITIVITY_TOL).tolist())
                      for col in design.matrix.T)
    return DirectionGraph(n_rays=design.n, n_samples=design.m,
                          ray_neighbors=neighbors)


def ray_facet_graph(fan: SimplicialFan) -> DirectionGraph:
    """Incidence graph between rays and maximal cells of the fan itself."""
    fan.require_valid()
    neighbors = [[] for _ in range(fan.n_rays)]
    for ci, cell in enumerate(fan.cells):
        for i in cell:
            neighbors[i].append(ci)
    return DirectionGraph(n_rays=fan.n_rays, n_samples=fan.n_cells,
                          ray_neighbors=tuple(tuple(v) for v in neighbors))


def max_matching(graph: DirectionGraph) -> Matching:
    """Maximum bipartite matching by augmenting paths in fixed index order.

    Rays are processed in increasing index, neighbors likewise, so the
    returned matching is deterministic for a given adjacency.
    """
    match_ray = [-1] * graph.n_rays      # ray -> sample
    match_sample = [-1] * graph.n_samples
    size = 0
    for ray in range(graph.n_rays):
        if _augment(graph.ray_neighbors, ray, [False] * graph.n_samples,
                    match_ray, match_sample):
            size += 1
    return Matching(size=size)


def _augment(neighbors, ray: int, seen: list[bool], match_ray: list[int],
             match_sample: list[int]) -> bool:
    """Extend the matching by an augmenting path from ``ray``, if one exists.

    A module-level function, not a closure: a recursive closure refers to
    itself, and the cycle would keep each call's graph alive until the
    garbage collector runs.
    """
    for s in neighbors[ray]:
        if seen[s]:
            continue
        seen[s] = True
        if match_sample[s] < 0 or _augment(neighbors, match_sample[s], seen,
                                           match_ray, match_sample):
            match_ray[ray] = s
            match_sample[s] = ray
            return True
    return False


def numeric_rank(design: DesignMatrix):
    """Numerical rank of the design and a kernel basis when rank < n.

    Threshold: ``max(m, n) * eps * (largest column norm)``.  Returns the
    design's cached ``(rank, kernel)``, ``kernel`` of shape ``(n - rank, n)``.
    """
    return design.rank_kernel


def uniqueness_report(fan: SimplicialFan, design: DesignMatrix) -> UniquenessReport:
    """Aggregate rank, matching and coverage diagnostics for a design.

    ``unique_for_all_y`` is the rank criterion; the matching size is the
    generic combinatorial counterpart and is reported separately (a
    matching of full size does not certify uniqueness for a non-generic
    direction matrix).  ``cells_covered[c]`` is True when some sample lies
    strictly inside cell c, i.e. its row has d strictly positive entries
    carried by that cell.
    """
    rank, kernel = numeric_rank(design)
    matching = max_matching(direction_graph(design))
    interior = np.count_nonzero(design.matrix > POSITIVITY_TOL, axis=1) == fan.dim
    covered = np.zeros(fan.n_cells, bool)
    covered[design.carrier_cells[interior]] = True
    return UniquenessReport(
        numeric_rank=rank,
        matching_size=matching.size,
        cells_covered=covered.tolist(),
        unique_for_all_y=(rank == design.n),
        kernel_basis=kernel,
    )
