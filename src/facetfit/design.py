"""Design matrices, direction graphs, and uniqueness diagnostics.

The m measured directions turn into the m x n regression operator whose
row i holds the barycentric coefficients of direction i.  The operator is
kept in cell form: the blocks of one carrier lookup
(``fan.carrier_blocks``), each the rows carried by one cell and their d
coefficients on its generators, O(m d) memory in all; the dense m x n
matrix is made only when a caller reads it.  Each design is factored once
(``qp.triangular_factor``: one QR per block and one of the stacked
triangles when m > n), and the solver, the rank and the kernel all read
that factor.  Uniqueness of
the estimate for every right-hand side is a rank question; the bipartite
ray/sample graph gives the combinatorial counterpart (a matching touching
every ray), and per-cell coverage gives a practical sufficient condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fan import NoCarrier, SimplicialFan, carrier_blocks
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps design.carrier
from .qp import (BlockMatrix, TriangularFactor, rank_and_kernel, rank_tolerance,
                 triangular_factor)

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
        if np.any(~U.any(axis=1)):
            raise ValueError("zero direction in dataset")

    @property
    def m(self) -> int:
        return self.directions.shape[0]


@dataclass(frozen=True)
class DesignMatrix:
    """Rows are barycentric coefficient vectors; at most d nonzeros per row.

    Stored in cell form: ``blocks`` has one block per block of
    ``fan.carrier_blocks``, its rows, the generators of its cell as columns
    and the m_c x d coefficients, so memory is O(m d).  ``carrier_cells[i]``
    is the index of the maximal cell carrying direction i.  ``matrix``, the
    dense m x n scatter, is made on first read, for CLI output,
    ``direction_graph`` and tests; the reconstruction never reads it when
    m > n.  ``build_design`` makes the coefficients read-only, and
    ``matrix`` is, so the cached ``factor`` and ``rank_kernel`` cannot go
    stale.
    """

    blocks: BlockMatrix
    carrier_cells: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense m x n design, scattered from the blocks on first read."""
        matrix = self.blocks.dense()
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def operator(self) -> BlockMatrix:
        """The design as ``qp.solve_cls`` reads it: the blocks when m > n;
        when m <= n the dense ``matrix`` as one block, in the original row
        order, so that it is its own factor."""
        return self.blocks if self.m > self.n else BlockMatrix.of(self.matrix)

    @cached_property
    def factor(self) -> TriangularFactor:
        """The design's one factorization, made on first use: one QR per
        block and one of the stacked triangles when m > n, the matrix
        itself otherwise."""
        return triangular_factor(self.operator)

    @cached_property
    def rank_kernel(self) -> tuple[int, np.ndarray]:
        """``rank_and_kernel`` of the factor on first use, at the design's
        own tolerance (its column norms, which R shares), with a read-only
        kernel."""
        R = self.factor.R
        rank, kernel = rank_and_kernel(R, tol=rank_tolerance(R, self.m))
        kernel.setflags(write=False)
        return rank, kernel

    @property
    def m(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[1]


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
    """Assemble the design in cell form from one ``fan.carrier_blocks``
    lookup.

    Deterministic given fan order.  A direction outside the fan support
    raises ``NoCarrier`` with the first offending row index attached.
    """
    U = np.atleast_2d(np.asarray(directions, float))
    found = carrier_blocks(fan, U)
    generators = np.array(fan.cells)
    cells = np.full(U.shape[0], -1)
    blocks = []
    for ci, rows, lam in found:
        cells[rows] = ci
        lam.setflags(write=False)
        blocks.append((rows, generators[ci], lam))
    bad = np.flatnonzero(cells < 0)
    if bad.size:
        raise NoCarrier.for_vector(fan, U[bad[0]], row=int(bad[0]))
    return DesignMatrix(blocks=BlockMatrix(shape=(U.shape[0], fan.n_rays),
                                           blocks=tuple(blocks)),
                        carrier_cells=cells)


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

    Threshold: ``max(m, n) * eps * (largest column norm)`` of the matrix,
    read off its factor R.  Returns the design's cached ``(rank, kernel)``,
    ``kernel`` of shape ``(n - rank, n)``, from one SVD of the n x n factor
    R when m > n.
    """
    return design.rank_kernel


def _support_patterns(fan: SimplicialFan, design: DesignMatrix):
    """The distinct (carrier cell, positive support) pairs among the rows.

    Row i's support is a bitmask over the d generators of its carrier cell:
    bit k is set when the coefficient on ``fan.cells[cell][k]``, column k
    of the row's block, exceeds ``POSITIVITY_TOL`` (every other coefficient
    of the row is 0).  Returns ``(cells, masks, counts)``, one entry per
    pattern in increasing order of the key ``cell * 2^d + mask``, from one
    ``np.bincount`` of the keys of all rows.
    """
    d = fan.dim
    blocks = design.blocks.blocks
    rows = np.concatenate([rows for rows, _, _ in blocks])
    positive = np.concatenate([lam for _, _, lam in blocks]) > POSITIVITY_TOL
    keys = design.carrier_cells[rows] * (1 << d) + positive @ (1 << np.arange(d))
    counts = np.bincount(keys, minlength=fan.n_cells << d)
    keys = np.flatnonzero(counts)
    cells, masks = np.divmod(keys, 1 << d)
    return cells, masks, counts[keys]


def _pattern_graph(fan: SimplicialFan, cells, masks, counts) -> DirectionGraph:
    """The direction graph with ``min(count, |support|)`` samples kept of
    each support pattern.

    Samples with one support are interchangeable neighbours of the same
    rays, and a matching uses at most ``|support|`` of them, so the maximum
    matching keeps its size while the graph has at most
    ``n_cells * (2^d - 1)`` patterns instead of m samples.
    """
    neighbors = [[] for _ in range(fan.n_rays)]
    sample = 0
    for cell, mask, count in zip(cells.tolist(), masks.tolist(), counts.tolist()):
        support = [ray for k, ray in enumerate(fan.cells[cell]) if mask >> k & 1]
        for _ in range(min(count, len(support))):
            for ray in support:
                neighbors[ray].append(sample)
            sample += 1
    return DirectionGraph(n_rays=fan.n_rays, n_samples=sample,
                          ray_neighbors=tuple(tuple(v) for v in neighbors))


def uniqueness_report(fan: SimplicialFan, design: DesignMatrix) -> UniquenessReport:
    """Aggregate rank, matching and coverage diagnostics for a design.

    ``unique_for_all_y`` is the rank criterion; the matching size is the
    generic combinatorial counterpart and is reported separately (a
    matching of full size does not certify uniqueness for a non-generic
    direction matrix); it is taken on the support patterns
    (``_pattern_graph``), whose maximum matching has the size of the full
    direction graph's.  ``cells_covered[c]`` is True when some sample lies
    strictly inside cell c, i.e. its row has d strictly positive entries
    carried by that cell: a pattern of cell c with the full mask.
    """
    rank, kernel = numeric_rank(design)
    cells, masks, counts = _support_patterns(fan, design)
    matching = max_matching(_pattern_graph(fan, cells, masks, counts))
    covered = np.zeros(fan.n_cells, bool)
    covered[cells[masks == (1 << fan.dim) - 1]] = True
    return UniquenessReport(
        numeric_rank=rank,
        matching_size=matching.size,
        cells_covered=covered.tolist(),
        unique_for_all_y=(rank == design.n),
        kernel_basis=kernel,
    )
