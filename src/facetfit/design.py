"""Design matrices, direction graphs, and uniqueness diagnostics.

The m measured directions turn into the m x n regression operator whose
row i holds the barycentric coefficients of direction i.  The operator is
kept in cell form: the rows of one per-row carrier lookup
(``fan.carriers``) grouped by ``build_design``, the only place that sorts
rows by cell, into blocks, each the rows carried by one cell and their d
coefficients on its generators, O(m d) memory in all; the dense m x n
matrix is made only when a caller reads it.  A design is a
``qp.BlockMatrix`` and owns its one factorization (``factor``: one QR per
block and one of the stacked triangles when m > n), and the solver, the
rank and the kernel all read it.  Uniqueness of the estimate for every
right-hand side is a rank question; the bipartite
ray/sample graph gives the combinatorial counterpart (a matching touching
every ray), and per-cell coverage gives a practical sufficient condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fan import NoCarrier, SimplicialFan, carriers
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps design.carrier
from .qp import BlockMatrix, rank_and_kernel, rank_tolerance

# Entries at or below this are treated as structural zeros when building
# graphs; carrier clamps negatives to 0 so this only guards round-off.
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Measured directions (m x d) and support evaluations (m,).

    ``design``, when given, is the design of these directions on the fan
    they will be fitted on, such as the previous fit's ``design`` for data
    measured in the same directions; ``estimator.reconstruct`` then reads
    it, with the factor it holds, instead of building its own, and refuses
    it unless it was built on that fan from directions equal to these.  The
    design holds its own copy of the directions it was built from, so
    directions written in place after the build are refused too.  It takes
    no part in comparisons and changes no bit of a result.
    """

    directions: np.ndarray
    values: np.ndarray
    design: DesignMatrix | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.directions, float))
        y = np.atleast_1d(np.asarray(self.values, float))
        if U.ndim != 2:
            raise ValueError(f"directions must be an (m, d) array; got an array "
                             f"of shape {U.shape}")
        if y.ndim != 1:
            raise ValueError(f"values must be a 1-D array; got an array of shape {y.shape}")
        object.__setattr__(self, "directions", U)
        object.__setattr__(self, "values", y)
        if U.shape[0] != y.shape[0]:
            raise ValueError("directions and values have different lengths")
        if U.shape[0] < 1:
            raise ValueError("need at least one sample")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(y))):
            raise ValueError("directions and values must be finite")
        # One pass per column, as `fan.row_min` does: much faster than a
        # reduction over each short row.  -0.0 counts as zero.
        zero = np.ones(U.shape[0], bool)
        for k in range(U.shape[1]):
            zero &= U[:, k] == 0.0
        if zero.any():
            raise ValueError("zero direction in dataset")

    @property
    def m(self) -> int:
        return self.directions.shape[0]


@dataclass(frozen=True, eq=False)
class DesignMatrix(BlockMatrix):
    """Rows are barycentric coefficient vectors; at most d nonzeros per row.

    A ``BlockMatrix`` in cell form: ``blocks`` has one block per cell and
    placement, guessed or scanned (``build_design``), its rows, the
    generators of its cell as columns and the m_c x d coefficients, so
    memory is O(m d).  ``factor`` is the design's one factorization, made
    on first read: when m > n, one thin QR per large block and one of the
    stacked triangles and small blocks; otherwise the blocks scattered into
    an m x n R, equal to ``matrix`` bit for bit.  ``carrier_cells[i]`` is
    the index of the maximal cell carrying direction i.  ``matrix``, the
    dense m x n scatter, is made on first read, for ``direction_graph`` and
    tests; neither the reconstruction, whatever m, nor the CLI reads it.
    ``build_design`` makes the coefficients read-only, and ``matrix`` is,
    so the cached ``factor`` and ``rank_kernel`` cannot go stale.  ``fan``
    is the fan ``build_design`` read and ``directions`` a read-only copy of
    the m x d directions it read, one per design, so
    ``estimator.reconstruct`` can check a design that comes with a
    ``Dataset``, even when the caller has since written to its own array; a
    design made otherwise has None.
    """

    carrier_cells: np.ndarray
    fan: SimplicialFan | None = field(default=None, repr=False)
    directions: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense m x n design, scattered from the blocks on first read."""
        matrix = self.dense()
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def rank_kernel(self) -> tuple[int, np.ndarray]:
        """The numerical rank and a read-only kernel basis of shape
        ``(n - rank, n)``, made on first read: ``rank_and_kernel`` of the
        factor R, one SVD of an n x n R when m > n, at the design's own
        tolerance ``max(m, n) eps`` times its largest column norm, which R
        shares."""
        R = self.factor.R
        rank, kernel = rank_and_kernel(R, tol=rank_tolerance(R, self.m))
        kernel.setflags(write=False)
        return rank, kernel

    @property
    def m(self) -> int:
        return self.shape[0]

    @property
    def n(self) -> int:
        return self.shape[1]


@dataclass(frozen=True)
class DirectionGraph:
    """Bipartite graph between ray indices and sample indices.

    ``ray_neighbors[i]`` lists the samples whose coefficient on ray i is
    strictly positive.
    """

    n_rays: int
    n_samples: int
    ray_neighbors: tuple[tuple[int, ...], ...]


@dataclass
class UniquenessReport:
    numeric_rank: int
    matching_size: int
    cells_covered: list[bool]
    unique_for_all_y: bool
    kernel_basis: np.ndarray


def build_design(fan: SimplicialFan, directions) -> DesignMatrix:
    """Assemble the design in cell form from one ``fan.carriers`` lookup.

    Deterministic given fan order.  A direction outside the fan support
    raises ``NoCarrier`` with the first offending row index attached.  The
    design records ``fan`` and a read-only copy of the directions.

    The one place that groups rows by cell: one stable sort of the key
    ``cell`` for the rows the vertex guess placed and ``n_cells + cell``
    for those the scan placed, kept in the smallest integer type so the
    sort is a radix sort, and one ``take`` of the coefficients.  The blocks
    are the guessed rows' in cell order, then the scanned rows' in cell
    order, each block's rows in increasing order; a cell can have a block
    of each kind, as on exact rays with Gaussian rows.  The factor stacks
    the blocks' triangles and ``tdot`` adds their products in block order,
    so merging a cell's two blocks, or any other order, would move the bits
    of ``factor`` and of every fit that reads it.
    """
    U = np.atleast_2d(np.asarray(directions, float))
    cells, lam, guessed = carriers(fan, U)
    bad = np.flatnonzero(cells < 0)
    if bad.size:
        raise NoCarrier.for_vector(fan, U[bad[0]], row=int(bad[0]))
    key = cells.astype(np.min_scalar_type(2 * fan.n_cells - 1))
    key[~guessed] += fan.n_cells
    rows = np.argsort(key, kind="stable")
    lam = lam.take(rows, axis=0)
    lam.setflags(write=False)
    ends = np.cumsum(np.bincount(key, minlength=2 * fan.n_cells)).tolist()
    generators = fan._cell_array
    blocks = tuple((rows[a:b], generators[k % fan.n_cells], lam[a:b])
                   for k, (a, b) in enumerate(zip([0] + ends, ends)) if b > a)
    # Copied last, once the lookup's per-row coefficients are freed, so the
    # copy does not raise the build's peak memory.
    U = U.copy()
    U.setflags(write=False)
    return DesignMatrix(shape=(U.shape[0], fan.n_rays), blocks=blocks,
                        carrier_cells=cells, fan=fan, directions=U)


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


def max_matching(graph: DirectionGraph) -> int:
    """Size of a maximum bipartite matching, by augmenting paths in fixed
    index order.

    Rays are processed in increasing index, neighbors likewise, so the
    matching found is deterministic for a given adjacency.  Each path is
    searched depth first on an explicit stack, so a path of any length
    fits; the search keeps no closure and leaves no reference cycle.
    """
    neighbors = graph.ray_neighbors
    match_sample = [-1] * graph.n_samples   # sample -> ray
    size = 0
    for root in range(graph.n_rays):
        seen = [False] * graph.n_samples
        # The path so far: rays[k] reaches rays[k + 1] through samples[k],
        # the sample matched to rays[k + 1]; untried[k] holds the neighbors
        # of rays[k] not yet tried.
        rays, samples, untried = [root], [], [iter(neighbors[root])]
        while untried:
            for s in untried[-1]:
                if not seen[s]:
                    break
            else:
                # No augmenting path through rays[-1]: step back.
                rays.pop()
                untried.pop()
                if samples:
                    samples.pop()
                continue
            seen[s] = True
            if match_sample[s] < 0:
                # Flip the path: each ray on it takes the next sample.
                for ray, sample in zip(rays, samples + [s]):
                    match_sample[sample] = ray
                size += 1
                break
            samples.append(s)
            rays.append(match_sample[s])
            untried.append(iter(neighbors[match_sample[s]]))
    return size


def _support_patterns(fan: SimplicialFan, design: DesignMatrix):
    """The distinct (carrier cell, positive support) pairs among the rows.

    Row i's support is a bitmask over the d generators of its carrier cell:
    bit k is set when the coefficient on ``fan.cells[cell][k]``, column k
    of the row's block, exceeds ``POSITIVITY_TOL`` (every other coefficient
    of the row is 0).  Returns ``(cells, masks, counts)``, one entry per
    pattern in increasing order of the key ``cell * 2^d + mask``.

    Counted block by block, never over a concatenation of all m rows:
    every block adds one ``np.bincount`` of its rows' masks to its cell's
    2^d counts.
    """
    d = fan.dim
    weights = 1 << np.arange(d)
    counts = np.zeros(fan.n_cells << d, np.intp)
    for rows, _, lam in design.blocks:
        # A block's rows share one carrier cell.
        base = int(design.carrier_cells[rows[0]]) << d
        counts[base:base + (1 << d)] += np.bincount((lam > POSITIVITY_TOL) @ weights,
                                                    minlength=1 << d)
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
    carried by that cell: a pattern of cell c with the full mask.  The
    patterns are counted per carrier block (``_support_patterns``), one
    ``bincount`` per block, not a pass per row.
    """
    rank, kernel = design.rank_kernel
    cells, masks, counts = _support_patterns(fan, design)
    covered = np.zeros(fan.n_cells, bool)
    covered[cells[masks == (1 << fan.dim) - 1]] = True
    return UniquenessReport(
        numeric_rank=rank,
        matching_size=max_matching(_pattern_graph(fan, cells, masks, counts)),
        cells_covered=covered.tolist(),
        unique_for_all_y=(rank == design.n),
        kernel_basis=kernel,
    )
