"""Complete simplicial polytopal fans and their basic queries.

A fan is given by its ray generators and the maximal cells (index d-subsets
of rays).  Everything downstream — membership inequalities for the
deformation cone, the sparse regression operator, exact Hausdorff
distances — reduces to three queries implemented here: the carriers of a
stack of directions with their barycentric coefficients, the wall-crossing
inequality system, and exact maxima of linear functions over cone caps.
Carrier lookups loop over the cells, never over the directions: each
direction's cell is guessed from the vertices of one polytope with the fan's
rays as facet normals (the argmax of one matrix product per chunk of rows)
and verified, and the directions a guess cannot place go through a
fan-order scan that applies each cell's inverse to every direction still
without a carrier.  Both take their coefficients from
``coefficients``, which sums each one left to right in elementwise passes
over all rows, never by a BLAS call per row.  ``carriers`` answers per
row, in the caller's row order: each row's cell, its d coefficients on
that cell's generators and whether the guess placed it; only
``design.build_design`` groups the rows into cell blocks.  ``carrier``
is its call on one row.  Cone-cap maxima likewise loop over
the faces of a cell, never over the queries: ``cap_maxima`` evaluates any
number of (cell, vector) pairs against a per-fan table of face projectors
built on first use.  Directions and cap vectors must be finite.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import qp


class InvalidFan(Exception):
    """Raised when an operation is asked to use a fan that failed validation."""


class NoCarrier(Exception):
    """No maximal cell admits nonnegative coefficients for the query vector.

    Signals an incomplete or invalid fan (or a zero query).  ``row`` is set
    when raised while assembling a design matrix.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row

    @classmethod
    def for_vector(cls, fan: SimplicialFan, u, row: int | None = None) -> NoCarrier:
        """The error for a vector ``u`` that ``carriers`` left without a
        cell; with ``row`` set, the message names the row of a stacked
        lookup."""
        if row_norms(np.asarray(u, float)[None])[0] == 0.0:
            reason = "zero vector has no carrier"
        else:
            reason = f"no cell of {fan!r} admits nonnegative coefficients"
        if row is None:
            return cls(reason)
        return cls(f"row {row}: {reason}", row=row)


class DegenerateWall(InvalidFan):
    """The dependence solve across a wall is rank-deficient (collinear rays).

    An ``InvalidFan``: a fan can pass ``validate`` and still have a wall
    whose dependence cannot be solved, such as one whose cells are nearly
    flat, and no result can be computed on it.
    """


@dataclass(frozen=True)
class BarycentricVector:
    """Coefficients of a vector in the generators of its carrier cell.

    ``coeffs`` is a length-n vector with at most d nonzero entries, all
    nonnegative, supported on the generator set of ``cell_index``.
    """

    cell_index: int
    coeffs: np.ndarray


@dataclass(frozen=True)
class WallCrossingSystem:
    """Inequality system ``matrix @ h >= 0`` cutting out the deformation cone.

    One row per unordered pair of adjacent maximal cells, in lexicographic
    pair order; ``pairs[k]`` records the two cell indices behind row k.
    Each row has at most d+1 nonzeros and the coefficients of the two
    non-shared generators sum to 2 exactly.
    """

    matrix: np.ndarray
    pairs: tuple[tuple[int, int], ...]

    @property
    def n_walls(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class FanConstants:
    """What carrier lookups read from a fan: cell generator inverses, ray
    norms, and the vertices and margins behind the carrier guess.

    ``cell_inverses`` is the fan's one stacked generator table, a
    C-contiguous (cells, d, d) array whose entry c is the inverse of the
    d x d matrix with cell c's generators as columns.

    ``vertices[c]`` is the vertex ``x_c = inv_cᵀ h°_c`` of the polytope
    ``P(h°) = {x : <v_i, x> <= ||v_i||}``, whose facet normals are the rays
    and which circumscribes the unit ball; it solves ``<v_i, x> = ||v_i||``
    for the d rays i of cell c.  The guess for a row u is the cell whose
    vertex maximizes ``<u, x_c>``, the first on ties: the argmax of one
    product of a chunk of rows with all the vertices, so the guess takes
    O(chunk cells) memory (``_vertex_labels``).

    ``guess_margins[c]`` is ``2 d max ||v|| max_k ||inv_c[k]||``:
    ``carriers`` accepts a guess of cell c for u when every
    coefficient of u in c is at least ``guess_margins[c]`` times the scan
    tolerance of u.  The coefficients are those of ``coefficients``, each
    summed left to right, so each is within
    ``γ_d ||inv_c[k]|| ||u|| <= d eps ||inv_c[k]|| ||u||`` of its exact
    value (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §3.1).  The margins are infinite, so no guess is accepted, when that
    bound can exceed half the scan tolerance (``carriers`` derives both).

    The coefficient bound is not here: ``c_delta`` computes it on its first
    call, since only the convergence bound and ``hausdorff_bound`` read it.
    """

    cell_inverses: np.ndarray
    ray_norms: np.ndarray
    vertices: np.ndarray
    guess_margins: np.ndarray


@dataclass(frozen=True)
class _RidgeTable:
    """The fan's ridges, from its cells alone: read by ``validate``'s
    complex check and by ``wall_crossings``.

    Entry (c, k) of the table is cell c less its k-th generator: its ridge,
    the other d-1 generators sorted, and its apex, the k-th.  The entries
    are sorted by ridge, then by cell, so the cells of each ridge sit next
    to each other.  ``starts`` and ``counts`` give each distinct ridge's
    first entry and its number of cells.  ``paired`` holds the first entry
    p of every ridge in exactly two cells, ``owner[p] < owner[p + 1]``, in
    lexicographic order of those two cells; the apexes of the pair are
    ``apex[p]`` and ``apex[p + 1]``, and ``position[p]`` is the place of
    ``apex[p]`` among the generators of its cell.
    """

    ridges: np.ndarray
    apex: np.ndarray
    position: np.ndarray
    owner: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    paired: np.ndarray


@dataclass
class ValidationReport:
    cells_independent: bool
    positively_spanning: bool
    rays_distinct: bool
    ray_incidence: bool
    single_cover: bool
    complex_check: bool | None = None
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        checks = [self.cells_independent, self.positively_spanning,
                  self.rays_distinct, self.ray_incidence, self.single_cover]
        if self.complex_check is not None:
            checks.append(self.complex_check)
        return all(checks)


class SimplicialFan:
    """A complete simplicial fan in R^d with n rays and explicit maximal cells.

    ``rays`` is an (n, d) array with d >= 2, and ``dim`` is its width d;
    ``cells`` lists d-subsets of ray indices.  Rays need not be unit
    length.  ``rays`` is a read-only copy of the input, so the cached
    inverses cannot go stale.  Validation, the ridge table, the wall
    system, the constants, the cone-cap face table and ``c_delta`` are
    each computed when first read and cached; a validated fan is immutable
    and safe for concurrent readers.
    """

    def __init__(self, rays, cells):
        self.rays = np.array(rays, float)
        if self.rays.ndim != 2:
            raise ValueError("rays must be an (n, d) array")
        if not np.all(np.isfinite(self.rays)):
            raise ValueError("rays must be finite")
        self.rays.setflags(write=False)
        self.dim = self.rays.shape[1]
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        self.cells = tuple(tuple(_index(i, "cell index") for i in cell) for cell in cells)
        n = self.rays.shape[0]
        for cell in self.cells:
            if len(cell) != self.dim or len(set(cell)) != self.dim:
                raise ValueError(f"cell {cell} is not a d-subset of ray indices")
            if any(i < 0 or i >= n for i in cell):
                raise ValueError(f"cell {cell} has an out-of-range ray index")
        self._validation: ValidationReport | None = None

    # -- basic shape -------------------------------------------------------
    @property
    def n_rays(self) -> int:
        return self.rays.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    # -- caches --------------------------------------------------------------
    @functools.cached_property
    def constants(self) -> FanConstants:
        return _build_constants(self)

    @functools.cached_property
    def wall_system(self) -> WallCrossingSystem:
        return wall_crossings(self)

    @functools.cached_property
    def _cell_array(self) -> np.ndarray:
        """The cells as a read-only (cells, d) integer array."""
        cells = np.array(self.cells, int).reshape(-1, self.dim)
        cells.setflags(write=False)
        return cells

    @functools.cached_property
    def _inverses(self) -> tuple[np.ndarray, np.ndarray]:
        """``(inverses, independent)``: the one independence test, read by
        ``validate``, and the stacked generator table, read by the
        single-cover and ridge checks, the constants and ``cell_vertices``.
        Cell c's generators, the columns of ``M_c``, are independent when
        ``|det M_c|`` exceeds 1e-12 times the product of their norms;
        ``inverses`` is a C-contiguous (cells, d, d) array holding
        ``inv(M_c)`` there and zeros elsewhere.  One ``det`` and one ``inv``
        call over the stack."""
        M = self.rays[self._cell_array].transpose(0, 2, 1)
        scale = np.prod(np.linalg.norm(M, axis=1), axis=1)
        independent = np.abs(np.linalg.det(M)) > 1e-12 * np.maximum(scale, 1e-300)
        inverses = np.zeros(M.shape)
        inverses[independent] = np.linalg.inv(M[independent])
        return inverses, independent

    @functools.cached_property
    def _ridges(self) -> _RidgeTable:
        return _build_ridges(self)

    @functools.cached_property
    def _cap_faces(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """What ``cap_maxima`` reads from the fan, built on first read (not
        in ``FanConstants``, so that validation and carrier lookups never
        pay for it).  The cell inverses are not here: ``cap_maxima``
        reads ``FanConstants.cell_inverses``.

        One entry ``(generators, projectors, usable)`` per proper nonempty
        subset S of a cell's d generator positions, in
        ``itertools.combinations`` order by size: ``generators[c]`` is the
        d x |S| matrix G_S of cell c's generators at S, ``projectors[c]``
        is ``(G_Sᵀ G_S)⁻¹ G_Sᵀ``, which maps r to the coefficients of its
        projection onto span(G_S), and ``usable[c]`` is False where that
        Gram matrix is singular (its projector is then zero, and that face
        is skipped).
        """
        return _build_cap_faces(self)

    @functools.cached_property
    def _c_delta(self) -> float:
        return _c_delta_exact(self)

    def require_valid(self):
        if self._validation is None:
            validate(self)
        if not self._validation.ok:
            raise InvalidFan("fan failed validation: "
                             + "; ".join(self._validation.messages))

    def __repr__(self):
        return (f"SimplicialFan(dim={self.dim}, rays={self.n_rays}, "
                f"cells={self.n_cells})")


def _index(value, what: str) -> int:
    """``operator.index`` refusing bools: a float, even 2.0, is not truncated."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return operator.index(value)


def _build_constants(fan: SimplicialFan) -> FanConstants:
    invs, independent = fan._inverses
    if not independent.all():
        cell = fan.cells[np.argmin(independent)]
        raise InvalidFan(f"cell {cell} has numerically dependent generators")
    norms = np.linalg.norm(fan.rays, axis=1)
    inv_norms = row_norms(invs.reshape(-1, fan.dim)).reshape(fan.n_cells, fan.dim).max(axis=1)
    # A length-d sum of products, summed left to right, rounds by at most
    # gamma_d |a|·|b| <= d eps ||a|| ||b||; the guess is sound while that
    # stays within half the scan tolerance for every cell.
    rounding = fan.dim * np.finfo(float).eps * inv_norms.max() * norms.min()
    if rounding <= 0.5 * CARRIER_RTOL:
        margins = 2.0 * fan.dim * norms.max() * inv_norms
    else:
        margins = np.full(fan.n_cells, np.inf)
    return FanConstants(cell_inverses=invs, ray_norms=norms,
                        vertices=cell_vertices(fan, norms), guess_margins=margins)


def cell_vertices(fan: SimplicialFan, h) -> np.ndarray:
    """Row c is ``inv_cᵀ h_c``, where the facets ``<v_i, x> = h_i`` of cell
    c's rays meet: a vertex of ``P(h)`` when h is in the deformation cone.
    The cells must be independent (``validate`` checks it).  A stack of
    support vectors (..., n) gives a stack (..., cells, d), in one product
    that rounds as ``inv_c.T @ h_c`` does, cell by cell and row by row."""
    h = np.asarray(h, float)
    return np.matmul(fan._inverses[0].transpose(0, 2, 1), h[..., fan._cell_array, None])[..., 0]


# ---------------------------------------------------------------------------
# Carrier lookup
# ---------------------------------------------------------------------------

CARRIER_RTOL = 1e-9


def as_rows(fan: SimplicialFan, X, what: str) -> np.ndarray:
    """``X`` as a float array of rows of width ``fan.dim``; ``ValueError``
    naming ``what`` for any other shape or a non-finite entry."""
    X = np.asarray(X, float)
    if X.ndim != 2 or X.shape[1] != fan.dim:
        raise ValueError(f"{what} must be rows of width {fan.dim}, the fan's "
                         f"dimension; got an array of shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{what} must be finite")
    return X


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm``
    of the row alone (``np.linalg.norm(X, axis=1)`` is not) wherever the
    sum of squares neither underflows to 0 nor overflows.  A row whose sum
    does, with finite nonzero entries, is scaled by the power of 2 nearest
    above its largest entry before squaring, so its norm is that scale
    times the norm of the scaled row."""
    with np.errstate(over="ignore"):
        sq = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]
    norms = np.sqrt(sq)
    odd = np.flatnonzero((sq == 0.0) | (sq == np.inf))
    if odd.size:
        top = np.abs(X[odd]).max(axis=1)
        keep = (top > 0.0) & (top < np.inf)
        odd, exp = odd[keep], np.frexp(top[keep])[1]
        norms[odd] = np.ldexp(row_norms(np.ldexp(X[odd], -exp[:, None])), exp)
    return norms


def row_min(X: np.ndarray) -> np.ndarray:
    """Smallest entry of each row, equal bit for bit to ``X.min(axis=1)``:
    a column-wise ``np.minimum``, which is exact and much faster than a
    reduction over a short axis."""
    out = X[:, 0].copy()
    for k in range(1, X.shape[1]):
        np.minimum(out, X[:, k], out=out)
    return out


def coefficients(inverses: np.ndarray, cells, U: np.ndarray) -> np.ndarray:
    """Row i is ``λ = inv u``, the coefficients of row u = ``U[i]`` on the
    generators of its cell, with ``inv = inverses[cells]`` for one cell
    index ``cells`` or ``inverses[cells[i]]`` for an array of them.

    Each ``λ_j = Σ_k inv[j, k] u_k`` is summed left to right, as one loop
    over u would sum it, by d² elementwise multiply and add passes over all
    rows at once; an array of cells gathers one entry of each row's inverse
    per pass, never a (rows, d, d) stack.  The bits depend on no BLAS kernel,
    and each λ_j is within ``γ_d |inv[j]|·|u|`` of the exact value, with
    ``γ_d = d (eps/2) / (1 - d eps/2) <= d eps`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, §3.1).  An overflow gives inf or
    nan silently, as a matrix product would.  Returns a C-contiguous
    (rows, d) array."""
    cells = np.asarray(cells, np.intp)
    out = np.empty(U.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(U.shape[1]):
            lam = out[:, j]
            np.multiply(inverses[:, j, 0].take(cells), U[:, 0], out=lam)
            for k in range(1, U.shape[1]):
                # One cell takes a scalar, which `*=` replaces by a new array.
                term = inverses[:, j, k].take(cells)
                term *= U[:, k]
                lam += term
    return out


def carriers(fan: SimplicialFan, U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The carrier of each row of ``U``, in the rows' order.

    Returns ``(cells, lam, guessed)``: ``cells`` is an int64 array of shape
    (m,) holding the carrier cell of each row, or -1 for a zero row or a
    row no cell admits; row i of the (m, d) array ``lam`` holds the d
    coefficients of ``U[i]`` on the generators ``fan.cells[cells[i]]``, in
    that order, and is not meaningful where ``cells[i]`` is -1; ``guessed``
    is True where the vertex guess placed the row and False where the
    fan-order scan (``_scan``) placed it or nothing did.  Callers that need
    only a per-row test on the coefficients (the rejection sampler's
    membership rule) read the d columns and never build the dense (m, n)
    matrix; ``design.build_design`` groups the rows into cell blocks.

    The result is that of a scan over the cells in fan order: a row takes
    the first cell whose coefficients, from ``coefficients`` (summed left
    to right), are all at least ``-tau(u)``, with
    ``tau(u) = 1e-9 ||u|| / min ||v_i||``, so vectors on a wall resolve
    deterministically.  Coefficients within that tolerance below zero are
    clamped to 0.

    Most rows skip the scan.  When the fan is the normal fan of a polytope
    P, the cell holding u is the normal cone of the vertex of P that
    maximizes ``<u, x>`` (Ziegler, *Lectures on Polytopes*, 7.1), so each
    row's cell g is guessed as the argmax of ``<u, x_c>`` over the vertices
    ``x_c`` of ``P(h°)``, ``h°`` the ray norms (``FanConstants.vertices``),
    the first on ties: one product of a chunk of rows with all the vertices
    and one ``argmax`` per chunk, each chunk holding a fixed number of
    scores (``_vertex_labels``), so memory is O(chunk cells), never an
    (m, cells) score matrix.  The guess is accepted only when every
    coefficient of u in g is at least the margin
    ``mu_g(u) = 2 tau(u) d max ||v|| max_k ||inv_g[k]||``.
    Derivation: if u fitted another cell c within tau, raising its negative
    coefficients in c to 0 would move u by at most ``d tau max ||v||`` to a
    point w of c, and each coefficient of w in g would differ from u's by at
    most ``max_k ||inv_g[k]|| d tau max ||v||``, so w would lie inside g and
    in c, which cells that meet only on their boundaries exclude.  The
    factor 2 absorbs the rounding of the coefficients in g and of the scan's
    test in c, each at most ``γ_d ||inv[k]|| ||u||`` (see ``coefficients``),
    which ``FanConstants`` bounds by ``tau / 2`` (no guess is accepted on a
    fan where it cannot).  So no other cell passes the scan's test, and an
    accepted row gets the scan's cell and the scan's coefficients, which
    the margin test has already computed with the same ``coefficients``.

    Zero rows, rows under the margin and wrong guesses, which arise when
    ``h°`` is not inside the fan's type cone (the roof fans have it on the
    boundary), go to the fan-order scan.  Cells, coefficients and rows
    without a carrier are therefore bit-identical to the scan of every row,
    assuming only that the cells meet only on their boundaries, which
    ``validate`` checks; correctness never depends on ``h°``.
    """
    fan.require_valid()
    U = as_rows(fan, U, "directions")
    consts = fan.constants
    # The norms become the tolerances in place, rounded as
    # `CARRIER_RTOL * norms / min ||v_i||` is, to keep one (m,) array fewer.
    tol = row_norms(U)
    nonzero = tol != 0.0
    tol *= CARRIER_RTOL
    tol /= max(float(np.min(consts.ray_norms)), 1e-300)
    guess = _vertex_labels(consts.vertices, U)
    lam = coefficients(consts.cell_inverses, guess, U)
    with np.errstate(invalid="ignore"):   # an infinite margin times tol = 0
        sure = row_min(lam) >= consts.guess_margins[guess] * tol
    # Rows whose tolerance underflows or overflows are left to the scan.
    guessed = sure & (tol > 0.0) & (tol < np.inf)
    cells = np.full(U.shape[0], -1, np.int64)
    cells[guessed] = guess[guessed]
    _scan(fan, U, np.flatnonzero(nonzero & ~guessed), tol, cells, lam)
    return cells, lam, guessed


def vertex_max(vertices: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``max_c <u, x_c>`` over the rows ``x_c`` of ``vertices``, for each row
    u of ``U``: a running maximum over the vertices, so memory stays O(m)
    and no (m, cells) score matrix is made."""
    best = U @ vertices[0]
    for x in vertices[1:]:
        np.maximum(best, U @ x, out=best)
    return best


# Score entries per row chunk of the guess: each chunk's (rows, cells)
# product holds about this many, 512 kB, whatever the number of cells.
_LABEL_WORK = 2 ** 16


def _vertex_labels(vertices: np.ndarray, U: np.ndarray) -> np.ndarray:
    """For each row u of ``U``, the index of the vertex that maximizes
    ``<u, x>``, the first on ties: per chunk of ``_LABEL_WORK // cells``
    rows, one product with all the vertices and one ``argmax`` over each
    row of its scores, so memory stays O(chunk cells + m)."""
    # The smallest integer type: a stable sort of 8- or 16-bit labels is a
    # radix sort.
    labels = np.empty(U.shape[0], np.min_scalar_type(len(vertices) - 1))
    # A C-contiguous (d, cells) operand: numpy's product with the transposed
    # view is several times slower at a few cells.
    columns = np.ascontiguousarray(vertices.T)
    chunk = max(1, _LABEL_WORK // len(vertices))
    for start in range(0, U.shape[0], chunk):
        labels[start:start + chunk] = np.argmax(U[start:start + chunk] @ columns, axis=1)
    return labels


def _scan(fan: SimplicialFan, U: np.ndarray, rows: np.ndarray, tol: np.ndarray,
          cells: np.ndarray, lam: np.ndarray) -> None:
    """The fan-order scan of ``carriers`` on ``U[rows]``, writing each
    placed row's cell into ``cells`` and its clamped coefficients into
    ``lam``.  Each pass applies one cell's inverse, by ``coefficients``, to
    every row still without a carrier; a row takes the first cell whose
    coefficients are all at least ``-tol``."""
    inverses = fan.constants.cell_inverses
    for ci in range(fan.n_cells):
        if rows.size == 0:
            break
        found = coefficients(inverses, ci, U.take(rows, axis=0))
        fits = row_min(found) >= -tol[rows]
        cells[rows[fits]] = ci
        lam[rows[fits]] = np.maximum(found[fits], 0.0)
        rows = rows[~fits]


def carrier(fan: SimplicialFan, u) -> BarycentricVector:
    """Barycentric coefficients of ``u`` in its carrier cell: row 0 of
    ``carriers`` on the one row ``u``, scattered into a length-n vector.
    Raises ``NoCarrier`` for a zero ``u`` or one outside every cell."""
    u = np.asarray(u, float)
    cells, lam, _ = carriers(fan, u[None])
    if cells[0] < 0:
        raise NoCarrier.for_vector(fan, u)
    coeffs = np.zeros(fan.n_rays)
    coeffs[list(fan.cells[cells[0]])] = lam[0]
    return BarycentricVector(cell_index=int(cells[0]), coeffs=coeffs)


# ---------------------------------------------------------------------------
# Wall crossings
# ---------------------------------------------------------------------------

def _build_ridges(fan: SimplicialFan) -> _RidgeTable:
    """The ridge table of ``fan.cells``: one sort of the cells' d ridges
    each, then neighbouring entries compared, never a loop over pairs of
    cells."""
    d = fan.dim
    cells = fan._cell_array
    drop = np.array([[i for i in range(d) if i != k] for k in range(d)])
    ridges = np.sort(cells[:, drop], axis=2).reshape(-1, d - 1)
    # Entry c d + k is (c, k); the sort is stable, so within a ridge the
    # entries stay in cell order.
    order = np.lexsort(ridges.T[::-1])
    ridges, apex = ridges[order], cells.reshape(-1)[order]
    owner, position = np.divmod(order, d)
    new = np.ones(len(ridges), bool)
    new[1:] = (ridges[1:] != ridges[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(ridges)))
    paired = starts[counts == 2]
    paired = paired[np.lexsort((owner[paired + 1], owner[paired]))]
    return _RidgeTable(ridges=ridges, apex=apex, position=position, owner=owner,
                       starts=starts, counts=counts, paired=paired)


def wall_crossings(fan: SimplicialFan) -> WallCrossingSystem:
    """Inequality rows for all adjacent maximal-cell pairs.

    Two cells are adjacent when they share exactly d-1 generators, a ridge;
    on a validated fan every ridge lies in exactly two cells, so the pairs
    are those of the fan's ridge table, in lexicographic pair order, never
    found by a loop over all pairs of cells.  For each pair (a, b) the row
    is the unique linear dependence on the d+1 involved rays
    ``[j1, j2, *shared]``, j1 and j2 the generators of a and b off the
    ridge, normalized so that the coefficients of j1 and j2 sum to 2.  One
    batched SVD checks every dependence system for rank (``DegenerateWall``
    names the first pair that fails) and one batched solve gives all rows.
    """
    fan.require_valid()
    n, d = fan.n_rays, fan.dim
    table = fan._ridges
    first, second = table.paired, table.paired + 1
    a, b = table.owner[first], table.owner[second]
    involved = np.column_stack([table.apex[first], table.apex[second],
                                table.ridges[first]])
    # Unknown coefficients c over `involved`: sum c_j v_j = 0 and
    # c_{j1} + c_{j2} = 2.
    system = np.zeros((len(involved), d + 1, d + 1))
    system[:, :d, :] = fan.rays[involved].transpose(0, 2, 1)
    system[:, d, :2] = 1.0
    rhs = np.zeros((len(involved), d + 1, 1))
    rhs[:, d] = 2.0
    smin = np.linalg.svd(system, compute_uv=False)[:, -1]
    bad = np.flatnonzero(smin <= 1e-10 * np.abs(system).max(axis=(1, 2)))
    if bad.size:
        raise DegenerateWall(f"wall between cells {a[bad[0]]} and {b[bad[0]]} "
                             f"has a rank-deficient dependence")
    coeff = np.linalg.solve(system, rhs)[..., 0]
    coeff *= (2.0 / (coeff[:, 0] + coeff[:, 1]))[:, None]  # make the normalization exact
    matrix = np.zeros((len(involved), n))
    matrix[np.arange(len(involved))[:, None], involved] = coeff
    return WallCrossingSystem(matrix=matrix, pairs=tuple(zip(a.tolist(), b.tolist())))


# ---------------------------------------------------------------------------
# Exact maximization of a linear function over a cone cap
# ---------------------------------------------------------------------------

def _build_cap_faces(fan: SimplicialFan) -> tuple:
    generators = fan.rays[fan._cell_array].transpose(0, 2, 1)
    faces = []
    for size in range(1, fan.dim):
        for subset in itertools.combinations(range(fan.dim), size):
            G = generators[:, :, list(subset)]
            Gt = G.transpose(0, 2, 1)
            gram = np.matmul(Gt, G)
            # A zero determinant is a zero pivot of the LU that `solve` uses.
            usable = np.linalg.det(gram) != 0.0
            projectors = np.zeros((fan.n_cells, size, fan.dim))
            projectors[usable] = np.linalg.solve(gram[usable], Gt[usable])
            faces.append((G, projectors, usable))
    return tuple(faces)


def cap_maxima(fan: SimplicialFan, cells, R) -> np.ndarray:
    """Exact ``max{<r, u> : u in cell, ||u|| <= 1}`` for each pair
    ``(cells[i], R[i])``.

    If the normalized r lies in the cell (every coefficient of r in the
    cell at least ``-1e-12 ||r||``) the spherical maximizer is feasible and
    the value is ``||r||``.  Otherwise the maximizer sits on a proper face,
    so r is projected onto each face span and the projection's norm is kept
    when the projection is longer than ``1e-14 ||r||`` and lies in the face
    cone (coefficients at least ``-1e-12`` times its norm).  The apex
    contributes 0, which is the floor of every value.  ``ValueError`` for
    a cell index that is not an integer (a bool or a float is not) or is
    outside 0..n_cells-1.

    One sweep over the fan's cached ``_cap_faces`` evaluates every pair
    outside its cell, so the Python loop runs over the ``2^d - 2`` proper
    faces of a cell, never over the pairs.
    """
    cells = np.asarray(cells)
    R = as_rows(fan, R, "vectors")
    if cells.shape != (R.shape[0],):
        raise ValueError(f"{R.shape[0]} vectors need as many cells, "
                         f"got an array of shape {cells.shape}")
    if cells.size and cells.dtype.kind not in "iu":
        raise ValueError(f"cell indices must be integers, not {cells.dtype} "
                         f"values such as {cells[0].item()!r}")
    outside = (cells < 0) | (cells >= fan.n_cells)
    if outside.any():
        raise ValueError(f"cell index {cells[outside][0]} is outside "
                         f"0..{fan.n_cells - 1}")
    norms = row_norms(R)
    lam = coefficients(fan.constants.cell_inverses, cells, R)
    out = norms.copy()
    rows = np.flatnonzero(row_min(lam) < -1e-12 * norms)
    R, cells, norms = R[rows, :, None], cells[rows], norms[rows]
    best = np.zeros(rows.size)
    for G, projectors, usable in fan._cap_faces:
        coef = np.matmul(projectors[cells], R)
        norm_p = row_norms(np.matmul(G[cells], coef)[..., 0])
        keep = (usable[cells] & (norm_p > 1e-14 * norms)
                & (row_min(coef[..., 0]) >= -1e-12 * norm_p))
        np.maximum(best, np.where(keep, norm_p, 0.0), out=best)
    out[rows] = best
    return out


def max_linear_over_cone_cap(fan: SimplicialFan, cell: int, r) -> float:
    """Exact ``max{<r, u> : u in cell, ||u|| <= 1}``: ``cap_maxima`` on one
    pair."""
    return float(cap_maxima(fan, [cell], np.asarray(r, float)[None])[0])


def _c_delta_exact(fan: SimplicialFan) -> float:
    # Coefficient k on cell c is linear in u with gradient inv_c[k]: one
    # cone-cap maximum per (cell, k), all in one call.
    cells = np.repeat(np.arange(fan.n_cells), fan.dim)
    gradients = fan.constants.cell_inverses.reshape(-1, fan.dim)
    return float(cap_maxima(fan, cells, gradients).max())


def c_delta(fan: SimplicialFan) -> float:
    """Largest barycentric coefficient over all unit vectors (exact), from
    the cone-cap maxima of the coefficient gradients; computed on the first
    call and cached on the fan."""
    return fan._c_delta


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(fan: SimplicialFan) -> ValidationReport:
    """Check the structural invariants of a complete simplicial fan.

    Runs the per-cell independence test (the mask of the stacked
    generator table), ray-direction distinctness (one ``row_norms`` over
    the differences of all pairs of unit rays, in ``np.triu_indices``
    order), the ray/cell incidence count (one ``np.bincount``), when the
    cells are independent and the rays distinct the single cover of
    ``_single_cover`` (one interior point must lie in exactly one cell),
    and when the cells are independent the ridge check of
    ``_complex_check``.

    A fan that passes all of these is complete: the ridge check and the
    single cover certify it (De Loera, Rambau & Santos, *Triangulations*,
    2010, §4.5), and the rays of a complete fan positively span R^d, so it
    is reported as positively spanning without an LP.  Only a fan that
    fails one of them, with distinct rays, gets the positive-span cone LP,
    to explain the failure (an LP that fails, e.g. on rays about 1e-9
    apart, is reported as not spanning, never raised).  Messages follow
    the order cells, rays, positive span, incidence, single cover, ridges,
    and within a check the order of cells, pairs, rays or ridges.  Nothing
    is drawn at random.  ``require_valid`` reuses the report.
    """
    messages: list[str] = []

    independent = fan._inverses[1]
    cells_ok = bool(independent.all())
    for c in np.flatnonzero(~independent):
        messages.append(f"cell {fan.cells[c]}: generators numerically dependent")

    rays_ok = True
    norms = np.linalg.norm(fan.rays, axis=1)
    if np.any(norms <= 0):
        rays_ok = False
        messages.append("zero ray generator")
    else:
        unit = fan.rays / norms[:, None]
        i, j = np.triu_indices(fan.n_rays, 1)
        close = np.flatnonzero(row_norms(unit[i] - unit[j]) < 1e-9)
        rays_ok = close.size == 0
        for k in close:
            messages.append(f"rays {i[k]} and {j[k]} are positive multiples")

    # The positive-span message goes here, once the later checks are known.
    span_at = len(messages)

    counts = np.bincount(fan._cell_array.reshape(-1), minlength=fan.n_rays)
    few = np.flatnonzero(counts < fan.dim)
    incidence_ok = few.size == 0
    for i in few:
        messages.append(f"ray {i} appears in {counts[i]} < d cells")

    cover_ok = cells_ok and rays_ok
    if cover_ok:
        cover_ok = _single_cover(fan, unit, messages)

    complex_ok = _complex_check(fan, messages) if cells_ok else None

    span_ok = rays_ok
    if rays_ok and not (cells_ok and incidence_ok and cover_ok and complex_ok):
        try:
            span_ok = _positively_spanning(unit)
            if not span_ok:
                messages.insert(span_at, "rays do not positively span the ambient space")
        except (qp.Infeasible, qp.Unbounded, qp.Inaccurate) as exc:
            span_ok = False
            messages.insert(span_at, f"positive-span LP failed: {exc!r}")

    fan._validation = ValidationReport(
        cells_independent=cells_ok,
        positively_spanning=span_ok,
        rays_distinct=rays_ok,
        ray_incidence=incidence_ok,
        single_cover=cover_ok,
        complex_check=complex_ok,
        messages=messages,
    )
    return fan._validation


def _positively_spanning(unit: np.ndarray) -> bool:
    """True when only x = 0 has ``<v, x> >= 0`` for every unit ray v."""
    return qp.cone_dimension(unit) == 0


def _single_cover(fan: SimplicialFan, unit: np.ndarray, messages: list[str]) -> bool:
    """Does one interior point lie in exactly one cell (every coefficient
    at least -1e-9)?  Reports the count where it does not.

    Each cell c offers the point p_c, the normalized sum of its unit
    generators, at depth ``min_k λ_k / ||inv_c[k]||`` with ``λ = inv_c p_c``:
    its distance to the cell's facet hyperplanes.  The witness is the
    deepest p_c, the first on ties, and one stacked product gives its
    coefficients in every cell.  The deepest point, not that of cell 0,
    because a thin cell's point can lie within 1e-9 of its neighbours'
    facets, where a valid fan would count it in three cells.  A fan with
    no cells covers no point.  Needs independent cells and distinct rays.
    """
    if fan.n_cells == 0:
        messages.append("no cells: no point lies in exactly one cell")
        return False
    inverses = fan._inverses[0]
    points = unit[fan._cell_array].sum(axis=1)
    points /= row_norms(points)[:, None]
    lam = np.matmul(inverses, points[:, :, None])[..., 0]
    depth = row_min(lam / row_norms(inverses.reshape(-1, fan.dim)).reshape(lam.shape))
    witness = int(np.argmax(depth))
    hits = np.count_nonzero(row_min(np.matmul(inverses, points[witness])) >= -1e-9)
    if hits != 1:
        messages.append(f"interior point {points[witness].tolist()} of cell {witness} "
                        f"lies in {hits} cells (expected 1)")
        return False
    return True


def _complex_check(fan: SimplicialFan, messages: list[str]) -> bool:
    """Do the cells meet face to face?  Read from the ridge table: every
    ridge must lie in exactly two cells, and for each such pair (a, b) the
    apex of b must have a strictly negative coefficient on the apex of a
    in a's generators, so that the two cells lie on opposite sides of
    their ridge (one stacked product with the generator inverses).

    Full-dimensional simplicial cones form a triangulation, here a complete
    simplicial fan, exactly when every interior ridge lies in two cells on
    opposite sides and some generic point lies in exactly one cell (De
    Loera, Rambau & Santos, *Triangulations*, 2010, §4.5).  In a complete
    fan every ridge is interior, so this check leaves the number of cells
    over a generic point the same everywhere, and ``_single_cover`` reads
    it at one point: together they certify the fan.  Needs independent
    cells.  Reports each ridge not in two cells, then each pair on one
    side, in ridge-table order.
    """
    table = fan._ridges
    unpaired = np.flatnonzero(table.counts != 2)
    for start, count in zip(table.starts[unpaired], table.counts[unpaired].tolist()):
        messages.append(f"ridge {tuple(table.ridges[start].tolist())} lies in "
                        f"{count} cell{'' if count == 1 else 's'}")
    first = table.paired
    rows = fan._inverses[0][table.owner[first], table.position[first]]
    apex = fan.rays[table.apex[first + 1]]
    coefficient = np.matmul(rows[:, None, :], apex[:, :, None])[:, 0, 0]
    one_side = first[~(coefficient < 0.0)]
    for p in one_side:
        messages.append(f"cells {table.owner[p]} and {table.owner[p + 1]} lie on one "
                        f"side of ridge {tuple(table.ridges[p].tolist())}")
    return unpaired.size == 0 and one_side.size == 0
