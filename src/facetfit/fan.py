"""Complete simplicial polytopal fans and their basic queries.

A fan is given by its ray generators and the maximal cells (index d-subsets
of rays).  Everything downstream — membership inequalities for the
deformation cone, the sparse regression operator, exact Hausdorff
distances — reduces to three queries implemented here: the carriers of a
stack of directions with their barycentric coefficients, the wall-crossing
inequality system, and exact maximization of linear functions over cone
caps.  Carrier lookups loop over the cells, never over the directions: each
direction's cell is guessed from the vertices of one polytope with the fan's
rays as facet normals and verified, and the directions a guess cannot place
go through a fan-order scan that applies each cell's inverse to every
direction still without a carrier.
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
        """The error for a vector ``u`` that ``carriers`` left without a cell;
        with ``row`` set, the message names the row of a stacked lookup."""
        if row_norms(np.asarray(u, float)[None])[0] == 0.0:
            reason = "zero vector has no carrier"
        else:
            reason = f"no cell of {fan!r} admits nonnegative coefficients"
        if row is None:
            return cls(reason)
        return cls(f"row {row}: {reason}", row=row)


class DegenerateWall(Exception):
    """The dependence solve across a wall is rank-deficient (collinear rays)."""


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

    ``vertices[c]`` is the vertex ``x_c = inv_cᵀ h°_c`` of the polytope
    ``P(h°) = {x : <v_i, x> <= ||v_i||}``, whose facet normals are the rays
    and which circumscribes the unit ball; it solves ``<v_i, x> = ||v_i||``
    for the d rays i of cell c.  ``guess_margins[c]`` is
    ``2 d max ||v|| max_k ||inv_c[k]||``: ``carriers`` accepts a guess of
    cell c for u when every coefficient of u in c is at least
    ``guess_margins[c]`` times the scan tolerance of u.  The margins are
    infinite, so no guess is accepted, when some coefficient's rounding can
    exceed half the scan tolerance (``carriers`` derives both).

    The coefficient bound is not here: ``c_delta`` computes it on its first
    call, since only the convergence bound and ``hausdorff_bound`` read it.
    """

    cell_inverses: tuple[np.ndarray, ...]
    ray_norms: np.ndarray
    vertices: np.ndarray
    guess_margins: np.ndarray


@dataclass
class ValidationReport:
    cells_independent: bool
    positively_spanning: bool
    rays_distinct: bool
    ray_incidence: bool
    completeness_probe: bool
    complex_check: bool | None = None
    messages: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        checks = [self.cells_independent, self.positively_spanning,
                  self.rays_distinct, self.ray_incidence, self.completeness_probe]
        if self.complex_check is not None:
            checks.append(self.complex_check)
        return all(checks)


class SimplicialFan:
    """A complete simplicial fan in R^d with n rays and explicit maximal cells.

    Rays need not be unit length.  ``rays`` is a read-only copy of the
    input, so the cached inverses cannot go stale.  Validation, the wall
    system, the constants and ``c_delta`` are each computed when first read
    and cached; a validated fan is immutable and safe for concurrent
    readers.
    """

    def __init__(self, rays, cells, dim: int | None = None):
        self.rays = np.array(rays, float)
        if self.rays.ndim != 2:
            raise ValueError("rays must be an (n, d) array")
        if not np.all(np.isfinite(self.rays)):
            raise ValueError("rays must be finite")
        self.rays.setflags(write=False)
        self.dim = _index(dim, "dim") if dim is not None else self.rays.shape[1]
        if self.rays.shape[1] != self.dim:
            raise ValueError("ray length does not match dim")
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
    def _inverses(self) -> tuple[np.ndarray | None, ...]:
        """Each cell's generator inverse, or None where the generators are
        numerically dependent: the one independence test, read by
        ``validate`` and by the constants."""
        return tuple(_inverse(self.rays[list(cell)].T) for cell in self.cells)

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


def _inverse(M: np.ndarray) -> np.ndarray | None:
    """``M``'s inverse, or None when its columns are numerically dependent."""
    scale = np.prod(np.linalg.norm(M, axis=0))
    if abs(np.linalg.det(M)) > 1e-12 * max(scale, 1e-300):
        return np.linalg.inv(M)
    return None


def _build_constants(fan: SimplicialFan) -> FanConstants:
    invs = fan._inverses
    for cell, inv in zip(fan.cells, invs):
        if inv is None:
            raise InvalidFan(f"cell {cell} has numerically dependent generators")
    norms = np.linalg.norm(fan.rays, axis=1)
    inv_norms = np.array([row_norms(inv).max() for inv in invs])
    # A length-d dot product rounds by at most d eps |a| |b|; the guess is
    # sound while that stays within half the scan tolerance for every cell.
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
    The cells must be independent (``validate`` checks it)."""
    h = np.asarray(h, float)
    return np.array([inv.T @ h[list(cell)] for cell, inv in zip(fan.cells, fan._inverses)])


# ---------------------------------------------------------------------------
# Carrier lookup
# ---------------------------------------------------------------------------

CARRIER_RTOL = 1e-9


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm``
    of the row alone (``np.linalg.norm(X, axis=1)`` is not)."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def row_min(X: np.ndarray) -> np.ndarray:
    """Smallest entry of each row, equal bit for bit to ``X.min(axis=1)``:
    a column-wise ``np.minimum``, which is exact and much faster than a
    reduction over a short axis."""
    out = X[:, 0].copy()
    for k in range(1, X.shape[1]):
        np.minimum(out, X[:, k], out=out)
    return out


def carriers(fan: SimplicialFan, U) -> tuple[np.ndarray, np.ndarray]:
    """Carrier cells and barycentric coefficients of the rows of ``U``.

    The result is that of a scan over the cells in fan order: a row takes
    the first cell whose coefficients are all at least ``-tau(u)``, with
    ``tau(u) = 1e-9 ||u|| / min ||v_i||``, so vectors on a wall resolve
    deterministically.  Coefficients within that tolerance below zero are
    clamped to 0.

    Most rows skip the scan.  When the fan is the normal fan of a polytope
    P, the cell holding u is the normal cone of the vertex of P that
    maximizes ``<u, x>`` (Ziegler, *Lectures on Polytopes*, 7.1), so each
    row's cell g is guessed as the argmax of ``<u, x_c>`` over the vertices
    ``x_c`` of ``P(h°)``, ``h°`` the ray norms (``FanConstants.vertices``),
    found in O(m) memory, never as an (m, cells) score matrix.  The guess
    is accepted only when every coefficient of u in g is at least the margin
    ``mu_g(u) = 2 tau(u) d max ||v|| max_k ||inv_g[k]||``.  Derivation: if
    u fitted another cell c within tau, raising its negative coefficients
    in c to 0 would move u by at most ``d tau max ||v||`` to a point w of
    c, and each coefficient of w in g would differ from u's by at most
    ``max_k ||inv_g[k]|| d tau max ||v||``, so w would lie inside g and in
    c, which cells that meet only on their boundaries exclude.  The factor
    2 absorbs the rounding of the coefficients, both of the matrix-product
    pre-check in g and of the scan's test in c, which ``FanConstants``
    bounds by ``tau / 2`` (no guess is accepted on a fan where it cannot).
    So no other cell passes the scan's test, and an accepted row gets the
    scan's cell and, from the same stacked product, its coefficients.

    Zero rows, rows under the margin and wrong guesses, which arise when
    ``h°`` is not inside the fan's type cone (the roof fans have it on the
    boundary), go to the fan-order scan (``_scan``).  Cells, coefficients
    and rows without a carrier are therefore bit-identical to the scan of
    every row, assuming only that the cells meet only on their boundaries,
    which ``validate`` checks; correctness never depends on ``h°``.

    Returns ``(cells, coeffs)``: ``cells[i]`` is the carrier of row i, or -1
    for a zero row or one no cell admits; ``coeffs`` is (m, n) with row i
    supported on the generators of its carrier.
    """
    U = np.asarray(U, float)
    fan.require_valid()
    if U.ndim != 2 or U.shape[1] != fan.dim:
        raise ValueError(f"directions must be rows of width {fan.dim}, the fan's "
                         f"dimension; got an array of shape {U.shape}")
    consts = fan.constants
    norms = row_norms(U)
    tol = CARRIER_RTOL * norms / max(float(np.min(consts.ray_norms)), 1e-300)
    cells = np.full(U.shape[0], -1)
    coeffs = np.zeros((U.shape[0], fan.n_rays))
    # Rows whose tolerance underflows or overflows are left to the scan.
    rows = np.flatnonzero((tol > 0.0) & (tol < np.inf))
    for ci, mine in enumerate(_vertex_groups(consts.vertices, U[rows])):
        if mine.size == 0:
            continue
        mine = rows[mine]
        inv = consts.cell_inverses[ci]
        sure = row_min(U[mine] @ inv.T) >= consts.guess_margins[ci] * tol[mine]
        mine = mine[sure]
        cells[mine] = ci
        coeffs[mine[:, None], list(fan.cells[ci])] = \
            np.matmul(inv[None], U[mine, :, None])[..., 0]
    _scan(fan, U, np.flatnonzero((norms != 0.0) & (cells < 0)), tol, cells, coeffs)
    return cells, coeffs


def _vertex_groups(vertices: np.ndarray, U: np.ndarray) -> list[np.ndarray]:
    """The rows of ``U`` grouped by the vertex that maximizes ``<u, x>``, the
    first on ties: one array of row indices per vertex.  A running maximum
    over the vertices, then a second pass hands each row to the first
    vertex whose score reaches it, so memory stays O(m)."""
    best = U @ vertices[0]
    for x in vertices[1:]:
        np.maximum(best, U @ x, out=best)
    groups = []
    for x in vertices:
        mine = np.flatnonzero(U @ x == best)
        best[mine] = np.nan   # taken: equal to no later score
        groups.append(mine)
    return groups


def _scan(fan: SimplicialFan, U: np.ndarray, rows: np.ndarray, tol: np.ndarray,
          cells: np.ndarray, coeffs: np.ndarray) -> None:
    """The fan-order scan of ``carriers`` on ``U[rows]``, writing into
    ``cells`` and ``coeffs``.  Each pass applies one cell's inverse to every
    row still without a carrier; a row takes the first cell whose
    coefficients are all at least ``-tol``."""
    consts = fan.constants
    for ci, cell in enumerate(fan.cells):
        if rows.size == 0:
            break
        # A stacked matrix-vector product per row: `U @ inv.T` and einsum
        # round differently from `inv @ u`.
        lam = np.matmul(consts.cell_inverses[ci][None], U[rows, :, None])[..., 0]
        fits = row_min(lam) >= -tol[rows]
        hit = rows[fits]
        cells[hit] = ci
        coeffs[hit[:, None], list(cell)] = np.maximum(lam[fits], 0.0)
        rows = rows[~fits]


def carrier(fan: SimplicialFan, u) -> BarycentricVector:
    """Barycentric coefficients of ``u`` in its carrier cell: ``carriers``
    on one row.  Raises ``NoCarrier`` for a zero ``u`` or one outside every
    cell."""
    u = np.asarray(u, float)
    cells, coeffs = carriers(fan, u[None])
    if cells[0] < 0:
        raise NoCarrier.for_vector(fan, u)
    return BarycentricVector(cell_index=int(cells[0]), coeffs=coeffs[0])


# ---------------------------------------------------------------------------
# Wall crossings
# ---------------------------------------------------------------------------

def wall_crossings(fan: SimplicialFan) -> WallCrossingSystem:
    """Inequality rows for all adjacent maximal-cell pairs.

    For each pair sharing exactly d-1 generators, solves the unique linear
    dependence on the d+1 involved rays normalized so the two non-shared
    coefficients sum to 2, and records it as a row of the system.
    """
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


# ---------------------------------------------------------------------------
# Exact maximization of a linear function over a cone cap
# ---------------------------------------------------------------------------

def max_linear_over_cone_cap(fan: SimplicialFan, cell: int, r) -> float:
    """Exact ``max{<r, u> : u in cell, ||u|| <= 1}``.

    If the normalized ``r`` lies in the cell the spherical maximizer is
    feasible and the value is ``||r||``; otherwise the maximizer sits on a
    proper face, so ``r`` is projected onto each face span and the
    projection is kept when it lies in the face cone.  The apex contributes
    0, which is the floor of the returned value.
    """
    r = np.asarray(r, float)
    norm_r = np.linalg.norm(r)
    if norm_r == 0.0:
        return 0.0
    generators = fan.rays[list(fan.cells[cell])].T
    lam = fan.constants.cell_inverses[cell] @ r
    if np.min(lam) >= -1e-12 * norm_r:
        return float(norm_r)
    best = 0.0
    d = fan.dim
    for size in range(1, d):
        for subset in itertools.combinations(range(d), size):
            G = generators[:, subset]
            # Projection of r onto span(G): G (G^T G)^{-1} G^T r.
            gram = G.T @ G
            try:
                coef = np.linalg.solve(gram, G.T @ r)
            except np.linalg.LinAlgError:
                continue
            proj = G @ coef
            norm_p = np.linalg.norm(proj)
            if norm_p <= 1e-14 * norm_r:
                continue
            # Maximizer over the face span is proj/||proj||; keep it only
            # when it lies in the face cone (coefficients >= 0).
            if np.min(coef) >= -1e-12 * norm_p:
                best = max(best, float(norm_p))
    return best


def _c_delta_exact(fan: SimplicialFan) -> float:
    best = 0.0
    for ci, inv in enumerate(fan.constants.cell_inverses):
        for k in range(fan.dim):
            # Coefficient k on this cell is linear in u with gradient inv[k].
            best = max(best, max_linear_over_cone_cap(fan, ci, inv[k]))
    return best


def c_delta(fan: SimplicialFan) -> float:
    """Largest barycentric coefficient over all unit vectors (exact), from
    the cone-cap maxima of the coefficient gradients; computed on the first
    call and cached on the fan."""
    return fan._c_delta


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

PROBES = 1000
PROBE_SEED = 20210


def validate(fan: SimplicialFan, strict: bool = False) -> ValidationReport:
    """Check the structural invariants of a complete simplicial fan.

    Runs the per-cell independence test, the positive-span cone LP,
    pairwise ray-direction distinctness, the ray/cell incidence
    count, and a randomized completeness probe (every sampled unit vector
    must have exactly one carrier).  ``strict=True`` additionally verifies
    that every pair of cells intersects in a common face, which is
    quadratic in the number of cells.  ``require_valid`` reuses the report.
    """
    messages: list[str] = []

    cells_ok = True
    for cell, inv in zip(fan.cells, fan._inverses):
        if inv is None:
            cells_ok = False
            messages.append(f"cell {cell}: generators numerically dependent")

    rays_ok = True
    norms = np.linalg.norm(fan.rays, axis=1)
    if np.any(norms <= 0):
        rays_ok = False
        messages.append("zero ray generator")
    else:
        unit = fan.rays / norms[:, None]
        for i, j in itertools.combinations(range(fan.n_rays), 2):
            if np.linalg.norm(unit[i] - unit[j]) < 1e-9:
                rays_ok = False
                messages.append(f"rays {i} and {j} are positive multiples")

    span_ok = rays_ok and _positively_spanning(unit)
    if rays_ok and not span_ok:
        messages.append("rays do not positively span the ambient space")

    incidence_ok = True
    counts = np.zeros(fan.n_rays, int)
    for cell in fan.cells:
        counts[list(cell)] += 1
    for i in range(fan.n_rays):
        if counts[i] < fan.dim:
            incidence_ok = False
            messages.append(f"ray {i} appears in {counts[i]} < d cells")

    probe_ok = cells_ok and rays_ok
    if probe_ok:
        probe_ok = _completeness_probe(fan, messages)

    complex_ok = None
    if strict and cells_ok:
        complex_ok = _pairwise_face_check(fan, messages)

    fan._validation = ValidationReport(
        cells_independent=cells_ok,
        positively_spanning=span_ok,
        rays_distinct=rays_ok,
        ray_incidence=incidence_ok,
        completeness_probe=probe_ok,
        complex_check=complex_ok,
        messages=messages,
    )
    return fan._validation


def _positively_spanning(unit: np.ndarray) -> bool:
    """True when only x = 0 has ``<v, x> >= 0`` for every unit ray v."""
    return qp.cone_dimension(unit) == 0


def _completeness_probe(fan: SimplicialFan, messages: list[str]) -> bool:
    """Every sampled unit direction must lie in exactly one cell (within
    1e-9); reports the first that does not."""
    U = np.random.default_rng(PROBE_SEED).standard_normal((PROBES, fan.dim))
    norms = row_norms(U)
    keep = norms >= 1e-12
    U = U[keep] / norms[keep, None]
    hits = np.zeros(U.shape[0], int)
    for inv in fan.constants.cell_inverses:
        hits += row_min(np.matmul(inv[None], U[:, :, None])[..., 0]) >= -1e-9
    bad = np.flatnonzero(hits != 1)
    if bad.size:
        messages.append(f"direction {U[bad[0]].tolist()} has {hits[bad[0]]} "
                        f"carriers (expected 1)")
        return False
    return True


def _pairwise_face_check(fan: SimplicialFan, messages: list[str]) -> bool:
    """Strict complex condition: cells intersect in the common-generator cone."""
    ok = True
    for a, b in itertools.combinations(range(fan.n_cells), 2):
        ca, cb = fan.cells[a], fan.cells[b]
        shared = sorted(set(ca) & set(cb))
        only_a = [i for i in ca if i not in shared]
        only_b = [i for i in cb if i not in shared]
        if not only_a:
            continue  # identical cells are caught by the probe
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
