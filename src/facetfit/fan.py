"""Complete simplicial polytopal fans and their basic queries.

A fan is given by its ray generators and the maximal cells (index d-subsets
of rays).  Everything downstream — membership inequalities for the
deformation cone, the sparse regression operator, exact Hausdorff
distances — reduces to three queries implemented here: the carriers of a
stack of directions with their barycentric coefficients, the wall-crossing
inequality system, and exact maximization of linear functions over cone
caps.  Carrier lookups loop over the cells, never over the directions: each
cell's inverse is applied to every direction still without a carrier.
"""

from __future__ import annotations

import itertools
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


@dataclass
class FanConstants:
    """Per-fan caches: cell generator inverses, ray norms, coefficient bound.

    ``c_delta`` bounds every barycentric coefficient of every unit vector;
    it is computed exactly from the per-cell coefficient gradients.
    """

    cell_matrices: list[np.ndarray]
    cell_inverses: list[np.ndarray]
    ray_norms: np.ndarray
    c_delta: float


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
    input, so the cached inverses cannot go stale.  Validation and the
    derived constants are computed lazily and cached; a validated fan is
    immutable and safe for concurrent readers.
    """

    def __init__(self, rays, cells, dim: int | None = None):
        self.rays = np.array(rays, float)
        if self.rays.ndim != 2:
            raise ValueError("rays must be an (n, d) array")
        if not np.all(np.isfinite(self.rays)):
            raise ValueError("rays must be finite")
        self.rays.setflags(write=False)
        self.dim = int(dim) if dim is not None else self.rays.shape[1]
        if self.rays.shape[1] != self.dim:
            raise ValueError("ray length does not match dim")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        self.cells = tuple(tuple(int(i) for i in cell) for cell in cells)
        n = self.rays.shape[0]
        for cell in self.cells:
            if len(cell) != self.dim or len(set(cell)) != self.dim:
                raise ValueError(f"cell {cell} is not a d-subset of ray indices")
            if any(i < 0 or i >= n for i in cell):
                raise ValueError(f"cell {cell} has an out-of-range ray index")
        self._constants: FanConstants | None = None
        self._validation: ValidationReport | None = None
        self._walls: WallCrossingSystem | None = None

    # -- basic shape -------------------------------------------------------
    @property
    def n_rays(self) -> int:
        return self.rays.shape[0]

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    # -- caches --------------------------------------------------------------
    @property
    def constants(self) -> FanConstants:
        if self._constants is None:
            self._constants = _build_constants(self)
        return self._constants

    @property
    def wall_system(self) -> WallCrossingSystem:
        if self._walls is None:
            self._walls = wall_crossings(self)
        return self._walls

    def require_valid(self):
        if self._validation is None:
            self._validation = validate(self)
        if not self._validation.ok:
            raise InvalidFan("fan failed validation: "
                             + "; ".join(self._validation.messages))

    def __repr__(self):
        return (f"SimplicialFan(dim={self.dim}, rays={self.n_rays}, "
                f"cells={self.n_cells})")


def _cell_determinant_ok(M: np.ndarray) -> bool:
    scale = np.prod(np.linalg.norm(M, axis=0))
    return abs(np.linalg.det(M)) > 1e-12 * max(scale, 1e-300)


def _build_constants(fan: SimplicialFan) -> FanConstants:
    mats, invs = [], []
    for cell in fan.cells:
        M = fan.rays[list(cell)].T
        if not _cell_determinant_ok(M):
            raise InvalidFan(f"cell {cell} has numerically dependent generators")
        mats.append(M)
        invs.append(np.linalg.inv(M))
    norms = np.linalg.norm(fan.rays, axis=1)
    constants = FanConstants(cell_matrices=mats, cell_inverses=invs,
                             ray_norms=norms, c_delta=0.0)
    constants.c_delta = _c_delta_exact(fan, constants)
    return constants


# ---------------------------------------------------------------------------
# Carrier lookup
# ---------------------------------------------------------------------------

def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal bit for bit to ``np.linalg.norm``
    of the row alone (``np.linalg.norm(X, axis=1)`` is not)."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def carriers(fan: SimplicialFan, U) -> tuple[np.ndarray, np.ndarray]:
    """Carrier cells and barycentric coefficients of the rows of ``U``.

    Cells are scanned in fan order; each pass applies one cell's inverse to
    every row still without a carrier, and a row takes the first cell whose
    coefficients are all at least ``-1e-9 ||u|| / min ||v_i||``, so vectors
    on a wall resolve deterministically.  Coefficients within that tolerance
    below zero are clamped to 0.

    Returns ``(cells, coeffs)``: ``cells[i]`` is the carrier of row i, or -1
    for a zero row or one no cell admits; ``coeffs`` is (m, n) with row i
    supported on the generators of its carrier.
    """
    U = np.asarray(U, float)
    fan.require_valid()
    consts = fan.constants
    norms = row_norms(U)
    tol = 1e-9 * norms / max(float(np.min(consts.ray_norms)), 1e-300)
    cells = np.full(U.shape[0], -1)
    coeffs = np.zeros((U.shape[0], fan.n_rays))
    todo = np.flatnonzero(norms != 0.0)
    for ci, cell in enumerate(fan.cells):
        if todo.size == 0:
            break
        # A stacked matrix-vector product per row: `U @ inv.T` and einsum
        # round differently from `inv @ u`.
        lam = np.matmul(consts.cell_inverses[ci][None], U[todo, :, None])[..., 0]
        fits = lam.min(axis=1) >= -tol[todo]
        rows = todo[fits]
        cells[rows] = ci
        coeffs[rows[:, None], list(cell)] = np.maximum(lam[fits], 0.0)
        todo = todo[~fits]
    return cells, coeffs


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
    return _cap_max(fan, fan.constants, cell, r)


def _cap_max(fan: SimplicialFan, consts: FanConstants, cell: int, r) -> float:
    r = np.asarray(r, float)
    norm_r = np.linalg.norm(r)
    if norm_r == 0.0:
        return 0.0
    generators = consts.cell_matrices[cell]  # columns are the generators
    lam = consts.cell_inverses[cell] @ r
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


def _c_delta_exact(fan: SimplicialFan, consts: FanConstants) -> float:
    best = 0.0
    for ci in range(fan.n_cells):
        inv = consts.cell_inverses[ci]
        for k in range(fan.dim):
            # Coefficient k on this cell is linear in u with gradient inv[k].
            best = max(best, _cap_max(fan, consts, ci, inv[k]))
    return best


def c_delta(fan: SimplicialFan) -> float:
    """Largest barycentric coefficient over all unit vectors (exact)."""
    return fan.constants.c_delta


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(fan: SimplicialFan, probes: int = 1000, seed: int = 20210,
             strict: bool = False) -> ValidationReport:
    """Check the structural invariants of a complete simplicial fan.

    Runs the per-cell independence test, the positive-span feasibility
    solve, pairwise ray-direction distinctness, the ray/cell incidence
    count, and a randomized completeness probe (every sampled unit vector
    must have exactly one carrier).  ``strict=True`` additionally verifies
    that every pair of cells intersects in a common face, which is
    quadratic in the number of cells.
    """
    messages: list[str] = []

    cells_ok = True
    for cell in fan.cells:
        M = fan.rays[list(cell)].T
        if not _cell_determinant_ok(M):
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

    span_ok = rays_ok and _positively_spanning(fan)
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
        probe_ok = _completeness_probe(fan, probes, seed, messages)

    complex_ok = None
    if strict and cells_ok:
        complex_ok = _pairwise_face_check(fan, messages)

    return ValidationReport(
        cells_independent=cells_ok,
        positively_spanning=span_ok,
        rays_distinct=rays_ok,
        ray_incidence=incidence_ok,
        completeness_probe=probe_ok,
        complex_check=complex_ok,
        messages=messages,
    )


def _positively_spanning(fan: SimplicialFan) -> bool:
    """True when 0 is interior to the hull of the normalized rays."""
    norms = np.linalg.norm(fan.rays, axis=1)
    unit = fan.rays / norms[:, None]
    n, d = unit.shape
    # max eps  s.t.  sum lam_i unit_i = 0, sum lam_i = 1, lam_i - eps >= 0.
    c = np.zeros(n + 1)
    c[n] = -1.0
    B = np.hstack([np.eye(n), -np.ones((n, 1))])
    E = np.zeros((d + 1, n + 1))
    E[:d, :n] = unit.T
    E[d, :n] = 1.0
    f = np.zeros(d + 1)
    f[d] = 1.0
    bounds = [(0.0, 1.0)] * n + [(-1.0, 1.0)]
    try:
        sol = qp.solve_lp(c, B, E, f, bounds)
    except (qp.Infeasible, qp.Unbounded):
        return False
    return sol.x[n] > 1e-9


def _completeness_probe(fan: SimplicialFan, probes: int, seed: int,
                        messages: list[str]) -> bool:
    """Every sampled unit direction must lie in exactly one cell (within
    1e-9); reports the first that does not."""
    U = np.random.default_rng(seed).standard_normal((probes, fan.dim))
    norms = row_norms(U)
    keep = norms >= 1e-12
    U = U[keep] / norms[keep, None]
    hits = np.zeros(U.shape[0], int)
    for inv in fan.constants.cell_inverses:
        hits += np.matmul(inv[None], U[:, :, None])[..., 0].min(axis=1) >= -1e-9
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
