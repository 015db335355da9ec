"""Solvers for the small optimization problems behind the estimator.

Two engines live here:

  - ``solve_cls``: primal active-set method for the convex program
    ``min ||A h - y||^2  subject to  B h >= 0``.  A is dense or held as
    row blocks over a few columns (``BlockMatrix``: a design in cell form,
    O(m d) memory).  A tall A (m > n) is factored once, ``A = Q R``, by one
    Householder QR per block and one of the stacked triangles, and every
    iteration runs on the n x n factor R and ``Q^T y``; the KKT residual
    attached to every solution, and the certificate that compares it with
    its tolerance, are measured on the original (A, y, B), through the
    products ``A h`` and ``A^T r`` of the blocks.
  - ``solve_lp``: two-phase tableau simplex with Bland's smallest-index
    pivoting for ``min <c, x>  subject to  B x >= 0,  E x = f`` and
    componentwise bounds.  Every tableau operation is a numpy operation
    over whole rows or columns, and phase 1, which never reads the cost,
    is shared between consecutive LPs over one feasible region: the
    positive-span LP when one fan is validated again, and the n LPs of
    ``geometry.is_irredundant`` off the deformation cone.

Both are written for desk-scale instances (tens of variables, hundreds of
constraints) where determinism and verifiable optimality matter more than
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    """Raised when a linear program has an empty feasible region."""


class Unbounded(Exception):
    """Raised when a linear program's objective is unbounded below."""


class Inaccurate(Exception):
    """Raised when a simplex point violates its own constraints."""


class IterationLimit(Exception):
    """Raised when the active-set solver hits its iteration cap.

    The best iterate found so far is attached as ``.solution``; its
    residuals are reported but have not passed the optimality test.
    """

    def __init__(self, message: str, solution: "QPSolution"):
        super().__init__(message)
        self.solution = solution


class Uncertified(Exception):
    """Raised for a least-squares result whose KKT residual exceeds its
    tolerance; the refused solution is attached as ``.solution``."""

    def __init__(self, message: str, solution: "QPSolution"):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class ConstrainedLS:
    """Least-squares data ``min ||A h - y||^2`` over the cone ``B h >= 0``.

    ``A`` is a dense array or a ``BlockMatrix``, such as a design in cell
    form.  ``B`` may have zero rows, in which case the problem is
    unconstrained.  The feasible region always contains the origin.
    """

    A: np.ndarray | BlockMatrix
    y: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = self.A if isinstance(self.A, BlockMatrix) else np.asarray(self.A, float)
        y = np.asarray(self.y, float)
        B = np.asarray(self.B, float)
        if B.size == 0:
            B = np.zeros((0, A.shape[1]))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "B", B)
        if len(A.shape) != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
            raise ValueError("A and y have inconsistent shapes")
        if B.ndim != 2 or B.shape[1] != A.shape[1]:
            raise ValueError("B and A have inconsistent column counts")


@dataclass(frozen=True)
class SolverOptions:
    """Tunables for ``solve_cls``; the default cap follows the problem scale."""

    max_iter: int | None = None
    warm_start: np.ndarray | None = None


@dataclass(frozen=True)
class QPSolution:
    """An active-set result, every figure measured on the original (A, y, B).

    ``certified`` holds when ``kkt_residual`` is at most ``kkt_tolerance``,
    ``1e-8 (1 + ||A^T y||)``.
    """

    h_star: np.ndarray
    objective: float
    kkt_residual: float
    kkt_tolerance: float
    active_rows: tuple[int, ...]
    multipliers: np.ndarray
    iterations: int

    @property
    def certified(self) -> bool:
        return self.kkt_residual <= self.kkt_tolerance


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float


@dataclass(frozen=True)
class BlockMatrix:
    """An m x n matrix held as dense blocks of rows over a few columns.

    Block ``(rows, cols, values)`` puts ``values[k, j]`` at
    ``(rows[k], cols[j])``; the blocks' rows are disjoint and every other
    entry is 0.  A design in cell form has one block per carrier block, its
    d columns the generators of the cell (``design.build_design``), so it
    takes O(m d) memory.  A dense A is one block whose rows and columns
    are ``slice(None)`` (``BlockMatrix.of``).  The products ``A h`` and
    ``A^T r`` read the blocks alone; for a dense A they are the plain
    products.
    """

    shape: tuple[int, int]
    blocks: tuple[tuple, ...]

    @classmethod
    def of(cls, A) -> "BlockMatrix":
        """``A`` as a ``BlockMatrix``: itself, or a dense array as one block."""
        if isinstance(A, cls):
            return A
        A = np.asarray(A, float)
        return cls(shape=A.shape, blocks=((slice(None), slice(None), A),))

    def dot(self, h: np.ndarray) -> np.ndarray:
        """``A h``: one product per block, written to the block's rows."""
        out = np.zeros(self.shape[0])
        for rows, cols, values in self.blocks:
            out[rows] = values @ h[cols]
        return out

    def tdot(self, r: np.ndarray) -> np.ndarray:
        """``A^T r``: one product per block, added to the block's columns in
        block order."""
        out = np.zeros(self.shape[1])
        for rows, cols, values in self.blocks:
            out[cols] += values.T @ r[rows]
        return out

    def dense(self) -> np.ndarray:
        """The m x n matrix: a dense A itself, otherwise the blocks scattered
        into zeros."""
        if isinstance(self.blocks[0][0], slice):
            return self.blocks[0][2]
        out = np.zeros(self.shape)
        for rows, cols, values in self.blocks:
            out[rows[:, None], cols] = values
        return out


@dataclass(frozen=True)
class TriangularFactor:
    """``A = Q R`` for a tall A (m > n), block by block.

    ``R`` is n x n and ``reduce(y)`` the n entries of ``Q^T y``, so
    ``A^T (A h - y) = R^T (R h - reduce(y))`` and ``||A h - y||^2`` differs
    from ``||R h - reduce(y)||^2`` by a constant.  Q is a product of
    Householder QRs (Golub & Van Loan, *Matrix Computations*, §5.2-5.3;
    Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34 (2012)):
    one of each large row block of A, then one of the stack that holds
    their triangles and the other blocks' rows, each placed in its block's
    columns.  ``blocks`` holds each block's rows with its reflectors and
    scales, or None for a block stacked as it is; ``stack`` holds those of
    the stack's QR.  Row k of a reflector array is the Householder vector
    of step k, 0 before entry k and 1 at it, with its scale at entry k of
    the scales, from LAPACK's ``geqrf`` as ``np.linalg.qr(mode="raw")``
    returns them.  When the stack has fewer than n rows, R and ``reduce(y)``
    end in zeros.  A matrix with m <= n is its own factor: ``R`` is A, with
    no blocks and no stack, and ``reduce`` returns y.
    """

    R: np.ndarray
    shape: tuple[int, int]
    blocks: tuple[tuple, ...] = ()
    stack: tuple[np.ndarray, np.ndarray] | None = None

    def reduce(self, y: np.ndarray) -> np.ndarray:
        """``Q^T y`` cut to n entries: each block's reflectors applied to its
        rows of y, then the stack's to the stacked results."""
        if self.stack is None:
            return y
        z = np.concatenate([y[rows] if v is None else _reflect(y[rows], v, tau)
                            for rows, v, tau in self.blocks])
        z = _reflect(z, *self.stack)
        return np.concatenate([z, np.zeros(len(self.R) - len(z))])


def _reflect(y: np.ndarray, reflectors: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The reflectors applied to y in turn, cut to as many entries as there
    are reflectors."""
    z = np.array(y, float)
    for v, t in zip(reflectors, tau):
        z -= (t * (v @ z)) * v
    return z[:len(tau)]


def _householder_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Householder QR of M (r x c): the upper trapezoid R, min(r, c) x c,
    and the reflectors and their scales in ``TriangularFactor``'s layout."""
    k = min(M.shape)
    # LAPACK factors a column-major copy; handing it one skips numpy's
    # slower conversion, and its reflectors then come back as contiguous
    # rows, so that ``_reflect`` reads each one in a single sweep.
    raw, tau = np.linalg.qr(np.asfortranarray(M), mode="raw")
    raw = np.ascontiguousarray(raw)
    # Row j holds column j of R up to entry j, then reflector j; the
    # reflector's implicit 1 takes entry j's place.
    below = np.tri(k, k, -1, dtype=bool)
    R = raw[:, :k].T.copy()
    R[:, :k][below] = 0.0
    raw = raw[:k]
    raw[:, :k][below] = 0.0
    np.fill_diagonal(raw, 1.0)
    return R, raw, tau


# A block is stacked as it is, with no QR of its own, unless it has fewer
# columns than A and more than this many rows times n^2: a QR call costs
# about as much as this much work in the stack's QR, whose time grows with
# the stack's rows times n^2.
_BLOCK_QR_WORK = 2 ** 15


def triangular_factor(A) -> TriangularFactor:
    """The block QR of a tall A, a dense array or a ``BlockMatrix``; A
    itself, densified, when m <= n.

    A block of m_c rows over d < n columns with ``m_c n^2`` above
    ``_BLOCK_QR_WORK`` is factored on its own, in O(m_c d^2), and only its
    d x d triangle enters the stack; a smaller block enters it as it is.
    One QR of the stack then gives R.  So a design in cell form costs
    O(m d^2 + cells d n^2) instead of O(m n^2), and its stack is no larger
    than m x n.  A dense A is one block over every column, factored by one
    Householder QR as before.
    """
    A = BlockMatrix.of(A)
    m, n = A.shape
    if m <= n:
        return TriangularFactor(R=A.dense(), shape=(m, n))
    blocks, parts = [], []
    for rows, cols, values in A.blocks:
        if values.shape[1] < n and values.shape[0] * n * n > _BLOCK_QR_WORK:
            values, reflectors, tau = _householder_qr(values)
            blocks.append((rows, reflectors, tau))
        else:
            blocks.append((rows, None, None))
        parts.append((cols, values))
    stack = np.zeros((sum(len(values) for _, values in parts), n))
    top = 0
    for cols, values in parts:
        stack[top:top + len(values), cols] = values
        top += len(values)
    R, reflectors, tau = _householder_qr(stack)
    R = np.vstack([R, np.zeros((n - len(R), n))])
    return TriangularFactor(R=R, shape=(m, n), blocks=tuple(blocks),
                            stack=(reflectors, tau))


def rank_tolerance(M: np.ndarray, m: int | None = None) -> float:
    """``max(m, n) * eps * (largest column norm of M)``, with m the row
    count of M unless given: a factor R passes that of its A, whose column
    norms it shares (``R^T R = A^T A``)."""
    col_norm = float(np.max(np.linalg.norm(M, axis=0)))
    return max(M.shape[0] if m is None else m, M.shape[1]) * np.finfo(float).eps * col_norm


def rank_and_kernel(M: np.ndarray, tol: float | None = None):
    """Numerical rank of ``M`` and an orthonormal basis of its kernel.

    Singular values count above ``tol``, by default ``rank_tolerance(M)``,
    so the diagnostic is reproducible across runs and platforms.  A design
    passes the tolerance of A with its triangular factor R, which has the
    singular values and right singular vectors of A.  Returns
    ``(rank, kernel)`` where ``kernel`` has shape ``(n - rank, n)``.
    """
    M = np.asarray(M, float)
    if M.size == 0:
        n = M.shape[1] if M.ndim == 2 else 0
        return 0, np.eye(n)
    # The reduced factorization already carries all n right singular
    # vectors when m >= n; the full one is only needed for wide matrices.
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.sum(s > (rank_tolerance(M) if tol is None else tol)))
    return rank, vt[rank:]


# ---------------------------------------------------------------------------
# Constrained least squares: primal active set
# ---------------------------------------------------------------------------

def _null_space(rows: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of the stacked rows."""
    if rows.shape[0] == 0:
        return np.eye(n)
    _, kernel = rank_and_kernel(rows)
    return kernel.T


def solve_cls(problem: ConstrainedLS, opts: SolverOptions | None = None, *,
              factor: TriangularFactor | None = None) -> QPSolution:
    """Globally minimize ``||A h - y||^2`` over the cone ``{B h >= 0}``.

    Primal active-set iteration on the least-squares form (Lawson & Hanson,
    *Solving Least Squares Problems*, 1974, ch. 23).  The iterations run on
    ``factor``, the triangular factor R of A with ``z = Q^T y``
    (``triangular_factor(A)`` when not given; a ``DesignMatrix`` passes the
    one it owns), so a tall design costs O(n^2) per step instead of O(m n).
    A itself is read only through the products ``A h`` and ``A^T r`` of
    ``BlockMatrix.of(A)``.
    The working set is grown one blocking row at a time (rows that block
    are automatically independent of the current working set), each
    equality-constrained subproblem is solved by a minimum-norm step in the
    working-set null space, and constraints leave the working set by the
    smallest-index rule on negative multipliers.  Degenerate steps of
    length zero are accepted; the smallest-index selection keeps the
    iteration from cycling on redundant wall systems.

    The returned ``QPSolution`` is measured on the original (A, y, B): its
    objective, its multipliers and its KKT residual, the largest of the
    stationarity, feasibility and complementary-slackness violations, which
    ``certified`` compares with ``1e-8 (1 + ||A^T y||)``; an uncertified
    result is returned, not raised.  Raises ``IterationLimit`` with the
    best iterate attached if the cap of ``50 * (n + p)`` subproblems is
    exhausted.
    """
    if opts is None:
        opts = SolverOptions()
    A, y, B = problem.A, problem.y, problem.B
    n = A.shape[1]
    p = B.shape[0]
    if factor is None:
        factor = triangular_factor(A)
    elif factor.shape != A.shape:
        raise ValueError(f"factor of a {factor.shape} matrix for A of shape {A.shape}")
    R, z = factor.R, factor.reduce(y)

    kkt_tol = 1e-8 * (1.0 + np.linalg.norm(BlockMatrix.of(A).tdot(y)))
    max_iter = opts.max_iter if opts.max_iter is not None else 50 * (n + p)

    def feas_tol(vec):
        return 1e-9 * (1.0 + np.linalg.norm(vec))

    h = np.zeros(n)
    if opts.warm_start is not None:
        h0 = np.asarray(opts.warm_start, float)
        if h0.shape == (n,) and (p == 0 or np.min(B @ h0) >= -feas_tol(h0)):
            h = h0.copy()

    working: list[int] = []
    iterations = 0

    while True:
        if iterations > max_iter:
            sol = _certify(problem, h, working, iterations, feas_tol(h), kkt_tol)
            raise IterationLimit(
                f"active-set iteration cap {max_iter} exhausted", sol)
        iterations += 1

        Bw = B[working] if working else np.zeros((0, n))
        Z = _null_space(Bw, n)
        if Z.shape[1] > 0:
            # Minimum-norm step within the working-set null space.
            w, *_ = np.linalg.lstsq(R @ Z, z - R @ h, rcond=None)
            step = Z @ w
        else:
            step = np.zeros(n)

        if np.linalg.norm(step) > 1e-13 * (1.0 + np.linalg.norm(h)):
            alpha, blocker = _ratio_test(B @ h, B @ step, working) if p else (1.0, -1)
            h = h + alpha * step
            if blocker >= 0:
                working.append(blocker)
                working.sort()
                continue

        # Subproblem optimum reached: check multipliers for the working set.
        mu = _multipliers(B, working, R.T @ (R @ h - z))
        neg = [k for k in range(len(working)) if mu[k] < -kkt_tol]
        if not neg:
            break
        del working[neg[0]]

    return _certify(problem, h, working, iterations, feas_tol(h), kkt_tol)


def _ratio_test(bh: np.ndarray, bstep: np.ndarray, working: list[int]):
    """The step length ``alpha <= 1`` along ``step`` and the row that blocks
    it (-1 for none), from ``bh = B h`` and ``bstep = B step``.

    Rows falling by more than ``1e-12 (1 + max|B step|)`` and not in the
    working set limit the step to ``max(0, bh_i) / -bstep_i``.  In index
    order, a row takes over only when its limit undercuts the current one
    by more than 1e-15, so of near-equal limits the first row wins; each
    pass of the loop finds the next such row with one vector comparison.
    """
    scale = 1e-12 * (1.0 + float(np.max(np.abs(bstep))))
    rows = ~(bstep >= -scale)
    rows[working] = False
    rows = np.flatnonzero(rows)
    limits = np.where(bh[rows] > 0.0, bh[rows], 0.0) / -bstep[rows]
    alpha, blocker, k = 1.0, -1, 0
    while True:
        under = np.flatnonzero(limits[k:] < alpha - 1e-15)
        if under.size == 0:
            return alpha, blocker
        k += int(under[0])
        alpha, blocker = limits[k], int(rows[k])
        k += 1


def _multipliers(B: np.ndarray, working: list[int], grad: np.ndarray) -> np.ndarray:
    """Least-squares multipliers of the working rows: ``B_w^T mu = grad``."""
    if not working:
        return np.zeros(0)
    mu, *_ = np.linalg.lstsq(B[working].T, grad, rcond=None)
    return mu


def _certify(problem, h, working, iterations, ftol, kkt_tol):
    """Assemble a QPSolution measured on the original (A, y, B)."""
    A, y, B = BlockMatrix.of(problem.A), problem.y, problem.B
    residual = A.dot(h) - y
    grad = A.tdot(residual)
    mu = _multipliers(B, working, grad)
    p = B.shape[0]
    mu_full = np.zeros(p)
    mu_full[working] = np.where(mu < 0.0, 0.0, mu)
    stationarity = np.linalg.norm(grad - B.T @ mu_full) if p else np.linalg.norm(grad)
    if p:
        bh = B @ h
        primal = max(0.0, float(-np.min(bh)) - ftol)
        comp = float(np.max(np.abs(mu_full * bh)))
        active = tuple(int(i) for i in np.flatnonzero(bh <= ftol))
    else:
        primal = 0.0
        comp = 0.0
        active = ()
    kkt_residual = max(stationarity, primal, comp)
    return QPSolution(
        h_star=h.copy(),
        objective=float(residual @ residual),
        kkt_residual=float(kkt_residual),
        kkt_tolerance=float(kkt_tol),
        active_rows=active,
        multipliers=mu_full,
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Linear programming: two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

def solve_lp(
    c: np.ndarray,
    B: np.ndarray | None = None,
    E: np.ndarray | None = None,
    f: np.ndarray | None = None,
    bounds: list[tuple[float, float]] | None = None,
) -> LPSolution:
    """Minimize ``<c, x>`` subject to ``B x >= 0``, ``E x = f`` and bounds.

    ``bounds`` is a per-variable list of ``(lo, hi)`` pairs; use ``-inf`` /
    ``inf`` for one-sided or free variables (the default).  Pivoting is
    Bland's smallest-index rule throughout, so the path and the optimizer
    are deterministic.  Raises ``Infeasible`` or ``Unbounded``; both are
    informative outcomes rather than failures.  Raises ``ValueError`` for
    inconsistent shapes, a non-finite entry in ``c``, ``B``, ``E`` or
    ``f``, and a bound that is NaN, ``lo = +inf`` or ``hi = -inf``;
    ``lo > hi`` is an infeasible LP.
    """
    c = np.asarray(c, float)
    n = c.shape[0]
    B = np.zeros((0, n)) if B is None or np.size(B) == 0 else np.asarray(B, float)
    E = np.zeros((0, n)) if E is None or np.size(E) == 0 else np.asarray(E, float)
    f = np.zeros(0) if f is None else np.asarray(f, float)
    if bounds is None:
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    else:
        lo, hi = np.asarray(bounds, float).reshape(-1, 2).T
    if B.shape[1] != n or E.shape[1] != n or E.shape[0] != f.shape[0] or lo.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    for name, a in (("c", c), ("B", B), ("E", E), ("f", f)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite entry in {name}")
    if np.any(np.isnan(lo) | np.isnan(hi) | (lo == np.inf) | (hi == -np.inf)):
        raise ValueError("a bound is NaN, or lo = +inf or hi = -inf")

    # --- conversion to standard form -------------------------------------
    # Each original variable becomes one or two nonnegative columns: a free
    # one x = z+ - z-, one with a finite lower bound x = lo + z, one with
    # only an upper bound x = hi - z.  Double-bounded variables get an
    # extra row z + u = hi - lo for the remaining span.
    free = (lo == -np.inf) & (hi == np.inf)
    upper = (lo == -np.inf) & ~free
    shift = np.where(lo != -np.inf, lo, np.where(upper, hi, 0.0))
    width = np.where(free, 2, 1)
    var = np.repeat(np.arange(n), width)   # column -> variable
    first = np.cumsum(width) - width       # variable -> its first column
    sign = np.full(var.size, -1.0)
    sign[first[~upper]] = 1.0
    boxed = np.flatnonzero((lo != -np.inf) & (hi != np.inf))

    n_z, n_s, n_e, n_u = var.size, B.shape[0], E.shape[0], boxed.size
    T = np.zeros((n_s + n_e + n_u, n_z + n_s + n_u))
    rhs = np.zeros(n_s + n_e + n_u)
    # B x >= 0  becomes  B z - slack = -B shift  with slack >= 0.  Columns
    # are added onto zeros, so a -0.0 product enters the tableau as 0.0.
    T[:n_s, :n_z] += B[:, var] * sign
    T[:n_s, n_z:n_z + n_s] = -np.eye(n_s)
    rhs[:n_s] = -(B @ shift)
    T[n_s:n_s + n_e, :n_z] += E[:, var] * sign
    rhs[n_s:n_s + n_e] = f - E @ shift
    extra = np.arange(n_s + n_e, n_s + n_e + n_u)
    T[extra, first[boxed]] = 1.0
    T[extra, n_z + n_s + np.arange(n_u)] = 1.0
    rhs[extra] = hi[boxed] - lo[boxed]

    cost = np.zeros(T.shape[1])
    cost[:n_z] = sign * c[var]

    z = _two_phase_simplex(T, rhs, cost)
    x = shift.copy()
    np.add.at(x, var, sign * z[:n_z])   # in column order, one term at a time
    return LPSolution(x=x, objective=float(c @ x))


def solve_affine_lp(c, B=None, b=None, E=None, f=None, bounds=None) -> LPSolution:
    """``min <c, x>`` s.t. ``B x >= b`` plus equalities and bounds.

    Homogenizes the affine right-hand side with an auxiliary variable pinned
    to 1 and delegates to ``solve_lp``, which refuses non-finite input with
    ``ValueError``, as this function does a non-finite ``b``.
    """
    c = np.asarray(c, float)
    n = c.shape[0]
    if B is None or np.size(B) == 0:
        return solve_lp(c, None, E, f, bounds)
    B = np.asarray(B, float)
    b = np.zeros(B.shape[0]) if b is None else np.asarray(b, float)
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite entry in b")
    Bh = np.hstack([B, -b[:, None]])
    c_h = np.concatenate([c, [0.0]])
    pin = np.zeros((1, n + 1))
    pin[0, n] = 1.0
    if E is None or np.size(E) == 0:
        E_h, f_h = pin, np.array([1.0])
    else:
        E = np.asarray(E, float)
        f = np.asarray(f, float)
        E_h = np.vstack([np.hstack([E, np.zeros((E.shape[0], 1))]), pin])
        f_h = np.concatenate([f, [1.0]])
    if bounds is None:
        bounds_h = [(-np.inf, np.inf)] * n + [(0.0, 2.0)]
    else:
        bounds_h = list(bounds) + [(0.0, 2.0)]
    sol = solve_lp(c_h, Bh, E_h, f_h, bounds_h)
    return LPSolution(x=sol.x[:n], objective=float(c @ sol.x[:n]))


def cone_dimension(M: np.ndarray) -> int:
    """Dimension of the cone ``{x : M x >= 0}``, from one LP; 0 means {0}.

    Row i is an implicit equality (zero on the whole cone) exactly when some
    ``y >= 0`` with ``M^T y = 0`` has ``y_i > 0`` (Gordan; Schrijver, *Theory
    of Linear and Integer Programming*, 1986, ch. 8), so the LP ``max sum(u)``
    over ``M^T y = 0``, ``y >= u``, ``0 <= u <= 1`` puts u = 1 on those rows
    and 0 on the rest.  The dimension is the column count minus the rank of
    the rows with ``u > 1/2``.  Rows are scaled to unit length and dropped
    below 1e-9 of the longest; ``M^T y = 0`` is posed on an orthonormal basis
    of their span; ranks count singular values above 1e-9 of the largest.
    Raises ``Inaccurate`` if ``M^T y = 0`` or ``y >= u`` fails by more than
    ``1e-9 (1 + |y|)``.
    """
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-9 * norms.max(initial=0.0)
    U = M[keep] / norms[keep, None]
    q, k = U.shape
    if q == 0:
        return k
    W, s, _ = np.linalg.svd(U, full_matrices=False)
    E = W[:, s > 1e-9 * s[0]].T
    sol = solve_lp(np.repeat([0.0, -1.0], q), np.hstack([np.eye(q), -np.eye(q)]),
                   np.hstack([E, np.zeros_like(E)]), np.zeros(len(E)),
                   [(0.0, np.inf)] * q + [(0.0, 1.0)] * q)
    y, u = np.split(sol.x, 2)
    tol = 1e-9 * (1.0 + np.linalg.norm(y))
    if np.linalg.norm(U.T @ y) > tol or np.min(y - u) < -tol:
        raise Inaccurate("simplex point misses M^T y = 0 or y >= u")
    s = np.linalg.svd(U[u > 0.5], compute_uv=False)
    return k - int(np.sum(s > 1e-9 * s.max(initial=0.0)))


_PIVOT_TOL = 1e-10

# The last phase-1 result as one tuple ``(key, tab, basis)``, replaced
# whole, so that a caller on another thread never pairs one region's key
# with another region's tableau.  Neither ``tab`` nor ``basis`` is written
# after it is stored.
_phase_one_memo: tuple | None = None


def _two_phase_simplex(T: np.ndarray, rhs: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Solve ``min cost.z`` s.t. ``T z = rhs, z >= 0`` by two-phase simplex.

    Phase 1 never reads the cost, so its result is kept for the next call,
    keyed on the exact bytes of ``T`` and ``rhs``: LPs that differ only in
    the cost, like the per-ray support LPs of ``geometry.is_irredundant``
    or the positive-span LP of a fan validated again, pivot their way to a
    feasible basis once.  Phase 2 runs on a copy.
    """
    global _phase_one_memo
    key = (T.shape, T.tobytes(), rhs.tobytes())
    memo = _phase_one_memo
    if memo is not None and memo[0] == key:
        _, tab, basis = memo
    else:
        tab, basis = _phase_one(T, rhs)
        _phase_one_memo = (key, tab, basis)
    return _phase_two(tab.copy(), basis.copy(), cost)


def _phase_one(T: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A feasible basis of ``T z = rhs, z >= 0``: the tableau over T's
    columns and the right-hand side, and the basic column of each row.

    Rows are flipped to ``rhs >= 0`` and the artificial sum is minimized;
    artificials still basic at the optimum are pivoted out on their row's
    first entry above the pivot tolerance, and rows with none are dropped
    as redundant.  Raises ``Infeasible`` when the artificial sum stays
    positive.
    """
    m, ncols = T.shape
    flip = rhs < 0
    tab = np.hstack([np.where(flip[:, None], -T, T), np.eye(m),
                     np.where(flip, -rhs, rhs)[:, None]])
    basis = np.arange(ncols, ncols + m)
    art_cost = np.concatenate([np.zeros(ncols), np.ones(m), [0.0]])
    _simplex_iterate(tab, basis, art_cost, ncols + m)
    # Python's sum over the numpy scalars: one addition at a time, in row order.
    phase1 = sum(tab[basis >= ncols, -1])
    if phase1 > 1e-8 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        raise Infeasible("phase-1 optimum is positive")

    for i in np.flatnonzero(basis >= ncols):
        candidates = np.flatnonzero(np.abs(tab[i, :ncols]) > _PIVOT_TOL)
        if candidates.size:
            _pivot(tab, i, candidates[0])
            basis[i] = candidates[0]
    keep = basis < ncols
    return np.hstack([tab[keep, :ncols], tab[keep, -1:]]), basis[keep]


def _phase_two(tab: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Minimize ``cost.z`` from the feasible basis of ``_phase_one``, in
    place; returns the optimal z."""
    ncols = tab.shape[1] - 1
    _simplex_iterate(tab, basis, np.concatenate([cost, [0.0]]), ncols)
    z = np.zeros(ncols)
    z[basis] = tab[:, -1]
    return z


def _simplex_iterate(tab, basis, cost, ncols):
    """Run Bland-rule simplex iterations in place until optimal.

    The reduced costs subtract the priced rows one at a time, in row order,
    and the entering column is the first nonbasic one below -1e-9.  Of the
    rows whose entering entry exceeds the pivot tolerance, the smallest
    ratio leaves; ratios within 1e-12 of it tie, and a tie goes to the
    smaller basic index.
    """
    while True:
        priced = (np.abs(cost[basis]) > 0).nonzero()[0]
        terms = np.concatenate([cost[None, :ncols],
                                cost[basis[priced], None] * tab[priced, :ncols]])
        reduced = np.subtract.reduce(terms, axis=0)
        candidates = reduced < -1e-9
        candidates[basis] = False
        candidates = candidates.nonzero()[0]
        if candidates.size == 0:
            return
        entering = int(candidates[0])
        # The tie rule depends on the scan order, so the scan stays a loop:
        # over the candidate rows only, on Python floats, whose arithmetic
        # is numpy's IEEE double arithmetic.
        rows = (tab[:, entering] > _PIVOT_TOL).nonzero()[0]
        ratios = (tab[rows, -1] / tab[rows, entering]).tolist()
        ratio = np.inf
        leaving = -1
        for i, r, b in zip(rows.tolist(), ratios, basis[rows].tolist()):
            if r < ratio - 1e-12 or (abs(r - ratio) <= 1e-12 and
                                     (leaving < 0 or b < basis_leaving)):
                ratio, leaving, basis_leaving = r, i, b
        if leaving < 0:
            raise Unbounded(f"entering column {entering} is unbounded")
        _pivot(tab, leaving, entering)
        basis[leaving] = entering


def _pivot(tab, row, col):
    """Scale ``row`` to a unit pivot and eliminate ``col`` from every other
    row with a nonzero entry there, in one rank-1 update."""
    tab[row] /= tab[row, col]
    others = np.abs(tab[:, col]) > 0
    others[row] = False
    tab[others] -= tab[others, col, None] * tab[row]
