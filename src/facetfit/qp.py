"""Dense solvers for the small optimization problems behind the estimator.

Two engines live here:

  - ``solve_cls``: primal active-set method for the convex program
    ``min ||A h - y||^2  subject to  B h >= 0``, with the measured KKT
    residual attached to every solution.
  - ``solve_lp``: two-phase tableau simplex with Bland's smallest-index
    pivoting for ``min <c, x>  subject to  B x >= 0,  E x = f`` and
    componentwise bounds.

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


@dataclass(frozen=True)
class ConstrainedLS:
    """Least-squares data ``min ||A h - y||^2`` over the cone ``B h >= 0``.

    ``B`` may have zero rows, in which case the problem is unconstrained.
    The feasible region always contains the origin.
    """

    A: np.ndarray
    y: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, float)
        y = np.asarray(self.y, float)
        B = np.asarray(self.B, float)
        if B.size == 0:
            B = np.zeros((0, A.shape[1]))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "B", B)
        if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
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
    h_star: np.ndarray
    objective: float
    kkt_residual: float
    active_rows: tuple[int, ...]
    multipliers: np.ndarray
    iterations: int


@dataclass(frozen=True)
class LPSolution:
    x: np.ndarray
    objective: float


def rank_and_kernel(M: np.ndarray):
    """Numerical rank of ``M`` and an orthonormal basis of its kernel.

    Singular values count above ``max(m, n) * eps * (largest column norm)``,
    so the diagnostic is reproducible across runs and platforms.
    Returns ``(rank, kernel)`` where ``kernel`` has shape ``(n - rank, n)``.
    """
    M = np.asarray(M, float)
    if M.size == 0:
        n = M.shape[1] if M.ndim == 2 else 0
        return 0, np.eye(n)
    # The reduced factorization already carries all n right singular
    # vectors when m >= n; the full one is only needed for wide matrices.
    _, s, vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    col_norm = float(np.max(np.linalg.norm(M, axis=0)))
    rank = int(np.sum(s > max(M.shape) * np.finfo(float).eps * col_norm))
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


def solve_cls(problem: ConstrainedLS, opts: SolverOptions | None = None) -> QPSolution:
    """Globally minimize ``||A h - y||^2`` over the cone ``{B h >= 0}``.

    Primal active-set iteration on the least-squares form.  The working set
    is grown one blocking row at a time (rows that block are automatically
    independent of the current working set), each equality-constrained
    subproblem is solved by a minimum-norm step in the working-set null
    space, and constraints leave the working set by the smallest-index rule
    on negative multipliers.  Degenerate steps of length zero are accepted;
    the smallest-index selection keeps the iteration from cycling on
    redundant wall systems.

    Returns a ``QPSolution`` carrying the KKT residual, the largest of the
    stationarity, feasibility and complementary-slackness violations at the
    returned point.  The residual is measured and returned but not compared
    with a tolerance.  Raises ``IterationLimit`` with the best iterate
    attached if the cap of ``50 * (n + p)`` subproblems is exhausted.
    """
    if opts is None:
        opts = SolverOptions()
    A, y, B = problem.A, problem.y, problem.B
    n = A.shape[1]
    p = B.shape[0]

    kkt_tol = 1e-8 * (1.0 + np.linalg.norm(A.T @ y))
    max_iter = opts.max_iter if opts.max_iter is not None else 50 * (n + p)

    def feas_tol(vec):
        return 1e-9 * (1.0 + np.linalg.norm(vec))

    h = np.zeros(n)
    if opts.warm_start is not None:
        h0 = np.asarray(opts.warm_start, float)
        if h0.shape == (n,) and (p == 0 or np.min(B @ h0) >= -feas_tol(h0)):
            h = h0.copy()

    working: list[int] = []
    mu = np.zeros(0)
    iterations = 0

    while True:
        if iterations > max_iter:
            sol = _certify(problem, h, working, mu, iterations, feas_tol(h))
            raise IterationLimit(
                f"active-set iteration cap {max_iter} exhausted", sol)
        iterations += 1

        Bw = B[working] if working else np.zeros((0, n))
        Z = _null_space(Bw, n)
        if Z.shape[1] > 0:
            # Minimum-norm step within the working-set null space.
            w, *_ = np.linalg.lstsq(A @ Z, y - A @ h, rcond=None)
            step = Z @ w
        else:
            step = np.zeros(n)

        if np.linalg.norm(step) > 1e-13 * (1.0 + np.linalg.norm(h)):
            alpha = 1.0
            blocker = -1
            if p:
                bh = B @ h
                bstep = B @ step
                scale = 1e-12 * (1.0 + float(np.max(np.abs(bstep))))
                for i in range(p):
                    if i in working or bstep[i] >= -scale:
                        continue
                    limit = max(0.0, bh[i]) / (-bstep[i])
                    if limit < alpha - 1e-15:
                        alpha = limit
                        blocker = i
            h = h + alpha * step
            if blocker >= 0:
                working.append(blocker)
                working.sort()
                continue

        # Subproblem optimum reached: check multipliers for the working set.
        grad = A.T @ (A @ h - y)
        if working:
            Bw = B[working]
            mu, *_ = np.linalg.lstsq(Bw.T, grad, rcond=None)
        else:
            mu = np.zeros(0)
        neg = [k for k in range(len(working)) if mu[k] < -kkt_tol]
        if not neg:
            break
        del working[neg[0]]

    return _certify(problem, h, working, mu, iterations, feas_tol(h))


def _certify(problem, h, working, mu, iterations, ftol):
    """Assemble a QPSolution with its measured KKT residual."""
    A, y, B = problem.A, problem.y, problem.B
    residual = A @ h - y
    grad = A.T @ residual
    p = B.shape[0]
    mu_full = np.zeros(p)
    for k, row in enumerate(working):
        mu_full[row] = max(mu[k], 0.0) if k < len(mu) else 0.0
    stationarity = np.linalg.norm(grad - B.T @ mu_full) if p else np.linalg.norm(grad)
    if p:
        bh = B @ h
        primal = max(0.0, float(-np.min(bh)) - ftol)
        comp = float(np.max(np.abs(mu_full * bh))) if p else 0.0
        active = tuple(int(i) for i in range(p) if bh[i] <= ftol)
    else:
        primal = 0.0
        comp = 0.0
        active = ()
    kkt_residual = max(stationarity, primal, comp)
    return QPSolution(
        h_star=h.copy(),
        objective=float(residual @ residual),
        kkt_residual=float(kkt_residual),
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
    informative outcomes rather than failures.
    """
    c = np.asarray(c, float)
    n = c.shape[0]
    B = np.zeros((0, n)) if B is None or np.size(B) == 0 else np.asarray(B, float)
    E = np.zeros((0, n)) if E is None or np.size(E) == 0 else np.asarray(E, float)
    f = np.zeros(0) if f is None else np.asarray(f, float)
    if bounds is None:
        bounds = [(-np.inf, np.inf)] * n
    if B.shape[1] != n or E.shape[1] != n or E.shape[0] != f.shape[0]:
        raise ValueError("inconsistent LP dimensions")

    # --- conversion to standard form -------------------------------------
    # Each original variable becomes one or two nonnegative columns; finite
    # lower bounds are shifted into the right-hand side, double-bounded
    # variables get an extra row for the remaining span.
    col_var: list[tuple[int, float]] = []   # (orig index, sign)
    shift = np.zeros(n)
    extra_rows: list[tuple[int, float]] = []  # (column, span) for z <= span
    for j, (lo, hi) in enumerate(bounds):
        if lo == -np.inf and hi == np.inf:
            col_var.append((j, 1.0))
            col_var.append((j, -1.0))
        elif lo != -np.inf:
            shift[j] = lo
            col_var.append((j, 1.0))
            if hi != np.inf:
                extra_rows.append((len(col_var) - 1, hi - lo))
        else:
            shift[j] = hi
            col_var.append((j, -1.0))

    n_z = len(col_var)
    n_s = B.shape[0]
    n_u = len(extra_rows)
    total = n_z + n_s + n_u

    def expand(rows):
        out = np.zeros((rows.shape[0], n_z))
        for k, (j, s) in enumerate(col_var):
            out[:, k] += s * rows[:, j]
        return out

    nrows = n_s + E.shape[0] + n_u
    T = np.zeros((nrows, total))
    rhs = np.zeros(nrows)
    if n_s:
        # B x >= 0  becomes  B z - slack = -B shift  with slack >= 0.
        T[:n_s, :n_z] = expand(B)
        T[:n_s, n_z:n_z + n_s] = -np.eye(n_s)
        rhs[:n_s] = -(B @ shift)
    if E.shape[0]:
        T[n_s:n_s + E.shape[0], :n_z] = expand(E)
        rhs[n_s:n_s + E.shape[0]] = f - E @ shift
    for k, (col, span) in enumerate(extra_rows):
        r = n_s + E.shape[0] + k
        T[r, col] = 1.0
        T[r, n_z + n_s + k] = 1.0
        rhs[r] = span

    cost = np.zeros(total)
    for k, (j, s) in enumerate(col_var):
        cost[k] = s * c[j]

    z = _two_phase_simplex(T, rhs, cost)
    x = shift.copy()
    for k, (j, s) in enumerate(col_var):
        x[j] += s * z[k]
    return LPSolution(x=x, objective=float(c @ x))


def solve_affine_lp(c, B=None, b=None, E=None, f=None, bounds=None) -> LPSolution:
    """``min <c, x>`` s.t. ``B x >= b`` plus equalities and bounds.

    Homogenizes the affine right-hand side with an auxiliary variable pinned
    to 1 and delegates to ``solve_lp``.
    """
    c = np.asarray(c, float)
    n = c.shape[0]
    if B is None or np.size(B) == 0:
        return solve_lp(c, None, E, f, bounds)
    B = np.asarray(B, float)
    b = np.zeros(B.shape[0]) if b is None else np.asarray(b, float)
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


def _two_phase_simplex(T: np.ndarray, rhs: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Solve ``min cost.z`` s.t. ``T z = rhs, z >= 0`` by two-phase simplex."""
    m, ncols = T.shape
    T = T.copy()
    rhs = rhs.copy()
    for i in range(m):
        if rhs[i] < 0:
            T[i] *= -1.0
            rhs[i] *= -1.0

    # Phase 1: artificial basis.
    tab = np.hstack([T, np.eye(m), rhs[:, None]])
    basis = list(range(ncols, ncols + m))
    art_cost = np.concatenate([np.zeros(ncols), np.ones(m), [0.0]])
    _simplex_iterate(tab, basis, art_cost, ncols + m)
    phase1 = sum(tab[i, -1] for i in range(m) if basis[i] >= ncols)
    if phase1 > 1e-8 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
        raise Infeasible("phase-1 optimum is positive")

    # Drive remaining artificial variables out of the basis.
    for i in range(m):
        if basis[i] < ncols:
            continue
        pivot_col = -1
        for j in range(ncols):
            if abs(tab[i, j]) > _PIVOT_TOL:
                pivot_col = j
                break
        if pivot_col >= 0:
            _pivot(tab, i, pivot_col)
            basis[i] = pivot_col

    keep = [i for i in range(m) if basis[i] < ncols]
    tab = np.hstack([tab[keep][:, :ncols], tab[keep][:, -1:]])
    basis = [basis[i] for i in keep]

    full_cost = np.concatenate([cost, [0.0]])
    _simplex_iterate(tab, basis, full_cost, ncols)

    z = np.zeros(ncols)
    for i, b in enumerate(basis):
        z[b] = tab[i, -1]
    return z


def _simplex_iterate(tab, basis, cost, ncols):
    """Run Bland-rule simplex iterations in place until optimal."""
    m = len(basis)
    while True:
        reduced = cost[:ncols].copy()
        for i, b in enumerate(basis):
            if abs(cost[b]) > 0:
                reduced -= cost[b] * tab[i, :ncols]
        entering = -1
        for j in range(ncols):
            if j in basis:
                continue
            if reduced[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return
        ratio = np.inf
        leaving = -1
        for i in range(m):
            a = tab[i, entering]
            if a > _PIVOT_TOL:
                r = tab[i, -1] / a
                # Smallest ratio; ties broken by smallest basis index.
                if r < ratio - 1e-12 or (abs(r - ratio) <= 1e-12 and
                                         (leaving < 0 or basis[i] < basis[leaving])):
                    ratio = r
                    leaving = i
        if leaving < 0:
            raise Unbounded(f"entering column {entering} is unbounded")
        _pivot(tab, leaving, entering)
        basis[leaving] = entering


def _pivot(tab, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 0:
            tab[i] -= tab[i, col] * tab[row]
