"""Least-squares reconstruction of a polytope from support evaluations.

For a fixed fan the estimate is the constrained least-squares minimizer
over the deformation cone; the fitted value vector is always unique even
when the minimizing support vector is not, and the solution set is a
polyhedron whose geometry is reported alongside the estimate.  A list of
candidate fans over the same rays turns the problem piecewise quadratic;
ties between fans are reported, never broken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import design as design_mod
from . import qp
from .design import Dataset, DesignMatrix, UniquenessReport, uniqueness_report
from .fan import SimplicialFan


@dataclass(frozen=True)
class SolutionSetDescription:
    """Shape of the minimizer set in parameter space.

    ``dimension`` 0 means the reconstruction is unique for this data.  For
    a bounded one-dimensional set the two endpoints are reported; higher
    dimensions report dimension and boundedness only.
    """

    dimension: int
    bounded: bool
    segment_endpoints: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class ReconstructionResult:
    h_hat: np.ndarray
    y_hat: np.ndarray
    objective: float
    solution_set: SolutionSetDescription
    uniqueness: UniquenessReport
    qp_solution: qp.QPSolution


@dataclass(frozen=True)
class MultiReconstruction:
    """Per-fan results plus the set of fans attaining the best objective."""

    results: tuple[ReconstructionResult | None, ...]
    errors: tuple[Exception | None, ...]
    best_objective: float
    minimizing_fans: tuple[int, ...]

    @property
    def is_tie(self) -> bool:
        return len(self.minimizing_fans) > 1


def reconstruct(fan: SimplicialFan, dataset: Dataset,
                opts: qp.SolverOptions | None = None) -> ReconstructionResult:
    """Least-squares estimate of the support vector for one fan.

    Builds the wall system and the design in cell form, solves the
    constrained program on the design's one factorization, and attaches the
    uniqueness diagnostics and solution-set description; no dense m x n
    design is made when m > n.  Noiseless data from a member
    of the deformation cone yields objective zero.  Raises
    ``qp.Uncertified`` when the solution's KKT residual, measured on the
    design itself, exceeds its tolerance.
    """
    dm = design_mod.build_design(fan, dataset.directions)
    walls = fan.wall_system
    problem = qp.ConstrainedLS(A=dm.operator, y=dataset.values, B=walls.matrix)
    sol = qp.solve_cls(problem, opts, factor=dm.factor)
    if not sol.certified:
        raise qp.Uncertified(f"KKT residual {sol.kkt_residual:.3g} above its "
                             f"tolerance {sol.kkt_tolerance:.3g}", sol)
    y_hat = dm.operator.dot(sol.h_star)
    report = uniqueness_report(fan, dm)
    sset = solution_set(fan, dm, sol.h_star)
    return ReconstructionResult(
        h_hat=sol.h_star,
        y_hat=y_hat,
        objective=sol.objective,
        solution_set=sset,
        uniqueness=report,
        qp_solution=sol,
    )


def solution_set(fan: SimplicialFan, design: DesignMatrix, h_hat) -> SolutionSetDescription:
    """Describe ``{h in cone : A h = A h_hat}`` around an optimal ``h_hat``.

    Each kernel vector z of the design is probed for how far ``h_hat`` can
    move along it while staying in the cone, ``B (h_hat + lambda z) >= 0``:
    a one-variable LP whose answer is a ratio test over the walls (Schrijver,
    *Theory of Linear and Integer Programming*, 1986, ch. 8), run for every
    kernel vector at once by ``_extents``.  Dimension counts the kernel
    directions with room to move; for a single kernel direction the two
    extents give the exact segment endpoints.
    """
    h_hat = np.asarray(h_hat, float)
    rank, kernel = design_mod.numeric_rank(design)
    B = fan.wall_system.matrix
    if rank == design.n:
        return SolutionSetDescription(dimension=0, bounded=True)

    tol = 1e-9 * (1.0 + float(np.linalg.norm(h_hat)))
    bounded = not detect_unbounded(fan, design)
    lo, hi = _extents(B @ h_hat, B @ kernel.T)
    movable = int(np.sum(hi - lo > tol))
    endpoints = None
    if kernel.shape[0] == 1 and movable == 1 and bounded:
        endpoints = (h_hat + lo[0] * kernel[0], h_hat + hi[0] * kernel[0])
    return SolutionSetDescription(dimension=movable, bounded=bounded,
                                  segment_endpoints=endpoints)


def _extents(g: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extremal steps ``lo_k <= 0 <= hi_k`` with ``g + lambda G[:, k] >= 0``.

    ``g = B h_hat`` and ``G = B K^T``, one column per kernel vector.  A wall
    blocks column k upward when ``G[i, k] < -1e-12 (1 + max_i |G[i, k]|)``,
    and limits the step to ``max(g_i, 0) / -G[i, k]``; downward is the same
    test on ``-G``.  These are the falling-row rule and the clamped slack of
    ``qp._ratio_test``.  An unblocked direction has extent +-inf.
    """
    slack = np.where(g > 0.0, g, 0.0)[:, None]
    tol = 1e-12 * (1.0 + np.max(np.abs(G), axis=0, initial=0.0))

    def extent(step):
        limits = np.divide(slack, -step, out=np.full(step.shape, np.inf),
                           where=step < -tol)
        return limits.min(axis=0, initial=np.inf)

    return -extent(-G), extent(G)


def detect_unbounded(fan: SimplicialFan, design: DesignMatrix) -> bool:
    """Whether the solution set is unbounded, i.e. the cone meets the kernel:
    with h = K^T lambda over the design kernel K, ``B K^T lambda >= 0`` has
    a cone of positive dimension."""
    _, kernel = design_mod.numeric_rank(design)
    return qp.cone_dimension(fan.wall_system.matrix @ kernel.T) > 0


def reconstruct_multi(fans: list[SimplicialFan], dataset: Dataset,
                      opts: qp.SolverOptions | None = None) -> MultiReconstruction:
    """Run the estimator for every candidate fan over the same rays.

    Per-fan failures are recorded and do not stop the remaining fans; if all
    fail, the first fan's exception is raised.  All fans whose objective is
    within ``1e-8 (1 + ||y||^2)`` of the best are reported as minimizers, a
    tolerance relative to ``||y||^2`` so exact ties survive floating point.
    """
    if not fans:
        raise ValueError("need at least one fan")
    rays0 = fans[0].rays
    for k, f in enumerate(fans[1:], start=1):
        if f.rays.shape != rays0.shape or not np.allclose(f.rays, rays0, atol=1e-12):
            raise ValueError(f"fan {k} has a different ray list")
    tie_tol = 1e-8 * (1.0 + float(dataset.values @ dataset.values))

    results: list[ReconstructionResult | None] = []
    errors: list[Exception | None] = []
    for f in fans:
        try:
            results.append(reconstruct(f, dataset, opts))
            errors.append(None)
        except Exception as exc:  # noqa: BLE001 - reported per fan
            results.append(None)
            errors.append(exc)
    objectives = [r.objective for r in results if r is not None]
    if not objectives:
        raise errors[0]
    best = min(objectives)
    minimizers = tuple(i for i, r in enumerate(results)
                       if r is not None and r.objective <= best + tie_tol)
    return MultiReconstruction(results=tuple(results), errors=tuple(errors),
                               best_objective=best, minimizing_fans=minimizers)


def gk_estimate(rays, dataset: Dataset,
                opts: qp.SolverOptions | None = None) -> np.ndarray:
    """Support-point baseline: fit one touching point per measurement.

    Solves the lifted least-squares problem in the m point variables
    ``x_1 .. x_m`` with the pairwise comparison constraints
    ``<x_j, u_i> <= <x_i, u_i>``, then returns the smallest polytope with
    the given facet directions containing the fitted points:
    ``h_i = max_j <x_j, v_i>``.  With measurements taken in the facet
    directions themselves this reproduces the constrained estimator; for
    other directions it may drift far from it.
    """
    rays = np.asarray(rays, float)
    U = dataset.directions
    y = dataset.values
    m, d = U.shape
    A = np.zeros((m, m * d))
    for i in range(m):
        A[i, i * d:(i + 1) * d] = U[i]
    rows = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            row = np.zeros(m * d)
            row[i * d:(i + 1) * d] = U[i]
            row[j * d:(j + 1) * d] = -U[i]
            rows.append(row)
    B = np.array(rows) if rows else np.zeros((0, m * d))
    sol = qp.solve_cls(qp.ConstrainedLS(A=A, y=y, B=B), opts)
    points = sol.h_star.reshape(m, d)
    return (points @ rays.T).max(axis=0)
