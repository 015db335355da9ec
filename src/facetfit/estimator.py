"""Least-squares reconstruction of a polytope from support evaluations.

For a fixed fan the estimate is the constrained least-squares minimizer
over the deformation cone; the fitted value vector is always unique even
when the minimizing support vector is not, and the solution set is a
polyhedron whose geometry is reported alongside the estimate.  A list of
candidate fans over the same rays turns the problem piecewise quadratic;
ties between fans are reported, never broken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """One fan's estimate, its objective and the shape of its minimizer set.

    ``uniqueness`` (the rank, matching and coverage diagnostics of
    ``uniqueness_report``) and ``y_hat`` (the fitted values ``A h_hat``)
    are computed on first read from the ``fan`` and ``design`` the result
    holds, so a caller that reads neither, like a convergence run, does
    not pay for them.  A result therefore keeps its design, and the
    design's factor, alive for as long as it is held.  ``design`` is the
    dataset's own when it came with one, so it may be shared with other
    results.
    """

    h_hat: np.ndarray
    objective: float
    solution_set: SolutionSetDescription
    qp_solution: qp.QPSolution
    fan: SimplicialFan = field(compare=False, repr=False)
    design: DesignMatrix = field(compare=False, repr=False)

    @cached_property
    def uniqueness(self) -> UniquenessReport:
        """``uniqueness_report`` of the design, made on first read and looked
        up in this module; its rank and kernel are the ones ``solution_set``
        already computed."""
        return uniqueness_report(self.fan, self.design)

    @cached_property
    def y_hat(self) -> np.ndarray:
        """The fitted values ``A h_hat``, made on first read; unique even
        when ``h_hat`` is not."""
        return self.design.dot(self.h_hat)


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
    constrained program on the design's one factorization, and describes
    the solution set; no dense m x n design is made.  A dataset that
    carries its ``design`` skips the carrier lookup, and the factor and
    rank it holds are not made again; ``ValueError`` unless that design
    was built on this ``fan`` (the same object) from directions equal to
    the dataset's.  The uniqueness diagnostics and the fitted values
    ``y_hat`` are computed when the result's fields are first read, from
    the design it holds.  The rank SVD runs here, for the solution set,
    unless the design already holds it, so every refusal comes from this
    call.  Noiseless data from a member of the deformation cone yields
    objective zero.  ``qp.Uncertified`` comes from ``qp.solve_cls``, whose
    certificate is measured on the design itself.
    """
    dm = dataset.design
    if dm is None:
        dm = design_mod.build_design(fan, dataset.directions)
    elif dm.fan is not fan:
        raise ValueError("the dataset's design was built on another fan")
    elif not np.array_equal(dm.directions, dataset.directions):
        raise ValueError("the dataset's design was built from other directions")
    sol = qp.solve_cls(qp.ConstrainedLS(A=dm, y=dataset.values, B=fan.wall_system.matrix),
                       opts)
    return ReconstructionResult(
        h_hat=sol.h_star,
        objective=sol.objective,
        solution_set=solution_set(fan, dm, sol.h_star),
        qp_solution=sol,
        fan=fan,
        design=dm,
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
    rank, kernel = design.rank_kernel
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

    ``g = B h_hat`` and ``G = B K^T``, one column per kernel vector; ``hi``
    is the column minima of ``qp.step_limits(g, G)`` and ``-lo`` those of
    ``qp.step_limits(g, -G)``.  An unblocked direction has extent +-inf.
    """
    return (-qp.step_limits(g, -G).min(axis=0, initial=np.inf),
            qp.step_limits(g, G).min(axis=0, initial=np.inf))


def detect_unbounded(fan: SimplicialFan, design: DesignMatrix) -> bool:
    """Whether the solution set is unbounded, i.e. the cone meets the kernel:
    with h = K^T lambda over the design kernel K, ``B K^T lambda >= 0`` has
    a cone of positive dimension."""
    _, kernel = design.rank_kernel
    return qp.cone_dimension(fan.wall_system.matrix @ kernel.T) > 0


def reconstruct_multi(fans: list[SimplicialFan], dataset: Dataset) -> MultiReconstruction:
    """Run the estimator for every candidate fan over the same rays, each
    with the default solver options (``reconstruct`` takes options for one
    fan).  ``ValueError`` for no fans or for fans with different rays.

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
            results.append(reconstruct(f, dataset))
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


def gk_estimate(rays, dataset: Dataset) -> np.ndarray:
    """Support-point baseline: fit one touching point per measurement.

    Solves the lifted least-squares problem in the m point variables
    ``x_1 .. x_m`` with the pairwise comparison constraints
    ``<x_j, u_i> <= <x_i, u_i>``, then returns the smallest polytope with
    the given facet directions containing the fitted points:
    ``h_i = max_j <x_j, v_i>``.  With measurements taken in the facet
    directions themselves this reproduces the constrained estimator; for
    other directions it may drift far from it.  The lifted problem is
    solved cold by ``qp.solve_cls``, whose ``Uncertified`` propagates.
    """
    rays = np.asarray(rays, float)
    U = dataset.directions
    y = dataset.values
    m, d = U.shape
    # Both matrices as (rows, m, d): row i of A holds u_i at x_i; one row of
    # B per ordered pair i != j, i-major, holds u_i at x_i and -u_i at x_j.
    A = np.zeros((m, m, d))
    A[np.arange(m), np.arange(m)] = U
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    B = np.zeros((i.size, m, d))
    B[np.arange(i.size), i] = U[i]
    B[np.arange(i.size), j] = -U[i]
    sol = qp.solve_cls(qp.ConstrainedLS(A=A.reshape(m, m * d), y=y,
                                        B=B.reshape(i.size, m * d)))
    points = sol.h_star.reshape(m, d)
    return (points @ rays.T).max(axis=0)
