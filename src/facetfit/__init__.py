"""Reconstruction of polytopes with fixed facet directions from
support-function evaluations over a fixed simplicial normal fan."""

__version__ = "0.1.0"

from .design import (
    Dataset,
    DesignMatrix,
    DirectionGraph,
    Matching,
    UniquenessReport,
    build_design,
    direction_graph,
    max_matching,
    numeric_rank,
    ray_facet_graph,
    uniqueness_report,
)
from .estimator import (
    MultiReconstruction,
    ReconstructionResult,
    SolutionSetDescription,
    detect_unbounded,
    gk_estimate,
    reconstruct,
    reconstruct_multi,
    solution_set,
)
from .fan import (
    BarycentricVector,
    DegenerateWall,
    FanConstants,
    InvalidFan,
    NoCarrier,
    SimplicialFan,
    ValidationReport,
    WallCrossingSystem,
    c_delta,
    carrier,
    carriers,
    max_linear_over_cone_cap,
    validate,
    wall_crossings,
)
from .geometry import (
    NotInDeformationCone,
    VertexMap,
    hausdorff,
    hausdorff_bound,
    is_deformation,
    is_irredundant,
    minkowski_add,
    support_value,
    vertices,
)
from .qp import (
    ConstrainedLS,
    Infeasible,
    IterationLimit,
    LPSolution,
    QPSolution,
    SolverOptions,
    Unbounded,
    solve_cls,
    solve_lp,
)
from .sim import (
    BoundParameters,
    ConvergenceRecord,
    EigenReport,
    HypothesisUnmet,
    NoiseModel,
    NonpositiveLambda,
    QuotaInfeasible,
    SamplingPlan,
    eigen_checks,
    facet_direction_plan,
    in_ct,
    make_plan,
    run_convergence,
    sample_concentrated,
    sample_uniform_sphere,
    theoretical_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
