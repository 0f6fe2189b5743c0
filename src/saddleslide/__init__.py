"""Accelerated sliding solver for composite saddle point problems.

Solves ``min_x max_y p(x) + R(x, y) - q(y)`` with separated accounting of
composite-gradient and coupling-oracle calls, plus bilinear
specializations and regularization reductions for problems without
strong curvature.
"""

from .bilinear import (
    BilinearProblem,
    CouplingOperator,
    QuadraticForm,
    eliminate_y,
    estimate_spectral_bounds,
    solve_affine_constrained,
    solve_bilinear,
    solve_bilinear_linear_composites,
    split_bilinear,
    wrap_counting_bilinear,
)
from .inner import AuxiliaryProblem, InnerResult, check_inner_criterion, solve_auxiliary
from .outer import (
    ConvergenceReport,
    SolveConfig,
    SolverTuning,
    initial_potential,
    required_outer_iterations,
    solve,
    tune_parameters,
)
from .problems import (
    CompositeSaddleProblem,
    OracleCounters,
    PointPair,
    SmoothnessSpec,
    unweighted_distance_sq,
    validate_spec,
    weighted_distance_sq,
    wrap_counting,
)
from .regularization import (
    RegularizationPlan,
    apply_plan,
    plan_cc,
    plan_scc,
)

__all__ = [
    "AuxiliaryProblem",
    "BilinearProblem",
    "CompositeSaddleProblem",
    "ConvergenceReport",
    "CouplingOperator",
    "InnerResult",
    "OracleCounters",
    "PointPair",
    "QuadraticForm",
    "RegularizationPlan",
    "SmoothnessSpec",
    "SolveConfig",
    "SolverTuning",
    "apply_plan",
    "check_inner_criterion",
    "eliminate_y",
    "estimate_spectral_bounds",
    "initial_potential",
    "plan_cc",
    "plan_scc",
    "required_outer_iterations",
    "solve",
    "solve_affine_constrained",
    "solve_auxiliary",
    "solve_bilinear",
    "solve_bilinear_linear_composites",
    "split_bilinear",
    "tune_parameters",
    "unweighted_distance_sq",
    "validate_spec",
    "weighted_distance_sq",
    "wrap_counting",
    "wrap_counting_bilinear",
]

__version__ = "0.1.0"
