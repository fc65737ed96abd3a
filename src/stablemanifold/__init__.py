"""Global policy-function solver for deterministic equilibrium models.

Pipeline: specify a model's equilibrium conditions, locate the steady
state, assemble the stacked first-order system, decouple stable and
unstable directions by an ordered real Schur similarity, and construct a
sequence of increasingly accurate policy functions as fixed points of a
contraction on the decoupled system.  Comes with contraction-condition
verification, a priori error bounds, trajectory simulation, an
extended-path cross-check, and a worked growth-model benchmark with a
closed-form oracle.
"""

from .exceptions import (
    BalancingError,
    BlanchardKahnError,
    ConfigError,
    DimensionMismatchError,
    ForwardDivergenceError,
    InfeasibleInitialError,
    NonContractionError,
    SingularJacobianError,
    SingularSystemError,
    SolverError,
    SteadyStateError,
    TransformBuildError,
    UnitRootError,
)
from .first_order import FirstOrderSystem, build_first_order
from .growth import (
    GrowthParams,
    GrowthPipeline,
    build_growth,
    build_growth_pipeline,
    closed_form,
    closed_form_start,
    taylor_policy,
)
from .manifold import (
    ConditionReport,
    DomainSpec,
    ErrorBound,
    LemmaSequence,
    PolicyApprox,
    check_conditions,
    error_bound,
    eval_lyapunov_perron,
    eval_policy,
    eval_policy_hadamard,
    lemma_recursion,
    picard_iterates,
    search_domain,
)
from .model import (
    DerivativeBlocks,
    ModelSpec,
    SteadyState,
    eval_residual,
    find_steady_state,
    numeric_derivatives,
)
from .solver import (
    Trajectory,
    make_exogenous_test_system,
    policy_at_levels,
    simulate,
    simulate_stochastic,
    solve_ep,
    solve_initial,
)
from .spectral import (
    SpectralSplit,
    TransformedSystem,
    build_system,
    build_transformed,
    rescale_columns,
    schur_split,
    transformed_from_maps,
)

__version__ = "0.1.0"

__all__ = [
    "BalancingError",
    "BlanchardKahnError",
    "ConditionReport",
    "ConfigError",
    "DerivativeBlocks",
    "DimensionMismatchError",
    "DomainSpec",
    "ErrorBound",
    "FirstOrderSystem",
    "ForwardDivergenceError",
    "GrowthParams",
    "GrowthPipeline",
    "InfeasibleInitialError",
    "LemmaSequence",
    "ModelSpec",
    "NonContractionError",
    "PolicyApprox",
    "SingularJacobianError",
    "SingularSystemError",
    "SolverError",
    "SpectralSplit",
    "SteadyState",
    "SteadyStateError",
    "Trajectory",
    "TransformBuildError",
    "TransformedSystem",
    "UnitRootError",
    "build_first_order",
    "build_growth",
    "build_growth_pipeline",
    "build_system",
    "build_transformed",
    "check_conditions",
    "closed_form",
    "closed_form_start",
    "error_bound",
    "eval_lyapunov_perron",
    "eval_policy",
    "eval_policy_hadamard",
    "eval_residual",
    "find_steady_state",
    "lemma_recursion",
    "make_exogenous_test_system",
    "numeric_derivatives",
    "picard_iterates",
    "policy_at_levels",
    "rescale_columns",
    "schur_split",
    "search_domain",
    "simulate",
    "simulate_stochastic",
    "solve_ep",
    "solve_initial",
    "taylor_policy",
    "transformed_from_maps",
]
