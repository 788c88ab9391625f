"""Variance-reduced forward-reflected-backward splitting for composite
inclusions 0 in G(x) + T(x), with a benchmark harness and a Monte-Carlo
verification suite for the estimator contracts."""

__version__ = "0.1.0"

from .core import (InclusionProblem, InfeasibleParametersError, Resolvent,
                   RowOperator, SampledOperator, UnsupportedConfigError,
                   apply_resolvent, ball_box_resolvent, fb_residual,
                   identity_resolvent, soft_threshold_resolvent)
from .estimators import (BIASED_KINDS, KINDS, UNBIASED_KINDS, EstimatorParams,
                         EstimatorState, TheoryCard, default_params,
                         estimator_step, increasing_batch_schedule,
                         make_estimator, sizing_rule_sides, theory_card)
from .solver import (DivergenceError, RunTrace, SolverConfig, run,
                     theory_stepsize, validate_rates)

__all__ = [
    "__version__",
    "SampledOperator", "RowOperator",
    "InclusionProblem", "Resolvent", "UnsupportedConfigError",
    "InfeasibleParametersError", "apply_resolvent", "ball_box_resolvent",
    "identity_resolvent", "soft_threshold_resolvent",
    "fb_residual",
    "KINDS", "UNBIASED_KINDS", "BIASED_KINDS", "EstimatorParams",
    "EstimatorState", "TheoryCard", "make_estimator", "estimator_step",
    "theory_card", "default_params", "sizing_rule_sides",
    "increasing_batch_schedule",
    "SolverConfig", "RunTrace", "DivergenceError", "run",
    "theory_stepsize", "validate_rates",
]
