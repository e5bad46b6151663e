"""Bidirectional algorithmic-cooling simulators and shot-noise analysis for
sign-based quantum classification."""

from .klocal import (
    alpha_infinity_3local,
    asymptotic_population_vector,
    build_uqr_3local,
    fibonacci,
)
from .refrigerator import (
    ConvergenceError,
    RefrigeratorConfig,
    SteadyStateResult,
    alpha_infinity,
    build_uqr,
    optimal_bounds,
    steady_states,
)
from .sampling import (
    BudgetError,
    ResourceComparison,
    exact_sign_error,
    monte_carlo_sign_errors,
    predict_error_bound,
    resource_matched_comparisons,
)
from .single_shot import (
    alpha_ac,
    alpha_ac_erf,
    compress_products,
    compression_permutation,
    reduction_factor_ac,
)
from .states import (
    PermutationSpec,
    marginal_targets,
    pairwise_sum,
    product_probs,
    window_swaps,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "PermutationSpec",
    "RefrigeratorConfig",
    "ResourceComparison",
    "SteadyStateResult",
    "alpha_ac",
    "alpha_ac_erf",
    "alpha_infinity",
    "alpha_infinity_3local",
    "asymptotic_population_vector",
    "build_uqr",
    "build_uqr_3local",
    "compress_products",
    "compression_permutation",
    "exact_sign_error",
    "fibonacci",
    "marginal_targets",
    "monte_carlo_sign_errors",
    "optimal_bounds",
    "pairwise_sum",
    "predict_error_bound",
    "product_probs",
    "reduction_factor_ac",
    "resource_matched_comparisons",
    "steady_states",
    "window_swaps",
]
