"""Diversity maximization with q-th-power distances.

Exact oracles, a greedy baseline, a grid-rounding approximation scheme for
remote-clique / remote-star / remote-bipartition, a near-linear remote-clique
scheme, a balanced min-bisection scheme, and seeded instance generators.
"""
from .baselines import brute_force_opt, greedy_clique
from .bisection import BisectionResult, min_bisection, star_center
from .cells import CellDecomposition, decompose_fixed, decompose_variable
from .diversity import (EXACT_BIPARTITION_CAP, MULTISET_SPLIT_CAP, Objective,
                        Solution, centroid_clique_identity, evaluate)
from .errors import (BudgetExceededError, EnumerationCapError,
                     InstanceParseError, MetricValidationError)
from .fast_clique import multiplicity_ladder, solve_fast
from .instances import (KSumInstance, ReductionVerdict, gen_clustered,
                        gen_graph_12metric, gen_ksum_reduction, gen_uniform,
                        verify_reduction, zero_sum_subset_exists)
from .metric import (MetricInstance, diameter_estimate, load_instance,
                     save_instance)
from .ptas import build_guess_grid, enumerate_compositions, solve

__version__ = "0.1.0"

__all__ = [
    "BisectionResult", "BudgetExceededError", "CellDecomposition",
    "EXACT_BIPARTITION_CAP", "EnumerationCapError", "InstanceParseError",
    "KSumInstance", "MULTISET_SPLIT_CAP", "MetricInstance",
    "MetricValidationError", "Objective", "ReductionVerdict", "Solution",
    "brute_force_opt", "build_guess_grid", "centroid_clique_identity",
    "decompose_fixed", "decompose_variable", "diameter_estimate",
    "enumerate_compositions", "evaluate", "gen_clustered",
    "gen_graph_12metric", "gen_ksum_reduction", "gen_uniform",
    "greedy_clique", "load_instance", "min_bisection", "multiplicity_ladder",
    "save_instance", "solve", "solve_fast", "star_center",
    "verify_reduction", "zero_sum_subset_exists",
]
