"""Utility-maximizing rate allocation on the Gaussian multiple-access channel.

The capacity region is a polymatroid cut out by 2**M - 1 sum-rate
constraints; the solver runs gradient projection with approximate
projections, finding violated constraints by the rate-splitting recursion
(polynomial in M). Enumerating all constraints is left to the diagnostic
violation count and the ``region`` listing, both capped at small M. All
rates are in nats per channel use.
"""

from .channel import (
    BRUTE_FORCE_MAX_USERS,
    ChannelConfig,
    awgn_capacity,
    constraint_slack,
    constraint_table,
    subset_capacity,
    subset_members,
)
from .optimizer import (
    ConstantStep,
    DiminishingStep,
    IterationTrace,
    SolveSettings,
    StepsizeRule,
    alpha_max,
    count_violations,
    expansion_delta,
    greedy_vertex,
    solve,
)
from .projection import (
    ProjectionResult,
    approximate_projection,
    rate_split_finder,
)
from .utility import LinearUtility, Utility, WeightedLogUtility
from .violations import (
    OVERLAP_TOL,
    Feasible,
    SpinOffUser,
    SplitState,
    Violated,
    ViolationReport,
    elevation,
    rate_split_analyze,
)

__all__ = [
    "BRUTE_FORCE_MAX_USERS",
    "OVERLAP_TOL",
    "ChannelConfig",
    "ConstantStep",
    "DiminishingStep",
    "Feasible",
    "IterationTrace",
    "LinearUtility",
    "ProjectionResult",
    "SolveSettings",
    "SpinOffUser",
    "SplitState",
    "StepsizeRule",
    "Utility",
    "Violated",
    "ViolationReport",
    "WeightedLogUtility",
    "alpha_max",
    "approximate_projection",
    "awgn_capacity",
    "constraint_slack",
    "constraint_table",
    "count_violations",
    "elevation",
    "expansion_delta",
    "greedy_vertex",
    "rate_split_analyze",
    "rate_split_finder",
    "solve",
    "subset_capacity",
    "subset_members",
]
