"""Gradient projection with approximate projections.

The iteration is R <- P~(R + alpha * g) with g a utility subgradient and P~
the approximate projection. Subgradient steps are not monotone, so the solver
tracks and returns the best iterate seen. Also here: the stepsize cap under
which a gradient step can violate at most M constraints, and the greedy
vertex construction used as a brute-force optimum oracle for linear utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    BRUTE_FORCE_MAX_USERS,
    ChannelConfig,
    awgn_capacity,
    constraint_slacks,
    constraint_table,
    rate_vector,
)
from .projection import ViolationFinder, approximate_projection, rate_split_finder
from .utility import Utility


@dataclass(frozen=True)
class ConstantStep:
    """alpha_k = alpha."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("stepsize must be positive")

    def at(self, k: int, cap: float = math.inf) -> float:
        return self.alpha


@dataclass(frozen=True)
class DiminishingStep:
    """alpha_k = alpha0 / sqrt(k + 1); vanishes but sums to infinity."""

    alpha0: float = 0.1

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("stepsize must be positive")

    def at(self, k: int, cap: float = math.inf) -> float:
        return self.alpha0 / math.sqrt(k + 1.0)


@dataclass(frozen=True)
class TheoremCappedStep:
    """Diminishing schedule clipped at the at-most-M-violations cap."""

    alpha0: float = 0.1

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("stepsize must be positive")

    def at(self, k: int, cap: float = math.inf) -> float:
        return min(self.alpha0 / math.sqrt(k + 1.0), cap)


StepsizeRule = ConstantStep | DiminishingStep | TheoremCappedStep


@dataclass(frozen=True)
class SolveSettings:
    """Iteration budget and the stall test on the running best value.

    The seed is reserved for randomized test-point sampling around the solver;
    the iteration itself is deterministic.
    """

    max_iters: int = 100_000
    tol: float = 1e-12
    window: int = 50
    seed: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class IterationTrace:
    """Per-iteration record. Row 0 is the start point; row k is the iterate
    after k steps together with the stepsize, subgradient norm, pre-projection
    violation count and hyperplane-projection count of the step that produced
    it. Violation counts are -1 when M exceeds the enumeration cap.
    """

    rates: np.ndarray
    utilities: np.ndarray
    stepsizes: np.ndarray
    grad_norms: np.ndarray
    violations_pre: np.ndarray
    projections: np.ndarray
    best_rates: np.ndarray
    best_utility: float
    best_iter: int
    stop_reason: str

    def __len__(self) -> int:
        return len(self.utilities)

    @property
    def iterations(self) -> int:
        return len(self.utilities) - 1


def expansion_delta(config: ChannelConfig) -> float:
    """Largest uniform constraint relaxation certified to keep the number of
    simultaneously violated constraints at M.

    Equals one quarter of ln(1 + P(1)P(2) / ((N0 + sum_{i>2} P(i)) * (N0 + sum P)))
    with the powers sorted ascending, which lower-bounds half the submodularity
    gap f(S) + f(T) - f(S&T) - f(S|T) over all crossing pairs S, T. Returns
    +inf for a single user (no crossing pair exists).
    """
    if config.num_users < 2:
        return math.inf
    p = sorted(config.powers)
    total = sum(p)
    tail = total - p[0] - p[1]
    denom = (config.noise + tail) * (config.noise + total)
    return 0.25 * math.log1p(p[0] * p[1] / denom)


def alpha_max(config: ChannelConfig, bound: float) -> float:
    """Stepsize cap guaranteeing a gradient step violates at most M constraints.

    ``bound`` is the subgradient norm bound of the utility in use.
    """
    if not bound > 0:
        raise ValueError(f"subgradient bound must be positive, got {bound}")
    if config.num_users < 2:
        return math.inf
    return expansion_delta(config) / (bound * math.sqrt(config.num_users))


def greedy_vertex(config: ChannelConfig, order) -> np.ndarray:
    """Vertex of the region reached by serving users in the given order.

    Telescoping the subset capacities along a permutation yields the rate
    point achieved by successive cancellation in that order; the rates sum to
    the full sum-rate capacity exactly. Enumerating all M! orders gives the
    brute-force optimum for linear utilities.
    """
    seq = [int(i) for i in order]
    if sorted(seq) != list(range(1, config.num_users + 1)):
        raise ValueError(f"not a permutation of 1..{config.num_users}: {order}")
    rates = np.zeros(config.num_users)
    power_sum = 0.0
    prev_cap = 0.0
    for i in seq:
        power_sum += config.powers[i - 1]
        cap = awgn_capacity(power_sum, config.noise)
        rates[i - 1] = cap - prev_cap
        prev_cap = cap
    return rates


def count_violations(config: ChannelConfig, point, tol: float = 1e-9) -> int:
    """Number of sum-rate constraints the point violates (enumeration, small M).

    Raises ValueError on NaN or infinite coordinates.
    """
    r = rate_vector(config, point)
    return int(np.count_nonzero(constraint_slacks(constraint_table(config), r) < -tol))


def solve(
    config: ChannelConfig,
    utility: Utility,
    rule: StepsizeRule = DiminishingStep(),
    settings: SolveSettings | None = None,
    finder: ViolationFinder = rate_split_finder,
) -> tuple[np.ndarray, IterationTrace]:
    """Maximize the utility over the capacity region from the all-zero start.

    Returns the best iterate by utility value and the full trace. Stops at
    max_iters or once the best value improves by less than tol over a window
    of iterations.
    """
    if settings is None:
        settings = SolveSettings()
    m = config.num_users

    cap = math.inf
    if isinstance(rule, TheoremCappedStep):
        b = utility.bound()
        cap = alpha_max(config, b) if b > 0 else math.inf

    countable = m <= BRUTE_FORCE_MAX_USERS

    rates = np.zeros(m)
    value = utility.value(rates)
    best_rates = rates.copy()
    best_value = value
    best_iter = 0

    rows_r = [rates.copy()]
    rows_u = [value]
    rows_a = [0.0]
    rows_g = [0.0]
    rows_v = [0]
    rows_p = [0]
    best_history = [best_value]

    stop_reason = "max_iters"
    for k in range(settings.max_iters):
        g = utility.subgradient(rates)
        alpha = rule.at(k, cap)
        step_point = rates + alpha * g
        violations = count_violations(config, step_point) if countable else -1
        result = approximate_projection(config, step_point, finder=finder)
        rates = result.point
        value = utility.value(rates)
        if value > best_value:
            best_value = value
            best_rates = rates.copy()
            best_iter = k + 1

        rows_r.append(rates.copy())
        rows_u.append(value)
        rows_a.append(alpha)
        rows_g.append(float(np.linalg.norm(g)))
        rows_v.append(violations)
        rows_p.append(len(result.hyperplanes_used))
        best_history.append(best_value)

        if len(best_history) > settings.window:
            if best_history[-1] - best_history[-1 - settings.window] < settings.tol:
                stop_reason = "stalled"
                break

    trace = IterationTrace(
        rates=np.array(rows_r),
        utilities=np.array(rows_u),
        stepsizes=np.array(rows_a),
        grad_norms=np.array(rows_g),
        violations_pre=np.array(rows_v, dtype=int),
        projections=np.array(rows_p, dtype=int),
        best_rates=best_rates.copy(),
        best_utility=best_value,
        best_iter=best_iter,
        stop_reason=stop_reason,
    )
    return best_rates, trace
