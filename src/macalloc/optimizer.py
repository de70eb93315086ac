"""Gradient projection with approximate projections.

The iteration is R <- P~(R + alpha * g) with g a utility subgradient and P~
the approximate projection. Subgradient steps are not monotone, so the solver
tracks and returns the best iterate seen. Also here: the stepsize cap under
which a gradient step can violate at most M constraints, the greedy vertex
construction used as a brute-force optimum oracle for linear utilities, and a
violation count by enumeration for diagnosing any point at small M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .channel import (
    ChannelConfig,
    _integer,
    _subset_sum,
    awgn_capacity,
    constraint_table,
    rate_vector,
    subset_sums,
)
from .projection import ViolationFinder, approximate_projection, rate_split_finder
from .utility import Utility


@dataclass(frozen=True)
class ConstantStep:
    """alpha_k = alpha."""

    alpha: float
    capped: ClassVar[bool] = False

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"stepsize must be positive and finite, got {self.alpha}")

    def at(self, k: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class DiminishingStep:
    """alpha_k = alpha0 / sqrt(k + 1); vanishes but sums to infinity.

    With ``capped``, :func:`solve` clips each step at :func:`alpha_max`, so
    that a gradient step can violate at most M constraints.
    """

    alpha0: float = 0.1
    capped: bool = False

    def __post_init__(self):
        if not 0 < self.alpha0 < math.inf:
            raise ValueError(f"stepsize must be positive and finite, got {self.alpha0}")

    def at(self, k: int) -> float:
        return self.alpha0 / math.sqrt(k + 1.0)


StepsizeRule = ConstantStep | DiminishingStep


@dataclass(frozen=True)
class SolveSettings:
    """Iteration budget and the stall test on the running best value.

    ``max_iters`` and ``window`` must be integers (numpy integers pass, bools
    do not) and are stored as Python ints.
    """

    max_iters: int = 100_000
    tol: float = 1e-12
    window: int = 50

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters"))
        object.__setattr__(self, "window", _integer(self.window, "window"))
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class IterationTrace:
    """Per-iteration record. Row 0 is the start point; row k is the iterate
    after k steps together with the stepsize, subgradient norm and
    hyperplane-projection count of the step that produced it. Step k projected
    ``rates[k-1] + stepsizes[k] * utility.subgradient(rates[k-1])``.
    """

    rates: np.ndarray
    utilities: np.ndarray
    stepsizes: np.ndarray
    grad_norms: np.ndarray
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
    Computed from the SNRs P_i / N0, so no product overflows at any scale,
    and with the tail summed on its own, so it is never negative.
    """
    if config.num_users < 2:
        return math.inf
    s = sorted(p / config.noise for p in config.powers)
    total = _subset_sum(s, range(1, len(s) + 1))
    tail = _subset_sum(s, range(3, len(s) + 1))
    return 0.25 * math.log1p(s[0] / (1.0 + tail) * (s[1] / (1.0 + total)))


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
    brute-force optimum for linear utilities. Raises ValueError unless
    ``order`` is a permutation of the integers 1..M.
    """
    seq = [_integer(i, "user index") for i in order]
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


def count_violations(config: ChannelConfig, point) -> int:
    """Number of sum-rate constraints the point exceeds by more than 1e-9.

    A diagnostic for any point that enumerates all 2**M - 1 constraints, so
    it is capped at 20 users; :func:`solve` does not call it.

    Raises ValueError on NaN or infinite coordinates: any of them makes the
    sum over all users non-finite, so the coordinates themselves are only
    inspected when that sum is. Finite coordinates whose sum overflows
    violate the constraints they overflow.
    """
    r = rate_vector(config, point)
    capacities = constraint_table(config)
    loads = subset_sums(r)
    if not math.isfinite(loads[-1]) and not np.isfinite(r).all():
        raise ValueError("rates must be finite")
    # in place: a second 2**M buffer costs more in page faults than the subtraction
    np.subtract(loads, capacities, out=loads)
    return int(np.count_nonzero(loads[1:] > 1e-9))


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

    Consecutive iterates are close, so each projection first re-tests the
    subsets the previous one projected onto (``hint=``); the finder then only
    has to find what is left and certify the result.
    """
    if settings is None:
        settings = SolveSettings()
    cap = math.inf
    if rule.capped:
        b = utility.bound()
        cap = alpha_max(config, b) if b > 0 else math.inf

    rates = np.zeros(config.num_users)
    value = utility.value(rates)
    best_rates = rates
    best_value = value
    best_iter = 0

    rows_r = [rates]
    rows_u = [value]
    rows_a = [0.0]
    rows_g = [0.0]
    rows_p = [0]
    best_history = [best_value]

    stop_reason = "max_iters"
    hint: tuple[frozenset[int], ...] = ()
    # every iterate is a fresh array that nothing mutates, so the rows and the
    # best point share it; only the trace's best point is a copy
    for k in range(settings.max_iters):
        g = utility.subgradient(rates)
        alpha = min(rule.at(k), cap)
        result = approximate_projection(config, rates + alpha * g, finder=finder, hint=hint)
        hint = result.hyperplanes_used
        rates = result.point
        value = utility.value(rates)
        if value > best_value:
            best_value = value
            best_rates = rates
            best_iter = k + 1

        rows_r.append(rates)
        rows_u.append(value)
        rows_a.append(alpha)
        rows_g.append(float(np.linalg.norm(g)))
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
        projections=np.array(rows_p, dtype=int),
        best_rates=best_rates.copy(),
        best_utility=best_value,
        best_iter=best_iter,
        stop_reason=stop_reason,
    )
    return best_rates, trace
