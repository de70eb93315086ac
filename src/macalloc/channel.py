"""Gaussian multiple-access channel capacity region.

The achievable region for M users with received powers P_1..P_M over noise
N0 is the polymatroid

    { R >= 0 : sum_{i in S} R_i <= C(sum_{i in S} P_i, N0)  for all S }

where C is the single-user AWGN capacity. Everything here is linear scale
(no dB) and every rate is in nats per channel use; divide by ln 2 for bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# Guard for the 2**M enumeration oracles.
BRUTE_FORCE_MAX_USERS = 20

# Default absolute tolerance on constraint slack for feasibility queries.
FEASIBILITY_TOL = 1e-9


def awgn_capacity(power: float, noise: float) -> float:
    """Single-user AWGN capacity 0.5 * ln(1 + power/noise), in nats."""
    if not noise > 0.0:
        raise ValueError(f"noise must be positive, got {noise}")
    if power < 0.0:
        raise ValueError(f"power must be nonnegative, got {power}")
    return 0.5 * math.log1p(power / noise)


@dataclass(frozen=True)
class ChannelConfig:
    """Received powers P_1..P_M and the noise level of the shared channel.

    Powers must be strictly positive: a zero-power user would force a zero
    rate and produce degenerate elevations in the rate-splitting recursion.
    """

    powers: tuple[float, ...]
    noise: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        object.__setattr__(self, "noise", float(self.noise))
        if len(self.powers) < 1:
            raise ValueError("need at least one user")
        for i, p in enumerate(self.powers):
            if not (math.isfinite(p) and p > 0.0):
                raise ValueError(f"power {i + 1} must be finite and > 0, got {p}")
        if not (math.isfinite(self.noise) and self.noise > 0.0):
            raise ValueError(f"noise must be finite and > 0, got {self.noise}")

    @property
    def num_users(self) -> int:
        return len(self.powers)


def subset_mask(members: Iterable[int]) -> int:
    """Bitmask of a set of 1-based user indices (bit i-1 marks user i)."""
    mask = 0
    for i in members:
        mask |= 1 << (i - 1)
    return mask


def subset_members(mask: int) -> frozenset[int]:
    """Inverse of :func:`subset_mask`."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _checked_members(config: ChannelConfig, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    for i in s:
        if not 1 <= i <= config.num_users:
            raise ValueError(f"user index {i} out of range 1..{config.num_users}")
    return s


def subset_capacity(config: ChannelConfig, members: Iterable[int]) -> float:
    """Sum-rate bound f(S) = C(sum_{i in S} P_i, noise); f({}) = 0 exactly."""
    s = _checked_members(config, members)
    if not s:
        return 0.0
    return awgn_capacity(sum(config.powers[i - 1] for i in s), config.noise)


def constraint_slack(config: ChannelConfig, rates, members: Iterable[int]) -> float:
    """f(S) minus the rates' sum over S; negative iff the constraint is violated."""
    s = _checked_members(config, members)
    if not s:
        raise ValueError("slack is defined for nonempty subsets only")
    r = np.asarray(rates, dtype=float)
    return subset_capacity(config, s) - float(sum(r[i - 1] for i in s))


def subset_sums(values) -> np.ndarray:
    """Sums of ``values`` over every subset: entry k is the sum over the bitmask k.

    Built by doubling, sums[S] = sums[S minus {i}] + values[i] with i the
    highest member of S, so it takes 2**M additions and 2**M floats, and each
    sum adds its terms in increasing index order. Entry 0 is the empty sum 0.
    """
    x = np.asarray(values, dtype=float).tolist()
    sums = np.zeros(1 << len(x))
    n = 1
    for xi in x:
        np.add(sums[:n], xi, out=sums[n : n + n])
        n += n
    return sums


@lru_cache(maxsize=32)
def constraint_table(config: ChannelConfig) -> tuple[np.ndarray, np.ndarray]:
    """All 2**M - 1 constraints at once, for vectorized oracles.

    Returns ``(power_sums, capacities)``, two read-only arrays of length
    2**M indexed by bitmask: entry k belongs to the subset with bitmask k
    (bit i-1 marks user i), so entry 0 is the empty subset with power sum
    and capacity 0. At M = 20 the pair takes 2 * 8 MiB (16.8 MB).
    """
    m = config.num_users
    if m > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"enumeration capped at {BRUTE_FORCE_MAX_USERS} users, got {m}")
    power_sums = subset_sums(config.powers)
    capacities = np.log1p(power_sums / config.noise)
    capacities *= 0.5
    power_sums.setflags(write=False)
    capacities.setflags(write=False)
    return power_sums, capacities


def rate_vector(config: ChannelConfig, rates) -> np.ndarray:
    """Rates as a float vector; raises ValueError unless there is one per user."""
    r = np.asarray(rates, dtype=float)
    if r.shape != (config.num_users,):
        raise ValueError(f"expected {config.num_users} rates, got shape {r.shape}")
    return r


def constraint_slacks(table: tuple[np.ndarray, np.ndarray], rates: np.ndarray) -> np.ndarray:
    """Slack of every nonempty subset under a :func:`constraint_table`.

    Entry k belongs to the bitmask k + 1. Raises ValueError on NaN or
    infinite rates: any of them makes the sum over all users non-finite, so
    the rates themselves are only inspected when that sum is.
    """
    sums = subset_sums(rates)
    if not math.isfinite(sums[-1]) and not np.isfinite(rates).all():
        raise ValueError("rates must be finite")
    # in place: a second 2**M buffer costs more in page faults than the subtraction
    slacks = sums[1:]
    np.subtract(table[1][1:], slacks, out=slacks)
    return slacks


def is_feasible_bruteforce(config: ChannelConfig, rates, tol: float = FEASIBILITY_TOL) -> bool:
    """Check every one of the 2**M - 1 sum-rate constraints plus nonnegativity.

    Raises ValueError on NaN or infinite rates.
    """
    r = rate_vector(config, rates)
    slacks = constraint_slacks(constraint_table(config), r)
    return bool((r >= -tol).all() and (slacks >= -tol).all())
