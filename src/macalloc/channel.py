"""Gaussian multiple-access channel capacity region.

The achievable region for M users with received powers P_1..P_M over noise
N0 is the polymatroid

    { R >= 0 : sum_{i in S} R_i <= C(sum_{i in S} P_i, N0)  for all S }

where C is the single-user AWGN capacity. Everything here is linear scale
(no dB) and every rate is in nats per channel use; divide by ln 2 for bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

# Guard for the 2**M enumeration of every constraint.
BRUTE_FORCE_MAX_USERS = 20


def _capacity(snr):
    """0.5 * ln(1 + snr), elementwise, in nats: the one capacity formula, so
    that a scalar capacity and the constraint table agree to the bit."""
    c = np.log1p(snr)
    c *= 0.5
    return c


def awgn_capacity(power: float, noise: float) -> float:
    """Single-user AWGN capacity 0.5 * ln(1 + power/noise), in nats.

    Raises ValueError on NaN, an infinite noise, a negative power or a noise
    that is not positive. An infinite power gives an infinite capacity: a
    power sum of finite powers can overflow to it.
    """
    if not 0.0 < noise < math.inf:
        raise ValueError(f"noise must be finite and positive, got {noise}")
    if not power >= 0.0:
        raise ValueError(f"power must be nonnegative, got {power}")
    return float(_capacity(power / noise))


@dataclass(frozen=True)
class ChannelConfig:
    """Received powers P_1..P_M and the noise level of the shared channel.

    Powers must be strictly positive: a zero-power user would force a zero
    rate and produce degenerate elevations in the rate-splitting recursion.
    The total SNR sum(powers) / noise, summed as the full set's capacity sums
    it, must be finite, so every subset's SNR is too.
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
        snr = _subset_sum(self.powers, range(1, len(self.powers) + 1)) / self.noise
        if not math.isfinite(snr):
            raise ValueError(f"total SNR sum(powers) / noise must be finite, got {snr}")

    @property
    def num_users(self) -> int:
        return len(self.powers)


def _integer(value, name: str) -> int:
    """``value`` as a Python int, through ``operator.index``: numpy integers
    pass; bools, floats and anything else raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def subset_members(mask: int) -> frozenset[int]:
    """1-based user indices of a bitmask (bit i-1 marks user i).

    Numpy integers pass. Raises ValueError unless the mask is a nonnegative
    integer, and not a bool: a negative one marks no finite set of users.
    """
    mask = _integer(mask, "mask")
    if mask < 0:
        raise ValueError(f"mask must be nonnegative, got {mask}")
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _checked_members(config: ChannelConfig, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    m = config.num_users
    for i in s:
        if not 1 <= i <= m:
            raise ValueError(f"user index {i} out of range 1..{m}")
    return s


def _subset_sum(values, users) -> float:
    """The sum of values[i - 1] over ``users``, given in increasing order and
    added left to right as :func:`subset_sums` adds it, so the two agree to
    the bit."""
    total = 0.0
    for i in users:
        total += values[i - 1]
    return total


def subset_capacity(config: ChannelConfig, members: Iterable[int]) -> float:
    """Sum-rate bound f(S) = C(sum_{i in S} P_i, noise); f({}) = 0 exactly.

    Equals ``constraint_table(config)[k]`` to the bit, k the bitmask of S.
    """
    s = _checked_members(config, members)
    if not s:
        return 0.0
    return awgn_capacity(_subset_sum(config.powers, sorted(s)), config.noise)


def constraint_slack(config: ChannelConfig, rates, members: Iterable[int]) -> float:
    """f(S) minus the rates' sum over S; negative iff the constraint is violated.

    Equals ``constraint_table(config)[k] - subset_sums(rates)[k]`` to the bit,
    k the bitmask of S. Raises ValueError unless there is one finite rate per
    user; negative rates are allowed.
    """
    s = _checked_members(config, members)
    if not s:
        raise ValueError("slack is defined for nonempty subsets only")
    r = rate_vector(config, rates)
    if not np.isfinite(r).all():
        raise ValueError("rates must be finite")
    return _slack(config, r.tolist(), sorted(s))


def _slack(config: ChannelConfig, rates: list[float], users: list[int]) -> float:
    """:func:`constraint_slack` of checked input: the capacity of ``users``,
    nonempty and in increasing order, minus the sum of their ``rates`` (a
    list by user - 1) in that order. The one slack formula, shared with
    :func:`rate_split_analyze`."""
    return awgn_capacity(_subset_sum(config.powers, users), config.noise) - _subset_sum(rates, users)


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


@lru_cache(maxsize=1)
def constraint_table(config: ChannelConfig) -> np.ndarray:
    """All 2**M - 1 subset capacities at once, for the vectorized violation count.

    Returns a read-only array of length 2**M indexed by bitmask: entry k is
    the capacity of the subset with bitmask k (bit i-1 marks user i), so
    entry 0 is the empty subset's 0. At M = 20 it takes 8 MiB. Only the last
    config's table is cached: its callers (``macalloc region``, and
    ``count_violations`` over one trace) work on one config at a time.
    """
    m = config.num_users
    if m > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"enumeration capped at {BRUTE_FORCE_MAX_USERS} users, got {m}")
    capacities = _capacity(subset_sums(config.powers) / config.noise)
    capacities.setflags(write=False)
    return capacities


def rate_vector(config: ChannelConfig, rates) -> np.ndarray:
    """Rates as a float vector; raises ValueError unless there is one per user."""
    r = np.asarray(rates, dtype=float)
    if r.shape != (config.num_users,):
        raise ValueError(f"expected {config.num_users} rates, got shape {r.shape}")
    return r
