"""Locating violated capacity constraints, fast and slow.

Two strategies:

* :func:`find_most_violated` enumerates all 2**M - 1 subsets and returns the
  one with the most negative slack (submodular-minimization by brute force,
  capped at small M).

* :func:`rate_split_analyze` runs the rate-splitting recursion. Each round
  computes the elevation of every current (hyper-)user, i.e. how much extra
  Gaussian interference its rate tolerates; users whose "rectangles"
  [elevation, elevation + power) overlap cannot be peeled off one at a time,
  so the lowest overlapping adjacent pair is merged into a hyper-user with the
  summed power and rate, and the round repeats on M - 1 users. A hyper-user
  with negative elevation carries more rate than its joint capacity, which
  names a violated constraint of the original configuration; if no overlap
  remains, the sorted users certify decodability by successive cancellation.
  Runs in O(M^2 log M) and scales far past the enumeration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelConfig,
    constraint_slack,
    constraint_slacks,
    constraint_table,
    rate_vector,
    subset_members,
)

# Absolute tolerance on elevations for overlap / violation decisions. Points
# within a band around a constraint boundary may be classified either way.
OVERLAP_TOL = 1e-9

# Beyond this rate expm1 overflows; the elevation is -noise to double precision.
_RATE_OVERFLOW = 350.0


def elevation(power: float, rate: float, noise: float) -> float:
    """Extra interference the message tolerates: solves rate = C(power, noise + d).

    Inverting the capacity formula gives d = power / (e**(2*rate) - 1) - noise.
    A zero rate returns +inf (a silent message tolerates anything); a negative
    result means the rate exceeds even the interference-free capacity.
    """
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    if not noise > 0.0:
        raise ValueError(f"noise must be positive, got {noise}")
    if rate < 0.0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if rate == 0.0:
        return math.inf
    if rate > _RATE_OVERFLOW:
        return -noise
    return power / math.expm1(2.0 * rate) - noise


@dataclass(frozen=True)
class SpinOffUser:
    """A (possibly merged) user: power, rate, elevation, original member indices."""

    power: float
    rate: float
    elevation: float
    members: frozenset[int]


@dataclass(frozen=True)
class Configuration:
    """A set of spin-off users sharing one noise level."""

    users: tuple[SpinOffUser, ...]
    noise: float

    @property
    def num_users(self) -> int:
        return len(self.users)

    @classmethod
    def from_rates(cls, config: ChannelConfig, rates) -> "Configuration":
        r = np.asarray(rates, dtype=float)
        users = tuple(
            SpinOffUser(p, float(ri), elevation(p, float(ri), config.noise), frozenset({i + 1}))
            for i, (p, ri) in enumerate(zip(config.powers, r))
        )
        return cls(users, config.noise)


@dataclass(frozen=True)
class Feasible:
    """Certificate of feasibility: spin-off users sorted by ascending elevation.

    Successive cancellation decodes them from the end of the list backwards;
    each user's elevation covers the total power of the users listed before it.
    """

    decoding_order: tuple[SpinOffUser, ...]
    spinoff: Configuration


@dataclass(frozen=True)
class Violated:
    """A capacity constraint with negative slack in the original configuration."""

    subset: frozenset[int]
    slack: float


ViolationReport = Feasible | Violated


def rate_split_analyze(config: ChannelConfig, rates, tol: float = OVERLAP_TOL) -> ViolationReport:
    """Classify a rate point by the merging recursion described above.

    Deterministic: the most negative elevation wins (ties by smallest original
    index), and the lowest-elevation overlapping adjacent pair merges first.
    Terminates after at most M - 1 merges. Raises ValueError unless the
    rates are finite and nonnegative.
    """
    r_in = rate_vector(config, rates)
    if not ((r_in >= 0.0) & (r_in < math.inf)).all():
        raise ValueError("rates must be finite and nonnegative")

    noise = config.noise
    p = list(config.powers)
    r = r_in.tolist()
    members = [frozenset({i + 1}) for i in range(len(p))]
    low = list(range(1, len(p) + 1))  # smallest original index, for tie-breaks

    while True:
        m = len(p)
        d = []
        for j in range(m):
            rj = r[j]
            if rj == 0.0:
                d.append(math.inf)
            elif rj > _RATE_OVERFLOW:
                d.append(-noise)
            else:
                d.append(p[j] / math.expm1(2.0 * rj) - noise)

        worst = -1
        for j in range(m):
            if d[j] < -tol and (worst < 0 or (d[j], low[j]) < (d[worst], low[worst])):
                worst = j
        if worst >= 0:
            subset = members[worst]
            return Violated(subset, constraint_slack(config, r_in, subset))

        order = sorted(range(m), key=lambda j: (d[j], low[j]))

        merge_at = -1
        for t in range(m - 1):
            a, b = order[t], order[t + 1]
            if d[b] < d[a] + p[a] - tol:
                merge_at = t
                break
        if merge_at < 0:
            users = tuple(SpinOffUser(p[j], r[j], d[j], members[j]) for j in order)
            return Feasible(users, Configuration(users, noise))

        a, b = order[merge_at], order[merge_at + 1]
        p[a] += p[b]
        r[a] += r[b]
        members[a] = members[a] | members[b]
        low[a] = min(low[a], low[b])
        del p[b], r[b], members[b], low[b]


def find_most_violated(
    config: ChannelConfig, rates, tol: float = OVERLAP_TOL
) -> tuple[frozenset[int], float] | None:
    """Most negative constraint by exhaustive enumeration, or None if all clear.

    Ties break toward the smallest cardinality, then the smallest bitmask.
    Raises ValueError on NaN or infinite rates.
    """
    slacks = constraint_slacks(constraint_table(config), rate_vector(config, rates))
    worst = float(slacks.min())
    if worst >= -tol:
        return None
    candidates = np.flatnonzero(slacks == worst)
    best_row = min(candidates, key=lambda k: (int(k + 1).bit_count(), int(k + 1)))
    return subset_members(int(best_row) + 1), worst


def certify_agreement(config: ChannelConfig, rates, tol: float = OVERLAP_TOL) -> bool:
    """Do rate splitting and brute force agree on feasibility of this point?

    Points whose minimum slack lies within +-10*tol of zero are accepted
    either way (boundary tolerance band).
    """
    r = rate_vector(config, rates)
    min_slack = float(constraint_slacks(constraint_table(config), r).min())
    if abs(min_slack) <= 10.0 * tol:
        return True
    report = rate_split_analyze(config, r, tol=tol)
    return isinstance(report, Violated) == (min_slack < 0.0)
