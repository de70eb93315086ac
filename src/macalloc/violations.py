"""Locating violated capacity constraints with the rate-splitting recursion.

:func:`rate_split_analyze` gives every user an elevation, i.e. how much extra
Gaussian interference its rate tolerates. Users whose "rectangles"
[elevation, elevation + power) overlap cannot be peeled off one at a time, so
each round merges the lowest overlapping adjacent pair into a hyper-user with
the summed power and rate, and the next round runs on one user fewer. Only
the merged hyper-user's elevation changes. A (hyper-)user with negative
elevation carries more rate than its joint capacity, which names a violated
constraint of the original configuration; if no overlap remains, the sorted
users certify decodability by successive cancellation. A merge fills the
lower of its two fixed slots, and each round re-sorts the last round's order
by one (elevation, slot) key per slot, built once; a merge rebuilds only its
own slot's key. O(M^2 log M) at worst, with no enumeration of the 2**M - 1
constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .channel import ChannelConfig, constraint_slack, rate_vector

# Tolerance on elevations for overlap / violation decisions, relative to the
# noise: elevations are in units of power, so the band scales with the noise.
# Points within the band around a constraint boundary may be classified
# either way.
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
    return _elevation(power, rate, noise)


def _elevation(power: float, rate: float, noise: float) -> float:
    """:func:`elevation` without the input checks."""
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
class Feasible:
    """Certificate of feasibility: spin-off users sorted by ascending elevation.

    Successive cancellation decodes them from the end of the list backwards;
    each user's elevation covers the total power of the users listed before it.
    """

    decoding_order: tuple[SpinOffUser, ...]


@dataclass(frozen=True)
class Violated:
    """A capacity constraint with negative slack in the original configuration."""

    subset: frozenset[int]
    slack: float


ViolationReport = Feasible | Violated


def rate_split_analyze(config: ChannelConfig, rates) -> ViolationReport:
    """Classify a rate point by the merging recursion described above.

    Deterministic: the most negative elevation wins (ties by smallest original
    index), and the lowest-elevation overlapping adjacent pair merges first.
    Elevations are compared with a margin of OVERLAP_TOL times the noise, so
    the decisions depend only on the SNRs. Terminates after at most M - 1
    merges. Raises ValueError unless the rates are finite and nonnegative.
    """
    found = _split(config, rates)
    if isinstance(found, Feasible):
        return found
    return Violated(found, constraint_slack(config, rates, found))


def rate_split_finder(config: ChannelConfig, rates) -> frozenset[int] | None:
    """Violation finder backed by the recursion (scales in M): the subset
    :func:`rate_split_analyze` reports, or None where it certifies feasibility."""
    found = _split(config, rates)
    return None if isinstance(found, Feasible) else found


def _split(config: ChannelConfig, rates) -> frozenset[int] | Feasible:
    """The recursion behind both entry points: a violated subset or the certificate.

    The finder needs no slack, so none is computed here, and the per-user
    member sets are built only when no single user is over its capacity.
    """
    r_in = rate_vector(config, rates)
    if not ((r_in >= 0.0) & (r_in < math.inf)).all():
        raise ValueError("rates must be finite and nonnegative")

    noise = config.noise
    tol = OVERLAP_TOL * noise
    p = list(config.powers)
    r = r_in.tolist()
    d = list(map(_elevation, p, r, repeat(noise)))
    lowest = min(d)
    if lowest < -tol:
        return frozenset({d.index(lowest) + 1})
    members = [frozenset({i}) for i in range(1, len(p) + 1)]
    order = list(range(len(p)))  # slot j holds the group whose smallest user is j + 1
    keys = list(zip(d, order))  # slot j's sort key (d[j], j); only a merge changes one

    while True:
        order.sort(key=keys.__getitem__)
        for a, b in zip(order, order[1:]):
            if d[b] < d[a] + p[a] - tol:
                break
        else:
            return Feasible(tuple(SpinOffUser(p[j], r[j], d[j], members[j]) for j in order))

        # every other elevation is unchanged and was at least -tol
        s, t = (a, b) if a < b else (b, a)
        p[s] = p[a] + p[b]
        r[s] = r[a] + r[b]
        members[s] = members[a] | members[b]
        d[s] = _elevation(p[s], r[s], noise)
        if d[s] < -tol:
            return members[s]
        keys[s] = (d[s], s)
        order.remove(t)
