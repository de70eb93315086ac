"""Locating violated capacity constraints with the rate-splitting recursion.

:func:`rate_split_analyze` gives every user an elevation, i.e. how much extra
Gaussian interference its rate tolerates. Users whose "rectangles"
[elevation, elevation + power) overlap cannot be peeled off one at a time, so
each round merges the lowest overlapping adjacent pair into a hyper-user with
the summed power and rate, and the next round runs on one user fewer. Only
the merged hyper-user's elevation changes. A (hyper-)user with negative
elevation carries more rate than its joint capacity, which names a violated
constraint of the original configuration; if no overlap remains, the sorted
users certify decodability by successive cancellation. Users sort by their
elevation's band (see OVERLAP_TOL), then by slot, while the overlap and
violation tests compare exact elevations. A merge fills the lower of its two
fixed slots, and each later round re-sorts the last round's order by one
(band, slot) key per slot, built at the first merge; a merge after that
rebuilds only its own slot's key. O(M^2 log M) at worst, with no enumeration
of the 2**M - 1 constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

from .channel import ChannelConfig, constraint_slack, rate_vector

# Tolerance on elevations for overlap / violation decisions, relative to the
# noise: elevations are in units of power, so it scales with the noise.
# Points within it of a constraint boundary may be classified either way.
# Users order by band, so that elevations a few ulps apart order alike. The
# band of elevation d is the float d / noise + 1.5 * 2**52 * g, g = 2**-29
# the power of two in (OVERLAP_TOL, 2 * OVERLAP_TOL]: d / noise rounded to a
# multiple of g (ties to even) while |d / noise| < 2**51 * g, coarser above,
# and +inf for +inf. It never decreases as d grows.
OVERLAP_TOL = 1e-9
_BAND_SNAP = math.ldexp(1.5, 52 + math.frexp(OVERLAP_TOL)[1])

# Beyond this rate expm1 overflows; the elevation is -noise to double precision.
_RATE_OVERFLOW = 350.0


def elevation(power: float, rate: float, noise: float) -> float:
    """Extra interference the message tolerates: solves rate = C(power, noise + d).

    Inverting the capacity formula gives d = power / (e**(2*rate) - 1) - noise.
    A zero rate returns +inf (a silent message tolerates anything); a negative
    result means the rate exceeds even the interference-free capacity.
    Raises ValueError on NaN, an infinite rate or noise, a power or noise that
    is not positive, or a negative rate; an infinite power (an overflowed
    power sum) is allowed.
    """
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    if not 0.0 < noise < math.inf:
        raise ValueError(f"noise must be finite and positive, got {noise}")
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
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
    """Certificate of feasibility: spin-off users sorted by ascending band.

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

    Deterministic: hyper-users order by (band, smallest original index); the
    first user in that order whose elevation is negative is reported, and the
    first overlapping adjacent pair merges first. Elevations are compared
    with a margin of OVERLAP_TOL times the noise, so the decisions depend
    only on the SNRs. Terminates after at most M - 1 merges. Raises
    ValueError unless the rates are finite and nonnegative.
    """
    found = _split(config, rates)
    if isinstance(found, frozenset):
        return Violated(found, constraint_slack(config, rates, found))
    order, p, r, d, members = found
    return Feasible(tuple(SpinOffUser(p[j], r[j], d[j], members[j] or frozenset({j + 1})) for j in order))


def rate_split_finder(config: ChannelConfig, rates) -> frozenset[int] | None:
    """Violation finder backed by the recursion (scales in M): the subset
    :func:`rate_split_analyze` reports, or None where it certifies feasibility."""
    found = _split(config, rates)
    return found if isinstance(found, frozenset) else None


def _split(config: ChannelConfig, rates) -> frozenset[int] | tuple:
    """The recursion behind both entry points: a violated subset, or the final
    state ``(order, powers, rates, elevations, members)`` by slot, from which
    :func:`rate_split_analyze` builds the certificate.

    ``members[j]`` is the member set of slot j once it has merged, and None
    while slot j is still the single user j + 1. The finder needs no slack
    and no certificate, so neither is built here.
    """
    r_in = rate_vector(config, rates)
    if not (r_in.min() >= 0.0 and r_in.max() < math.inf):  # NaN fails both
        raise ValueError("rates must be finite and nonnegative")

    noise = config.noise
    tol = OVERLAP_TOL * noise
    p = list(config.powers)
    r = r_in.tolist()
    expm1 = math.expm1
    # _elevation's three branches, inline
    d = [
        math.inf if x == 0.0 else -noise if x > _RATE_OVERFLOW else q / expm1(2.0 * x) - noise
        for q, x in zip(p, r)
    ]
    band = [x / noise + _BAND_SNAP for x in d]
    if min(d) < -tol:
        return frozenset({min((j for j, x in enumerate(d) if x < -tol), key=band.__getitem__) + 1})
    # slot j holds the group whose smallest user is j + 1; the stable sort
    # keeps tied bands in slot order, the (band, slot) order
    order = sorted(range(len(p)), key=band.__getitem__)
    members: list[frozenset[int] | None] = [None] * len(p)
    keys = None  # slot j's sort key (band[j], j); only a merge changes one

    while True:
        for a, b in pairwise(order):
            if d[b] < d[a] + p[a] - tol:
                break
        else:
            return order, p, r, d, members

        # every other elevation is unchanged and was at least -tol
        s, t = (a, b) if a < b else (b, a)
        p[s] = p[a] + p[b]
        r[s] = r[a] + r[b]
        members[s] = (members[a] or frozenset({a + 1})) | (members[b] or frozenset({b + 1}))
        d[s] = _elevation(p[s], r[s], noise)
        if d[s] < -tol:
            return members[s]
        if keys is None:
            keys = list(zip(band, range(len(d))))
        keys[s] = (d[s] / noise + _BAND_SNAP, s)
        order.remove(t)
        order.sort(key=keys.__getitem__)
