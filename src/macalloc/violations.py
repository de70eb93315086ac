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
(band, slot) key per slot; a merge rebuilds only its own slot's key.
O(M^2 log M) at worst, with no enumeration of the 2**M - 1 constraints.

The recursion starts from a :class:`SplitState`: the rates, elevations, keys
and first-round order of one point. A caller that moves only a few users
between calls, as the approximate projection does, refreshes only theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

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


class SplitState:
    """A rate point with the start of its recursion: what every finder receives.

    Holds, by slot j (user j + 1), the rate, the elevation and the sort key
    ``(band, j)``, and the slots in first-round order, sorted by that key.
    ``np.asarray(state)`` gives the M rates. Building one validates the rates
    and computes the M elevations; :func:`approximate_projection` builds one
    per call and refreshes only the members of each hyperplane it projects
    onto, so a finder call on it skips both and runs only its merge rounds.
    Raises ValueError unless there is one finite, nonnegative rate per user.
    """

    __slots__ = ("config", "rates", "elevations", "keys", "order")

    def __init__(self, config: ChannelConfig, rates):
        r = rate_vector(config, rates)
        if not (r.min() >= 0.0 and r.max() < math.inf):  # NaN fails both
            raise ValueError("rates must be finite and nonnegative")
        self._start(config, r.tolist())

    @classmethod
    def _of_floats(cls, config: ChannelConfig, rates: list[float]) -> SplitState:
        """The state of a list of M finite, nonnegative floats, unchecked; the
        state keeps the list."""
        self = cls.__new__(cls)
        self._start(config, rates)
        return self

    def _start(self, config: ChannelConfig, rates: list[float]) -> None:
        noise = config.noise
        self.config = config
        self.rates = rates
        self.elevations = d = [_elevation(q, x, noise) for q, x in zip(config.powers, rates)]
        band = [e / noise + _BAND_SNAP for e in d]
        self.keys = list(zip(band, range(len(d))))
        # the stable sort keeps tied bands in slot order, the (band, slot) order
        self.order = sorted(range(len(d)), key=band.__getitem__)

    def _move(self, users, point) -> None:
        """Take the rates of ``users`` (1-based) from ``point``, indexed by
        user, and re-sort the order by the full (band, slot) key."""
        noise = self.config.noise
        powers, r, d, keys = self.config.powers, self.rates, self.elevations, self.keys
        for i in users:
            j = i - 1
            r[j] = x = point[i]
            d[j] = e = _elevation(powers[j], x, noise)
            keys[j] = (e / noise + _BAND_SNAP, j)
        self.order.sort(key=keys.__getitem__)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.rates, dtype=dtype)


def _state(config: ChannelConfig, rates) -> SplitState:
    """``rates`` itself if it is a state of ``config``, else a new state."""
    if isinstance(rates, SplitState) and rates.config is config:
        return rates
    return SplitState(config, rates)


def rate_split_analyze(config: ChannelConfig, rates) -> ViolationReport:
    """Classify a rate point by the merging recursion described above.

    Deterministic: hyper-users order by (band, smallest original index); the
    first user in that order whose elevation is negative is reported, and the
    first overlapping adjacent pair merges first. Elevations are compared
    with a margin of OVERLAP_TOL times the noise, so the decisions depend
    only on the SNRs. Terminates after at most M - 1 merges. ``rates`` is an
    array of M rates or a :class:`SplitState`. Raises ValueError unless the
    rates are finite and nonnegative.
    """
    found = _split(_state(config, rates))
    if isinstance(found, frozenset):
        return Violated(found, constraint_slack(config, rates, found))
    order, p, r, d, members = found
    return Feasible(tuple(SpinOffUser(p[j], r[j], d[j], members[j] or frozenset({j + 1})) for j in order))


def rate_split_finder(config: ChannelConfig, rates) -> frozenset[int] | None:
    """Violation finder backed by the recursion (scales in M): the subset
    :func:`rate_split_analyze` reports, or None where it certifies feasibility.

    Given the :class:`SplitState` that :func:`approximate_projection` passes,
    a call runs only the merge rounds; given an array, it builds the state
    first."""
    found = _split(_state(config, rates))
    return found if isinstance(found, frozenset) else None


def _split(state: SplitState) -> frozenset[int] | tuple:
    """The recursion behind both entry points: a violated subset, or the final
    state ``(order, powers, rates, elevations, members)`` by slot, from which
    :func:`rate_split_analyze` builds the certificate. ``state`` is left as
    it was.

    ``members[j]`` is the member set of slot j once it has merged, and None
    while slot j is still the single user j + 1. The finder needs no slack
    and no certificate, so neither is built here.
    """
    noise = state.config.noise
    tol = OVERLAP_TOL * noise
    d = state.elevations
    # the first violator in (band, slot) order; past the band of -tol no
    # elevation is below -tol, as the band never decreases with the elevation
    last_band = -tol / noise + _BAND_SNAP
    for j in state.order:
        if state.keys[j][0] > last_band:
            break
        if d[j] < -tol:
            return frozenset({j + 1})
    # slot j holds the group whose smallest user is j + 1
    order = state.order.copy()
    p = list(state.config.powers)
    r = state.rates.copy()
    d = d.copy()
    members: list[frozenset[int] | None] = [None] * len(p)
    keys = None  # slot j's sort key (band, j); only a merge changes one

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
            keys = state.keys.copy()
        keys[s] = (d[s] / noise + _BAND_SNAP, s)
        order.remove(t)
        order.sort(key=keys.__getitem__)
