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
violation tests compare exact elevations. The round order holds the
remaining slots' (band, slot) key tuples. A merge fills the lower of its two
fixed slots and puts that slot's one new tuple in place of the pair's two,
allocating only that tuple and the united member set; each round then
re-sorts the tuples with a plain sort, O(M) as only the new tuple is out of
place. O(M^2 log M) at worst, with no enumeration of the 2**M - 1
constraints.

The recursion starts from a :class:`SplitState`: the rates, elevations, keys
and first-round order of one point. A caller that moves only a few users
between calls, as the approximate projection does, refreshes only theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .channel import ChannelConfig, _slack, rate_vector

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


def elevation(power: float, rate: float, noise: float) -> float:
    """Extra interference the message tolerates: solves rate = C(power, noise + d).

    Inverting the capacity formula gives d = power / (e**(2*rate) - 1) - noise.
    A zero rate returns +inf (a silent message tolerates anything); a negative
    result means the rate exceeds even the interference-free capacity. Where
    e**(2*rate) overflows (past about 354.89 nats), it exceeds every capacity
    and the result is -noise.
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
    try:
        return power / math.expm1(2.0 * rate) - noise
    except OverflowError:  # e**(2*rate) - 1 exceeds every finite SNR
        return -noise


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
    ``(band, j)``, and the first-round order: those keys, sorted.
    ``np.asarray(state)`` gives the M rates. Building one validates the rates
    and computes the M elevations; :func:`approximate_projection` builds one
    per call on its working list, projects into ``rates`` and refreshes only
    each hyperplane's slots, so a finder call on it skips both and runs only
    its merge rounds.
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
        state keeps the list as its ``rates``, without a copy."""
        self = cls.__new__(cls)
        self._start(config, rates)
        return self

    def _start(self, config: ChannelConfig, rates: list[float]) -> None:
        noise = config.noise
        self.config = config
        self.rates = rates
        self.elevations = d = list(map(_elevation, config.powers, rates, repeat(noise)))
        self.keys = [(e / noise + _BAND_SNAP, j) for j, e in enumerate(d)]
        self.order = sorted(self.keys)

    def _move(self, slots) -> None:
        """Recompute the elevations and keys of ``slots`` from their changed
        rates and re-sort the order with the new keys."""
        noise = self.config.noise
        powers, r, d, keys = self.config.powers, self.rates, self.elevations, self.keys
        for j in slots:
            d[j] = e = _elevation(powers[j], r[j], noise)
            keys[j] = (e / noise + _BAND_SNAP, j)
        self.order = order = [keys[j] for _, j in self.order]
        order.sort()

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a SplitState keeps its rates in a list, so an array of them is always a copy")
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
    state = _state(config, rates)
    found = _split(state)
    if isinstance(found, frozenset):
        return Violated(found, _slack(config, state.rates, sorted(found)))
    order, p, r, d, members = found
    return Feasible(tuple(SpinOffUser(p[j], r[j], d[j], members[j]) for _, j in order))


def rate_split_finder(config: ChannelConfig, rates) -> frozenset[int] | None:
    """Violation finder backed by the recursion (scales in M): the subset
    :func:`rate_split_analyze` reports, or None where it certifies feasibility.

    Given the :class:`SplitState` that :func:`approximate_projection` passes,
    a call runs only the merge rounds; given an array, it builds the state
    first."""
    found = _split(_state(config, rates))
    return found if isinstance(found, frozenset) else None


@lru_cache(maxsize=8)
def _singletons(m: int) -> tuple[frozenset[int], ...]:
    """``frozenset({j + 1})`` for every slot j of M users, built once per M."""
    return tuple(frozenset({i}) for i in range(1, m + 1))


def _split(state: SplitState) -> frozenset[int] | tuple:
    """The recursion behind both entry points: a violated subset, or the final
    state ``(order, powers, rates, elevations, members)`` by slot, from which
    :func:`rate_split_analyze` builds the certificate. ``state`` is left as
    it was.

    ``order`` holds the remaining slots' ``(band, slot)`` keys, sorted;
    ``members[j]`` is the member set of slot j. A round scans the order for
    the first overlapping adjacent pair, merges it into the lower slot, puts
    that slot's one new key in place of the pair's two and re-sorts the
    order: O(M) per round, as the order is sorted but for that key. Of the
    containers, a merge builds only that key and the united member set. The
    finder needs no slack and no certificate, so neither is built here.
    """
    noise = state.config.noise
    tol = OVERLAP_TOL * noise
    d = state.elevations
    singletons = _singletons(len(d))
    # the first violator in (band, slot) order; past the band of -tol no
    # elevation is below -tol, as the band never decreases with the elevation
    last_band = -tol / noise + _BAND_SNAP
    for band, j in state.order:
        if band > last_band:
            break
        if d[j] < -tol:
            return singletons[j]
    # slot j holds the group whose smallest user is j + 1
    order = state.order.copy()
    p = list(state.config.powers)
    r = state.rates.copy()
    d = d.copy()
    members = list(singletons)
    snap = _BAND_SNAP

    while True:
        pairs = iter(order)
        a = next(pairs)[1]
        i = 0
        for _, b in pairs:
            if d[b] < d[a] + p[a] - tol:
                break
            a = b
            i += 1
        else:
            return order, p, r, d, members

        # every other elevation is unchanged and was at least -tol
        s = a if a < b else b
        p[s] = power = p[a] + p[b]
        r[s] = rate = r[a] + r[b]
        members[s] = members[a] | members[b]
        d[s] = e = _elevation(power, rate, noise)
        if e < -tol:
            return members[s]
        order[i] = (e / noise + snap, s)
        del order[i + 1]
        order.sort()
