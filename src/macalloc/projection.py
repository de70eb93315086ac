"""Approximate projection onto the capacity region.

Instead of the (intractable) nearest point in a region cut out by 2**M - 1
constraints, the point is projected successively onto the hyperplane of one
violated constraint at a time until a violation finder comes up empty. The
result is feasible and never farther from any feasible point than the input
was, but it is not the exact Euclidean projection and depends on the order
in which violations are found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .channel import ChannelConfig, _subset_sum, awgn_capacity
from .violations import SplitState, rate_split_finder

# A violation finder maps (config, state) to a violated subset or None, the
# state a SplitState of the current point: np.asarray(state) gives its M
# rates (>= 0), and rate_split_finder runs only its merge rounds on it.
ViolationFinder = Callable[[ChannelConfig, SplitState], "frozenset[int] | None"]


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    hyperplanes_used: tuple[frozenset[int], ...]


def _capped_projection(y: list[float], idx: Iterable[int], vals: list[float], level: float) -> None:
    """Exact projection of a nonnegative point onto {sum_S x <= level, x_S >= 0}, in place.

    ``vals`` holds the point's coordinates on S (at the positions ``idx`` of
    ``y``, in that order), as floats, and must sum to more than ``level``;
    only those positions of ``y`` are written.

    Uniform shift with a zero floor: x_i = max(y_i - theta, 0) on S with the
    smallest theta >= 0 that brings the sum down to level. When no coordinate
    crosses zero this equals the plain hyperplane projection. Keeping the
    floor inside the projection (rather than clamping afterwards) is what
    guarantees a constraint never re-violates once projected, so each subset
    is used at most once.

    The arithmetic runs on the gaps below the largest coordinate, top - y_i,
    and on t = top - theta, never on theta itself. A kept gap is below the
    level, so it is exact (Sterbenz) there, and the result's rounding error is
    relative to the level, not to the coordinates, at any finite magnitude.
    The kept coordinates are a prefix of the descending order, and the
    largest is always kept.
    """
    desc = sorted(vals, reverse=True)
    top = desc[0]
    t = level  # top - theta with only the largest coordinate kept
    shift = 0.0  # sum of the kept coordinates' gaps
    kept = 1
    for v in desc[1:]:
        gap = top - v
        candidate_shift = shift + gap
        candidate = (level + candidate_shift) / (kept + 1)
        if candidate <= gap:
            break
        shift = candidate_shift
        kept += 1
        t = candidate
    for i, v in zip(idx, vals):
        x = t - (top - v)
        y[i] = x if x > 0.0 else 0.0


class _Hyperplane(frozenset):
    """A subset that equals and hashes like the plain frozenset, carrying the
    config it was built for, its capacity there and, in increasing order,
    its members' slots i - 1 in the working point, so that re-testing it as a
    hint costs only the comparison and the projection. Pickles as the plain
    frozenset.

    The members are sorted once: the range check reads the two ends, and the
    power sum adds over them in increasing user order with the sum
    :func:`~macalloc.channel.subset_capacity` uses, so the level equals that
    capacity to the bit.
    """

    __slots__ = ("config", "level", "slots")

    def __new__(cls, config: ChannelConfig, members: Iterable[int]):
        self = super().__new__(cls, members)
        self.config = config
        users = sorted(self)
        self.slots = tuple([i - 1 for i in users])
        self.level = 0.0
        if users:
            m = config.num_users
            for i in (users[0], users[-1]):
                if not 1 <= i <= m:
                    raise ValueError(f"user index {i} out of range 1..{m}")
            self.level = awgn_capacity(_subset_sum(config.powers, users), config.noise)
        return self

    def __reduce__(self):
        return frozenset, (tuple(self),)


def _project_if_violated(y: list[float], plane: _Hyperplane) -> bool:
    """Project ``y`` in place onto the plane's constraint if its sum there
    exceeds the capacity; returns whether it did.

    The sum adds in increasing user order, left to right, as
    :func:`~macalloc.channel.constraint_slack` does, so the test agrees with
    the slack's sign to the bit.
    """
    vals = [y[j] for j in plane.slots]
    load = 0.0
    for v in vals:
        load += v
    if load <= plane.level:
        return False
    _capped_projection(y, plane.slots, vals, plane.level)
    return True


def approximate_projection(
    config: ChannelConfig,
    point,
    finder: ViolationFinder = rate_split_finder,
    hint: Iterable[Iterable[int]] = (),
) -> ProjectionResult:
    """Clamp negatives, then project onto violated constraints until none remain.

    ``hint`` lists subsets to re-test first, in order: each one the point
    exceeds (by its coordinate sum, added in increasing user order, against
    :func:`subset_capacity`, without a tolerance: exactly where
    :func:`~macalloc.channel.constraint_slack` is negative) is projected
    onto, and the rest are skipped. Then the finder is
    asked for violations until it returns None, so the result is certified
    feasible by the finder whatever the hint held. :func:`solve` passes the
    previous step's ``hyperplanes_used``. Each of those carries its capacity
    under the config it was found for, so re-testing it for the
    same ``config`` object costs only its coordinate sum and, if violated, its
    floored projection. Any other hint element (a list, a set, a frozenset, or
    a hyperplane of another config) has its capacity computed afresh.

    The working point is one list of floats, user i at slot i - 1, that
    every projection writes. After the hint pass one :class:`SplitState`
    adopts it as its rates and adds their M elevations, (band, slot) keys
    and first-round order. Every finder call receives that state, and after
    each hyperplane's projection only its slots are refreshed (one elevation
    each) and the order re-sorted. So a call of :func:`rate_split_finder`
    costs only its merge rounds; a custom finder reads the rates with
    ``np.asarray(state)``. The certified point is the result.

    Every step only decreases coordinates, so a constraint stays satisfied
    once handled and each subset is used at most once. A finder that names a
    subset twice (hinted ones included), or one the current point satisfies,
    would loop forever, so either raises RuntimeError; the loop thus ends
    within 2**M - 1 steps. Every finite point gets a feasible result, however
    large its coordinates. Raises ValueError on NaN or infinite coordinates
    and on a hinted user index outside 1..M.
    """
    y = np.array(point, dtype=float)
    if y.shape != (config.num_users,):
        raise ValueError(f"expected {config.num_users} coordinates, got shape {y.shape}")
    low = y.min()  # NaN if any coordinate is NaN, and NaN > -inf is False
    if not (low > -math.inf and y.max() < math.inf):
        raise ValueError("coordinates must be finite")
    np.maximum(y, 0.0, out=y)
    x = y.tolist()  # the working point

    used: dict[_Hyperplane, None] = {}  # insertion-ordered, O(1) membership
    for plane in hint:
        if not (isinstance(plane, _Hyperplane) and plane.config is config):
            plane = _Hyperplane(config, plane)
        if plane not in used and _project_if_violated(x, plane):
            used[plane] = None
    state = SplitState._of_floats(config, x)
    while True:
        subset = finder(config, state)
        if subset is None:
            return ProjectionResult(np.array(x), tuple(used))
        if subset in used:
            raise RuntimeError(f"finder named subset {sorted(subset)} twice")
        plane = _Hyperplane(config, subset)
        if not _project_if_violated(x, plane):
            raise RuntimeError(f"finder named subset {sorted(subset)}, which the point satisfies")
        state._move(plane.slots)
        used[plane] = None
