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
from typing import Callable

import numpy as np

from .channel import ChannelConfig, subset_capacity
from .violations import rate_split_finder

# A violation finder maps (config, rates >= 0) to a violated subset or None.
ViolationFinder = Callable[[ChannelConfig, np.ndarray], "frozenset[int] | None"]


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    hyperplanes_used: tuple[frozenset[int], ...]


def _capped_projection(y: np.ndarray, idx: list[int], vals: list[float], level: float) -> None:
    """Exact projection of a nonnegative point onto {sum_S x <= level, x_S >= 0}, in place.

    ``vals`` holds the point's coordinates on S (0-based positions ``idx``),
    as floats, and must sum to more than ``level``; only those positions of
    ``y`` are written.

    Uniform shift with a zero floor: x_i = max(y_i - theta, 0) on S with the
    smallest theta >= 0 that brings the sum down to level. When no coordinate
    crosses zero this equals the plain hyperplane projection. Keeping the
    floor inside the projection (rather than clamping afterwards) is what
    guarantees a constraint never re-violates once projected, so each subset
    is used at most once.
    """
    csum = 0.0
    for k, v in enumerate(sorted(vals, reverse=True), 1):
        csum += v
        candidate = (csum - level) / k
        if v - candidate > 0.0:
            theta = candidate
    for i, v in zip(idx, vals):
        x = v - theta
        y[i] = x if x > 0.0 else 0.0


def approximate_projection(
    config: ChannelConfig, point, finder: ViolationFinder = rate_split_finder
) -> ProjectionResult:
    """Clamp negatives, then project onto violated constraints until none remain.

    Every step only decreases coordinates, so a constraint stays satisfied
    once handled and each subset is used at most once. A finder that names a
    subset twice, or one the current point satisfies, would loop forever, so
    either raises RuntimeError; the loop thus ends within 2**M - 1 steps.
    Raises ValueError on NaN or infinite coordinates.
    """
    y = np.array(point, dtype=float)
    if y.shape != (config.num_users,):
        raise ValueError(f"expected {config.num_users} coordinates, got shape {y.shape}")
    low = y.min()  # NaN if any coordinate is NaN, and NaN > -inf is False
    if not (low > -math.inf and y.max() < math.inf):
        raise ValueError("coordinates must be finite")
    np.maximum(y, 0.0, out=y)

    used: dict[frozenset[int], None] = {}  # insertion-ordered, O(1) membership
    while True:
        subset = finder(config, y)
        if subset is None:
            break
        if subset in used:
            raise RuntimeError(f"finder named subset {sorted(subset)} twice")
        idx = [i - 1 for i in subset]
        vals = [y.item(i) for i in idx]
        level = subset_capacity(config, subset)
        if sum(vals) <= level:
            raise RuntimeError(f"finder named subset {sorted(subset)}, which the point satisfies")
        _capped_projection(y, idx, vals, level)
        used[subset] = None
    return ProjectionResult(y, tuple(used))
