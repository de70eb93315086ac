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

from .channel import ChannelConfig, FEASIBILITY_TOL, subset_capacity
from .violations import OVERLAP_TOL, Violated, find_most_violated, rate_split_analyze

# A violation finder maps (config, rates >= 0) to a violated subset or None.
ViolationFinder = Callable[[ChannelConfig, np.ndarray], "frozenset[int] | None"]


def rate_split_finder(config: ChannelConfig, rates, tol: float = OVERLAP_TOL):
    """Finder backed by the rate-splitting recursion (scales in M)."""
    report = rate_split_analyze(config, rates, tol=tol)
    return report.subset if isinstance(report, Violated) else None


def most_violated_finder(config: ChannelConfig, rates, tol: float = OVERLAP_TOL):
    """Finder returning the most violated constraint (enumeration, small M)."""
    hit = find_most_violated(config, rates, tol=tol)
    return hit[0] if hit is not None else None


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    hyperplanes_used: tuple[frozenset[int], ...]
    clamped: bool


def project_onto_hyperplane(point, members, level: float) -> np.ndarray:
    """Euclidean projection onto {x : sum_{i in S} x_i = level}.

    For the 0/1 indicator a of S this is x = y - ((a'y - level)/|S|) a:
    the excess is split evenly over the members; other coordinates are
    untouched.
    """
    s = sorted(set(members))
    if not s:
        raise ValueError("cannot project onto the empty subset")
    y = np.array(point, dtype=float)
    idx = np.asarray(s) - 1
    if idx[0] < 0 or idx[-1] >= len(y):
        raise ValueError(f"subset {s} out of range for a {len(y)}-vector")
    y[idx] -= (y[idx].sum() - level) / len(idx)
    return y


def _capped_projection(
    point: np.ndarray, idx: np.ndarray, vals: np.ndarray, level: float
) -> tuple[np.ndarray, bool]:
    """Exact projection of a nonnegative point onto {sum_S x <= level, x_S >= 0}.

    ``vals`` holds the point's coordinates on S (index array ``idx``) and must
    sum to more than ``level``.

    Uniform shift with a zero floor: x_i = max(y_i - theta, 0) on S with the
    smallest theta >= 0 that brings the sum down to level. When no coordinate
    crosses zero this equals the plain hyperplane projection. Keeping the
    floor inside the projection (rather than clamping afterwards) is what
    guarantees a constraint never re-violates once projected, so each subset
    is used at most once.
    """
    desc = np.sort(vals)[::-1]
    csum = np.cumsum(desc)
    counts = np.arange(1, len(desc) + 1)
    theta_cand = (csum - level) / counts
    rho = int(np.nonzero(desc - theta_cand > 0.0)[0][-1])
    theta = theta_cand[rho]
    out = point.copy()
    out[idx] = np.maximum(vals - theta, 0.0)
    return out, bool((vals < theta).any())


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
    clamped = bool(low < 0.0)
    np.maximum(y, 0.0, out=y)

    used: dict[frozenset[int], None] = {}  # insertion-ordered, O(1) membership
    while True:
        subset = finder(config, y)
        if subset is None:
            break
        if subset in used:
            raise RuntimeError(f"finder named subset {sorted(subset)} twice")
        idx = np.fromiter((i - 1 for i in sorted(subset)), dtype=int)
        vals = y[idx]
        level = subset_capacity(config, subset)
        if vals.sum() <= level:
            raise RuntimeError(f"finder named subset {sorted(subset)}, which the point satisfies")
        y, floored = _capped_projection(y, idx, vals, level)
        clamped = clamped or floored
        used[subset] = None
    return ProjectionResult(y, tuple(used), clamped)


def pseudo_nonexpansive_check(
    config: ChannelConfig,
    point,
    feasible_point,
    finder: ViolationFinder = rate_split_finder,
    tol: float = FEASIBILITY_TOL,
) -> bool:
    """Projecting never moves a point away from any fixed feasible point."""
    y = np.asarray(point, dtype=float)
    anchor = np.asarray(feasible_point, dtype=float)
    projected = approximate_projection(config, y, finder=finder).point
    return bool(
        np.linalg.norm(projected - anchor) <= np.linalg.norm(y - anchor) + tol
    )
