"""Shared helpers for sampling test points in and around the capacity region.

The constraint enumeration here is the tests' own (itertools, Python sums
and numpy's ``log1p``); it does not read the package's constraint table, so
the oracles built on it check that table instead of repeating it.
"""

import itertools
from functools import lru_cache

import numpy as np

from macalloc import ChannelConfig


def random_config(rng, m, lo=0.5, hi=2.0, noise=1.0) -> ChannelConfig:
    return ChannelConfig(tuple(rng.uniform(lo, hi, m)), noise)


def nonempty_subsets(m) -> list[tuple[int, ...]]:
    """Every nonempty subset of the 0-based users 0..m-1, by cardinality."""
    return [c for k in range(1, m + 1) for c in itertools.combinations(range(m), k)]


@lru_cache(maxsize=64)
def subset_table(config) -> tuple[np.ndarray, np.ndarray]:
    """``(membership, capacities)`` over :func:`nonempty_subsets`.

    Row k of the 0/1 membership matrix marks subset k, and ``capacities[k]``
    is 0.5 * log1p(power sum / noise) for it, the power sum added in
    increasing user order.
    """
    subsets = nonempty_subsets(config.num_users)
    membership = np.zeros((len(subsets), config.num_users))
    for k, s in enumerate(subsets):
        membership[k, list(s)] = 1.0
    power_sums = np.array([sum(config.powers[i] for i in s) for s in subsets])
    capacities = 0.5 * np.log1p(power_sums / config.noise)
    membership.setflags(write=False)
    capacities.setflags(write=False)
    return membership, capacities


def min_slack(config, points) -> np.ndarray:
    """Minimum constraint slack for each row of ``points`` (shape (n, M))."""
    membership, capacities = subset_table(config)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return (capacities[:, None] - membership @ pts.T).min(axis=0)


def boundary_scale(config, direction) -> float:
    """Largest t with t * direction still inside the region (direction >= 0)."""
    membership, capacities = subset_table(config)
    loads = membership @ np.asarray(direction, dtype=float)
    positive = loads > 0
    if not positive.any():
        return np.inf
    return float((capacities[positive] / loads[positive]).min())


def random_feasible(rng, config) -> np.ndarray:
    direction = rng.uniform(0.05, 1.0, config.num_users)
    return direction * boundary_scale(config, direction) * rng.uniform(0.0, 1.0)


def random_infeasible(rng, config) -> np.ndarray:
    direction = rng.uniform(0.05, 1.0, config.num_users)
    return direction * boundary_scale(config, direction) * rng.uniform(1.02, 2.5)


def batch_feasible(config, points, tol=1e-9) -> np.ndarray:
    """Vectorized brute-force feasibility for each row of ``points``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ok_nonneg = (pts >= -tol).all(axis=1)
    return ok_nonneg & (min_slack(config, pts) >= -tol)
