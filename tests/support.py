"""Shared helpers for sampling test points in and around the capacity region,
and the oracles that check the package against them.

The constraint enumeration here is the tests' own (itertools, Python sums
and numpy's ``log1p``); it does not read the package's constraint table, so
the oracles built on it check that table instead of repeating it. The
most-violated finder, the plain hyperplane projection, the numpy floored
projection and the from-scratch hinted projection are the references that
the package's rate-splitting finder, floored projection and hint pass are
checked against; the from-scratch rate splitting checks the package's to the
bit, tie-breaks included. The plain-shift floored projection is the other
arithmetic form of the same projection, which the trace baseline must not
depend on.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from macalloc import (
    OVERLAP_TOL,
    ChannelConfig,
    Feasible,
    SpinOffUser,
    Violated,
    approximate_projection,
    constraint_slack,
    rate_split_analyze,
    rate_split_finder,
    subset_capacity,
)


def random_config(rng, m, lo=0.5, hi=2.0, noise=1.0) -> ChannelConfig:
    return ChannelConfig(tuple(rng.uniform(lo, hi, m)), noise)


def left_to_right_sum(values) -> float:
    """The float sum of ``values``, added left to right from 0.0, as the
    package adds. From Python 3.12 on the builtin ``sum`` compensates float
    sums, which rounds differently."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    power_sums = np.array([left_to_right_sum(config.powers[i] for i in s) for s in subsets])
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


def cascade_input(m) -> tuple[ChannelConfig, np.ndarray]:
    """Equal powers and an equal split just past the sum-rate bound: all M - 1
    merges happen (strict subsets stay feasible by strict concavity) before the
    final hyper-user turns up negative, exercising the full recursion depth."""
    cfg = ChannelConfig((1.0,) * m, 1.0)
    full = subset_capacity(cfg, range(1, m + 1))
    return cfg, np.full(m, full / m * (1.0 + 1e-7))


def subset_loads(config, rates) -> np.ndarray:
    """The rates' sum over each of :func:`nonempty_subsets`, in increasing
    user order, so designed ties stay exact."""
    membership, _ = subset_table(config)
    loads = np.zeros(len(membership))
    for i, x in enumerate(np.asarray(rates, dtype=float)):
        loads += membership[:, i] * x
    return loads


def find_most_violated(config, rates, tol=1e-9):
    """Deepest violated constraint as ``(members, slack)``, or None.

    Ties go to the smallest cardinality, then the smallest bitmask.
    """
    _, capacities = subset_table(config)
    slacks = capacities - subset_loads(config, rates)
    worst = float(slacks.min())
    if worst >= -tol:
        return None
    subsets = nonempty_subsets(config.num_users)
    ties = [subsets[k] for k in np.flatnonzero(slacks == worst)]
    best = min(ties, key=lambda s: (len(s), sum(1 << i for i in s)))
    return frozenset(i + 1 for i in best), worst


def most_violated_finder(config, rates):
    """Violation finder for ``approximate_projection`` by exhaustive enumeration."""
    hit = find_most_violated(config, rates)
    return hit[0] if hit is not None else None


def rate_split_reference(config, rates):
    """``rate_split_analyze`` from its description alone, for (hyper-)user
    rates up to about 354.89 nats. Past that, math.expm1 of twice the rate
    overflows and this raises OverflowError, where the package sets the
    elevation to -noise: such a rate exceeds every accepted capacity.

    Every round sorts all hyper-users by (band, smallest original index). The
    band of elevation e is the float (e / noise) + 1.5 * 2**52 * g, g the
    power of two in (OVERLAP_TOL, 2 * OVERLAP_TOL]. If any elevation is below
    -OVERLAP_TOL * noise, the members of the first such hyper-user are the
    violated subset. Otherwise the first adjacent pair whose lower rectangle
    reaches into the upper one, by the exact elevations, merges: summed power
    and rate, the lower hyper-user's members united with the upper's. With no
    such pair, the sorted hyper-users are the certificate. The slack is
    0.5 * log1p(power sum / noise) minus the rate sum, both sums in increasing
    user order.
    """
    noise = config.noise
    tol = OVERLAP_TOL * noise
    g = 1.0
    while g / 2.0 > OVERLAP_TOL:
        g /= 2.0
    snap = 1.5 * 2.0**52 * g

    def hyper_user(power, rate, members):
        elevation = power / math.expm1(2.0 * rate) - noise if rate > 0.0 else math.inf
        return SpinOffUser(power, rate, elevation, members)

    rates = [float(x) for x in rates]
    users = [hyper_user(p, x, frozenset({i})) for i, (p, x) in enumerate(zip(config.powers, rates), 1)]
    while True:
        users.sort(key=lambda u: (u.elevation / noise + snap, min(u.members)))
        violated = [u for u in users if u.elevation < -tol]
        if violated:
            subset = violated[0].members
            power = left_to_right_sum(config.powers[i - 1] for i in sorted(subset))
            load = left_to_right_sum(rates[i - 1] for i in sorted(subset))
            return Violated(subset, 0.5 * float(np.log1p(power / noise)) - load)
        for k in range(len(users) - 1):
            low, high = users[k], users[k + 1]
            if high.elevation < low.elevation + low.power - tol:
                users[k : k + 2] = [hyper_user(low.power + high.power, low.rate + high.rate,
                                               low.members | high.members)]
                break
        else:
            return Feasible(tuple(users))


def project_onto_hyperplane(point, members, level: float) -> np.ndarray:
    """Euclidean projection onto {x : sum_{i in S} x_i = level}.

    For the 0/1 indicator a of S this is x = y - ((a'y - level)/|S|) a: the
    excess is split evenly over the members; other coordinates are untouched.
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


def capped_projection(point, idx, vals, level: float) -> np.ndarray:
    """Projection of a nonnegative point onto {sum_S x <= level, x_S >= 0}, in numpy.

    ``vals`` is ``point[idx]`` and sums to more than ``level``. Returns a copy
    with x_i = max(y_i - theta, 0) on S in the gap form. With top the largest
    value, the (k + 1)-th largest is kept, in turn, while the quotient
    (level + the running sum of the gaps top - y of the 2nd to (k + 1)-th) /
    (k + 1) exceeds its own gap; t = top - theta is the last kept quotient
    (level if only top is kept), and x_i = t - (top - y_i). The reference the
    package's in-place Python version must match bit for bit.
    """
    desc = np.sort(vals)[::-1]
    top = desc[0]
    gaps = top - desc[1:]
    candidates = (level + np.cumsum(gaps)) / np.arange(2, len(desc) + 1)
    stops = candidates <= gaps
    kept = int(np.argmax(stops)) if stops.any() else len(gaps)  # besides the largest
    t = candidates[kept - 1] if kept else level
    x = t - (top - np.asarray(vals, dtype=float))
    out = np.array(point, dtype=float)
    out[idx] = np.where(x > 0.0, x, 0.0)
    return out


def plain_capped_projection(point, idx, vals, level: float) -> np.ndarray:
    """:func:`capped_projection` as the plain shift x_i = max(y_i - theta, 0),
    with theta taken from the descending sort's running sums. Accurate while
    the largest value is within about 1e4 times the level, but rounded
    differently from the gap form."""
    desc = np.sort(vals)[::-1]
    theta_cand = (np.cumsum(desc) - level) / np.arange(1, len(desc) + 1)
    rho = int(np.nonzero(desc - theta_cand > 0.0)[0][-1])
    out = np.array(point, dtype=float)
    out[idx] = np.maximum(vals - theta_cand[rho], 0.0)
    return out


def in_place(form):
    """A numpy floored projection such as :func:`capped_projection` with the
    in-place signature of ``macalloc.projection._capped_projection``, for
    putting it in the package's place."""
    def project(y, idx, vals, level):
        idx = list(idx)
        out = form(np.array(y), idx, np.array(vals), level)
        for i in idx:
            y[i] = float(out[i])
    return project


def hinted_projection(config, point, hint) -> tuple[np.ndarray, list[frozenset[int]]]:
    """``approximate_projection(config, point, hint=hint)`` from scratch.

    Every subset is tested by ``constraint_slack`` at the current numpy point
    and projected onto by :func:`capped_projection` at its ``subset_capacity``.
    The hinted subsets go first, in order, each one projected onto if its
    slack is negative and it is not yet used (an empty one never is); then
    ``rate_split_finder`` is asked until it returns None. Returns the point
    and the subsets projected onto, in order. The reference for the package's
    carried levels and its working point of Python floats.
    """
    y = np.maximum(np.array(point, dtype=float), 0.0)
    used = []

    def project_if_violated(subset):
        nonlocal y
        if not subset or constraint_slack(config, y, subset) >= 0.0:
            return False
        idx = [i - 1 for i in subset]
        y = capped_projection(y, idx, y[idx], subset_capacity(config, subset))
        return True

    for subset in map(frozenset, hint):
        if subset not in used and project_if_violated(subset):
            used.append(subset)
    while (subset := rate_split_finder(config, y)) is not None:
        if subset in used or not project_if_violated(subset):
            raise RuntimeError(f"finder named subset {sorted(subset)} twice or satisfied")
        used.append(subset)
    return y, used


def exact_capped_projection(vals, level: float) -> list[Fraction]:
    """The floored projection of ``vals`` onto {sum x <= level, x >= 0} in
    exact rational arithmetic: the reference for rounding at any magnitude."""
    v = [Fraction(x) for x in vals]
    bound = Fraction(level)
    csum = Fraction(0)
    for k, d in enumerate(sorted(v, reverse=True), 1):
        csum += d
        candidate = (csum - bound) / k
        if d > candidate:
            theta = candidate
    return [max(x - theta, Fraction(0)) for x in v]


def violation_count(config, rates) -> int:
    """Number of constraints the point exceeds by more than 1e-9."""
    _, capacities = subset_table(config)
    return int(np.count_nonzero(capacities - subset_loads(config, rates) < -1e-9))


def pre_projection_points(utility, rates, stepsizes) -> np.ndarray:
    """The points ``solve`` projected, rebuilt from its trace.

    Row k-1 is step k's gradient point rates[k-1] + stepsizes[k] * g(rates[k-1]),
    computed as ``solve`` computes it, so it is the same point to the bit.
    """
    rates = np.asarray(rates, dtype=float)
    return np.array([r + a * utility.subgradient(r) for r, a in zip(rates[:-1], stepsizes[1:])])


def pre_projection_violations(config, utility, trace) -> list[int]:
    """Violation count of each step's pre-projection point in a solve trace."""
    return [violation_count(config, y) for y in pre_projection_points(utility, trace.rates, trace.stepsizes)]


def batch_feasible(config, points, tol=1e-9) -> np.ndarray:
    """Vectorized brute-force feasibility for each row of ``points``.

    Raises ValueError on NaN or infinite coordinates, which have no
    feasibility to report.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():
        raise ValueError("rates must be finite")
    ok_nonneg = (pts >= -tol).all(axis=1)
    return ok_nonneg & (min_slack(config, pts) >= -tol)


def certify_agreement(config, rates) -> bool:
    """Do rate splitting and enumeration agree on feasibility of this point?

    Points whose minimum slack lies within +-10*OVERLAP_TOL of zero are
    accepted either way (boundary tolerance band).
    """
    worst = float(min_slack(config, rates)[0])
    if abs(worst) <= 10.0 * OVERLAP_TOL:
        return True
    report = rate_split_analyze(config, rates)
    return isinstance(report, Violated) == (worst < 0.0)


def pseudo_nonexpansive_check(config, point, feasible_point, finder=rate_split_finder, tol=1e-9) -> bool:
    """Projecting never moves a point away from a fixed feasible point."""
    y = np.asarray(point, dtype=float)
    anchor = np.asarray(feasible_point, dtype=float)
    projected = approximate_projection(config, y, finder=finder).point
    return bool(np.linalg.norm(projected - anchor) <= np.linalg.norm(y - anchor) + tol)
