"""The package's 2**M enumeration against the tests' own itertools enumeration."""

import tracemalloc

import numpy as np
import pytest

from macalloc import (
    ChannelConfig,
    Violated,
    certify_agreement,
    constraint_table,
    count_violations,
    find_most_violated,
    is_feasible_bruteforce,
    rate_split_analyze,
)
from support import nonempty_subsets, subset_table

TOL = 1e-9  # default tolerance of all four entry points
BAND = 1e-11  # oracle slacks this close to a decision threshold are skipped
POWER_SCALES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


def _oracle_slacks(cfg, point):
    """Slack per :func:`nonempty_subsets` entry, loads summed in user order."""
    capacities = subset_table(cfg)[1]
    loads = [sum(float(point[i]) for i in s) for s in nonempty_subsets(cfg.num_users)]
    return capacities - np.array(loads)


def _oracle_most_violated(slacks, m):
    """Deepest subset with its slack; ties go to the smallest cardinality, then bitmask."""
    worst = slacks.min()
    if worst >= -TOL:
        return None, []
    ties = [s for s, v in zip(nonempty_subsets(m), slacks) if v == worst]
    best = min(ties, key=lambda s: (len(s), sum(1 << i for i in s)))
    return (frozenset(i + 1 for i in best), worst), ties


def _near(values, threshold):
    return bool((np.abs(np.asarray(values) - threshold) < BAND).any())


def _check_point(cfg, point):
    """Compare all four entry points with the oracle; returns the tied minimizers."""
    slacks = _oracle_slacks(cfg, point)
    expected, ties = _oracle_most_violated(slacks, cfg.num_users)
    assert find_most_violated(cfg, point) == expected
    if not _near(slacks, -TOL):
        assert count_violations(cfg, point) == int((slacks < -TOL).sum())
        if not _near(point, -TOL):
            feasible = bool((np.asarray(point) >= -TOL).all() and (slacks >= -TOL).all())
            assert is_feasible_bruteforce(cfg, point) == feasible
    if (np.asarray(point) >= 0.0).all():
        worst = slacks.min()
        if abs(abs(worst) - 10.0 * TOL) >= BAND:
            split_says_violated = isinstance(rate_split_analyze(cfg, point), Violated)
            agrees = abs(worst) <= 10.0 * TOL or split_says_violated == (worst < 0.0)
            assert certify_agreement(cfg, point) == agrees
    return ties


def test_enumeration_matches_itertools():
    """count_violations, find_most_violated, is_feasible_bruteforce and
    certify_agreement match the itertools oracle at M <= 8 and power scales
    1e-3..1e3, the most violated subset down to its tie-break.

    Tied deepest subsets come from equal-power configs: users 1..M-1 carry a
    rate a and user M carries b = f(all) - f(all but M), so the two largest
    subsets tie. The minimizers of a submodular function form a lattice, so
    exact ties always span sizes and the cardinality rule decides them.
    """
    rng = np.random.default_rng(20)
    checked = 0
    tied = 0
    for scale in POWER_SCALES:
        for m in range(1, 9):
            noise = float(rng.uniform(0.5, 2.0))
            cfg = ChannelConfig(tuple(scale * rng.uniform(0.5, 2.0, m)), noise)
            membership, capacities = subset_table(cfg)
            for _ in range(12):
                direction = rng.uniform(0.05, 1.0, m)
                t = float((capacities / (membership @ direction)).min())
                point = direction * t * rng.uniform(0.3, 1.7)
                if rng.uniform() < 0.25:
                    point[rng.integers(m)] *= -1.0
                _check_point(cfg, point)
                checked += 1

            if m < 2:
                continue
            equal = ChannelConfig((scale,) * m, noise)
            caps = subset_table(equal)[1]
            b = caps[-1] - caps[-1 - m]  # f(all) minus f(users 1..M-1)
            for a in caps[0] * np.linspace(1.05, 1.5, 10):
                ties = _check_point(equal, np.array([a] * (m - 1) + [b]))
                if len(ties) > 1:
                    assert {len(s) for s in ties} == {m - 1, m}
                    tied += 1
    assert checked == len(POWER_SCALES) * 8 * 12
    assert tied >= 10


class TestMemoryAtCap:
    def test_table_is_two_vectors_at_m20(self):
        cfg = ChannelConfig(tuple(np.linspace(0.5, 2.0, 20)), 1.0)
        arrays = constraint_table(cfg)
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 2 * 2**20 * 8

    def test_first_count_peak_below_64mb_at_m20(self):
        cfg = ChannelConfig(tuple(np.linspace(0.6, 2.1, 20)), 1.3)
        point = np.full(20, 0.1)  # the full set is over its bound, 2.0 > 1.55 nats
        tracemalloc.start()
        try:
            count = count_violations(cfg, point)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert 1 <= count < 2**20
