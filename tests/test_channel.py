import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macalloc import (
    ChannelConfig,
    awgn_capacity,
    constraint_slack,
    constraint_table,
    is_feasible_bruteforce,
    subset_capacity,
    subset_mask,
    subset_members,
)
from support import random_config

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)


class TestAwgnCapacity:
    def test_zero_power(self):
        assert awgn_capacity(0.0, 1.0) == 0.0

    def test_unit_snr(self):
        assert awgn_capacity(1.0, 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert awgn_capacity(1.0, 1.0) == pytest.approx(0.3465735903, abs=1e-10)

    def test_snr_two(self):
        assert awgn_capacity(2.0, 1.0) == pytest.approx(0.5493061443, abs=1e-10)

    def test_monotone(self):
        assert awgn_capacity(2.0, 1.0) > awgn_capacity(1.0, 1.0)
        assert awgn_capacity(1.0, 2.0) < awgn_capacity(1.0, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            awgn_capacity(1.0, 0.0)
        with pytest.raises(ValueError):
            awgn_capacity(1.0, -1.0)
        with pytest.raises(ValueError):
            awgn_capacity(-0.1, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        p1=st.floats(0.0, 50.0),
        p2=st.floats(1e-3, 50.0),
        noise=st.floats(1e-2, 10.0),
    )
    def test_successive_decoding_chain_rule(self, p1, p2, noise):
        """Decoding one message on top of another splits the capacity exactly."""
        whole = awgn_capacity(p1 + p2, noise)
        split = awgn_capacity(p1, noise + p2) + awgn_capacity(p2, noise)
        assert whole == pytest.approx(split, abs=1e-12)


class TestChannelConfig:
    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            ChannelConfig((1.0, 0.0), 1.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            ChannelConfig((1.0,), 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelConfig((), 1.0)

    def test_coerces_and_hashes(self):
        cfg = ChannelConfig([1, 2], 1)
        assert cfg.powers == (1.0, 2.0)
        assert cfg.num_users == 2
        assert hash(cfg) == hash(ChannelConfig((1.0, 2.0), 1.0))


class TestSubsetCapacity:
    def test_empty_set_is_zero_exactly(self):
        assert subset_capacity(TWO_USER, frozenset()) == 0.0

    def test_singleton(self):
        assert subset_capacity(TWO_USER, {1}) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_full_set(self):
        assert subset_capacity(TWO_USER, {1, 2}) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            subset_capacity(TWO_USER, {3})

    def test_mask_round_trip(self):
        for members in ({1}, {2, 5}, {1, 2, 3}, set()):
            assert subset_members(subset_mask(members)) == frozenset(members)


class TestConstraintSlack:
    def test_origin_is_slack_positive(self):
        assert constraint_slack(TWO_USER, [0.0, 0.0], {1, 2}) == pytest.approx(
            0.5 * math.log(3.0), abs=1e-15
        )

    def test_violated_pair(self):
        assert constraint_slack(TWO_USER, [0.3, 0.3], {1, 2}) == pytest.approx(-0.0507, abs=1e-4)

    def test_boundary_point(self):
        r1 = awgn_capacity(1.0, 1.0)
        assert abs(constraint_slack(TWO_USER, [r1, 0.0], {1})) < 1e-12

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            constraint_slack(TWO_USER, [0.0, 0.0], set())


class TestBruteForceFeasibility:
    def test_examples(self):
        assert is_feasible_bruteforce(TWO_USER, [0.2, 0.2])
        assert not is_feasible_bruteforce(TWO_USER, [0.3, 0.3])
        assert is_feasible_bruteforce(TWO_USER, [0.0, 0.0])

    def test_origin_always_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(1, 9)))
            assert is_feasible_bruteforce(cfg, np.zeros(cfg.num_users))

    def test_negative_rate_infeasible(self):
        assert not is_feasible_bruteforce(TWO_USER, [-0.01, 0.1])

    def test_size_cap(self):
        cfg = ChannelConfig(tuple([1.0] * 21), 1.0)
        with pytest.raises(ValueError):
            is_feasible_bruteforce(cfg, np.zeros(21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            is_feasible_bruteforce(TWO_USER, [bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            is_feasible_bruteforce(TWO_USER, [-1.0, bad])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_is_infeasible(self):
        assert not is_feasible_bruteforce(TWO_USER, [1e308, 1e308])


class TestConstraintTable:
    def test_entry_k_is_bitmask_k(self):
        cfg = ChannelConfig((1.0, 2.0, 4.0), 2.0)
        power_sums, capacities = constraint_table(cfg)
        assert power_sums.shape == capacities.shape == (8,)
        for mask in range(8):
            assert power_sums[mask] == sum(p for i, p in enumerate(cfg.powers) if mask >> i & 1)
            expected = 0.5 * math.log1p(power_sums[mask] / cfg.noise)
            assert capacities[mask] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert not power_sums.flags.writeable and not capacities.flags.writeable


class TestPolymatroidStructure:
    def test_submodularity(self):
        """f(S|T) + f(S&T) <= f(S) + f(T) for every pair of subsets."""
        rng = np.random.default_rng(11)
        for _ in range(12):
            m = int(rng.integers(2, 7))
            cfg = random_config(rng, m, lo=0.1, hi=5.0, noise=float(rng.uniform(0.2, 3.0)))
            caps = {s: subset_capacity(cfg, s) for s in _all_subsets(m)}
            for s, t in itertools.product(_all_subsets(m), repeat=2):
                lhs = caps[s | t] + caps[s & t]
                assert lhs <= caps[s] + caps[t] + 1e-12

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            m = int(rng.integers(2, 6))
            cfg = random_config(rng, m)
            subsets = _all_subsets(m)
            for s, t in itertools.product(subsets, repeat=2):
                if s <= t:
                    assert subset_capacity(cfg, s) <= subset_capacity(cfg, t) + 1e-15


def _all_subsets(m):
    return [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(1, m + 1), r)]
