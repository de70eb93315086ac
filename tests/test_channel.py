import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macalloc import (
    ChannelConfig,
    awgn_capacity,
    constraint_slack,
    constraint_table,
    subset_capacity,
    subset_members,
)
from macalloc.channel import subset_sums
from support import batch_feasible, random_config

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

    @pytest.mark.parametrize("power, noise", [
        (math.nan, 1.0),
        (1.0, math.nan),
        (1.0, math.inf),
        (math.inf, math.inf),
        (-math.inf, 1.0),
    ])
    def test_non_finite_rejected(self, power, noise):
        with pytest.raises(ValueError):
            awgn_capacity(power, noise)

    def test_overflowed_power_sum_has_infinite_capacity(self):
        assert awgn_capacity(math.inf, 1.0) == math.inf
        assert awgn_capacity(1e308 + 1e308, 1.0) == math.inf

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

    @pytest.mark.parametrize("powers, noise", [
        ((1e300, 1e300), 1e-10),  # every SNR overflows
        ((1.0, 1.0), 1e-320),  # a subnormal noise
        ((1e308, 1e308), 1.0),  # the power sum overflows
    ])
    def test_rejects_an_infinite_total_snr(self, powers, noise):
        """The first two once gave a NaN expansion_delta, so capped steps went
        uncapped; the third has no finite full-set capacity."""
        with pytest.raises(ValueError, match="total SNR"):
            ChannelConfig(powers, noise)

    def test_accepts_a_total_snr_near_the_largest_float(self):
        top = ChannelConfig((1e308, 7e307), 1.0)
        assert subset_capacity(top, {1, 2}) < math.inf

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
            mask = sum(1 << (i - 1) for i in members)
            assert subset_members(mask) == frozenset(members)
            assert subset_members(np.int64(mask)) == frozenset(members)

    @pytest.mark.parametrize("mask", [-1, -2, -(1 << 70), np.int64(-1)])
    def test_negative_mask_rejected(self, mask):
        """Two's complement would give -1 user 1 alone."""
        with pytest.raises(ValueError, match="nonnegative"):
            subset_members(mask)

    @pytest.mark.parametrize("mask", [2.5, 5.0, "5", None, True, False])
    def test_non_integer_mask_rejected(self, mask):
        with pytest.raises(ValueError, match="integer"):
            subset_members(mask)


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

    @pytest.mark.parametrize("rates", [[0.1], [0.1, 0.1, 0.1, 0.1], [[0.1, 0.1]], 0.1])
    def test_wrong_shape_rejected(self, rates):
        with pytest.raises(ValueError, match="expected 2 rates"):
            constraint_slack(TWO_USER, rates, {1})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        """Outside the subset too: the rate vector as a whole must be finite."""
        for rates in ([bad, 0.1], [0.1, bad]):
            with pytest.raises(ValueError, match="finite"):
                constraint_slack(TWO_USER, rates, {1, 2})
            with pytest.raises(ValueError, match="finite"):
                constraint_slack(TWO_USER, rates, {1})

    def test_negative_rates_keep_their_slack(self):
        assert constraint_slack(TWO_USER, [-0.5, 0.25], {1, 2}) == subset_capacity(TWO_USER, {1, 2}) + 0.25

    def test_is_the_table_minus_the_subset_sums(self):
        """Capacity and load both come out of the one formula each, so the
        slack is the enumeration's to the bit on every subset."""
        rng = np.random.default_rng(83)
        for m in range(1, 11):
            cfg = random_config(rng, m, noise=10.0 ** rng.uniform(-9.0, 9.0))
            scale = subset_capacity(cfg, range(1, m + 1))
            rates = rng.uniform(-0.2, 1.0, m) * scale
            expected = constraint_table(cfg) - subset_sums(rates)
            for mask in range(1, 1 << m):
                assert constraint_slack(cfg, rates, subset_members(mask)) == expected[mask], (cfg, mask)


class TestBruteForceFeasibility:
    """support.batch_feasible, the tests' enumeration oracle for feasibility."""

    def test_examples(self):
        assert batch_feasible(TWO_USER, [[0.2, 0.2], [0.3, 0.3], [0.0, 0.0]]).tolist() == [
            True, False, True
        ]

    def test_origin_always_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(1, 9)))
            assert batch_feasible(cfg, np.zeros(cfg.num_users)).all()

    def test_negative_rate_infeasible(self):
        assert not batch_feasible(TWO_USER, [-0.01, 0.1]).any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            batch_feasible(TWO_USER, [bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            batch_feasible(TWO_USER, [-1.0, bad])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_is_infeasible(self):
        assert not batch_feasible(TWO_USER, [1e308, 1e308]).any()


class TestConstraintTable:
    def test_entry_k_is_bitmask_k(self):
        cfg = ChannelConfig((1.0, 2.0, 4.0), 2.0)
        capacities = constraint_table(cfg)
        assert capacities.shape == (8,)
        for mask in range(8):
            power_sum = sum(p for i, p in enumerate(cfg.powers) if mask >> i & 1)
            expected = 0.5 * math.log1p(power_sum / cfg.noise)
            assert capacities[mask] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert not capacities.flags.writeable

    def test_subset_capacity_is_the_table_at_every_mask(self):
        """The scalar and the vectorized capacity are one formula over one
        power sum, so they agree to the bit, at any noise level."""
        rng = np.random.default_rng(79)
        for n in range(30):
            m = n % 12 + 1
            cfg = random_config(rng, m, lo=1e-3, hi=1e3, noise=10.0 ** rng.uniform(-9.0, 9.0))
            capacities = constraint_table(cfg)
            for mask in range(1, 1 << m):
                assert subset_capacity(cfg, subset_members(mask)) == capacities[mask], (cfg, mask)

    def test_subset_capacity_is_the_table_at_sampled_masks_of_20_users(self):
        rng = np.random.default_rng(89)
        for noise in (1e-9, 1e-3, 1.0, 1e3, 1e9):
            cfg = random_config(rng, 20, lo=1e-3 * noise, hi=1e3 * noise, noise=noise)
            capacities = constraint_table(cfg)
            for mask in rng.integers(1, 1 << 20, 1000).tolist():
                assert subset_capacity(cfg, subset_members(mask)) == capacities[mask], (cfg, mask)

    def test_keeps_one_table_at_the_cap(self):
        """Its callers work on one config at a time, so the tables of earlier
        configs are released: after four M = 20 configs only the last one's
        8 MiB stays referenced."""
        configs = [ChannelConfig((1.0 + k / 7.0,) * 20, 3.0) for k in range(4)]
        tracemalloc.start()
        try:
            for cfg in configs:
                constraint_table(cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1.5 * constraint_table(configs[-1]).nbytes


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
