import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macalloc import (
    ChannelConfig,
    Feasible,
    Violated,
    awgn_capacity,
    certify_agreement,
    constraint_slack,
    elevation,
    find_most_violated,
    is_feasible_bruteforce,
    rate_split_analyze,
    subset_capacity,
)
from support import random_config, random_feasible, random_infeasible

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)


class TestElevation:
    def test_rate_at_capacity_means_zero_headroom(self):
        r = awgn_capacity(1.0, 1.0)
        assert elevation(1.0, r, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_tolerates_anything(self):
        assert elevation(1.0, 0.0, 1.0) == math.inf

    def test_algebraic_inversion(self):
        assert elevation(1.0, 0.5 * math.log(1.5), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_negative_for_excess_rate(self):
        assert elevation(1.0, 0.4, 1.0) < 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            elevation(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            elevation(1.0, -0.1, 1.0)

    def test_huge_rate_saturates(self):
        assert elevation(1.0, 400.0, 2.0) == -2.0

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.05, 20.0),
        d=st.floats(0.0, 10.0),
        noise=st.floats(0.1, 5.0),
    )
    def test_round_trip(self, p, d, noise):
        r = awgn_capacity(p, noise + d)
        assert elevation(p, r, noise) == pytest.approx(d, rel=1e-8, abs=1e-8)


class TestFindMostViolated:
    def test_pair_most_violated(self):
        subset, slack = find_most_violated(TWO_USER, [0.3, 0.3])
        assert subset == {1, 2}
        assert slack == pytest.approx(-0.0507, abs=1e-4)

    def test_feasible_returns_none(self):
        assert find_most_violated(TWO_USER, [0.2, 0.2]) is None

    def test_single_user_violation(self):
        subset, slack = find_most_violated(TWO_USER, [0.4, 0.0])
        assert subset == {1}
        assert slack == pytest.approx(0.3465735903 - 0.4, abs=1e-9)

    def test_size_cap(self):
        cfg = ChannelConfig(tuple([1.0] * 21), 1.0)
        with pytest.raises(ValueError):
            find_most_violated(cfg, np.zeros(21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            find_most_violated(TWO_USER, [bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            certify_agreement(TWO_USER, [bad, 0.1])

    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            cfg = random_config(rng, int(rng.integers(2, 7)))
            point = random_infeasible(rng, cfg)
            subset, slack = find_most_violated(cfg, point)
            best = min(
                constraint_slack(cfg, point, frozenset(c))
                for r in range(1, cfg.num_users + 1)
                for c in itertools.combinations(range(1, cfg.num_users + 1), r)
            )
            assert slack == pytest.approx(best, abs=1e-12)
            assert constraint_slack(cfg, point, subset) == pytest.approx(best, abs=1e-12)


class TestRateSplitExamples:
    def test_symmetric_overshoot_names_the_pair(self):
        report = rate_split_analyze(TWO_USER, [0.3, 0.3])
        assert isinstance(report, Violated)
        assert report.subset == {1, 2}
        assert report.slack == pytest.approx(0.5 * math.log(3.0) - 0.6, abs=1e-12)

    def test_vertex_is_single_user_codable(self):
        report = rate_split_analyze(TWO_USER, [0.5 * math.log(2.0), 0.5 * math.log(1.5)])
        assert isinstance(report, Feasible)
        assert [sorted(u.members) for u in report.decoding_order] == [[1], [2]]
        assert report.decoding_order[0].elevation == pytest.approx(0.0, abs=1e-12)
        assert report.decoding_order[1].elevation == pytest.approx(1.0, abs=1e-12)

    def test_one_user_over_capacity(self):
        cfg = ChannelConfig((1.0,), 1.0)
        report = rate_split_analyze(cfg, [0.4])
        assert isinstance(report, Violated)
        assert report.subset == {1}

    def test_feasible_after_merge(self):
        # equal rates just inside the sum-rate bound: the two users overlap,
        # merge into one hyper-user, and that hyper-user checks out
        report = rate_split_analyze(TWO_USER, [0.27, 0.27])
        assert isinstance(report, Feasible)
        assert report.spinoff.num_users == 1
        merged = report.decoding_order[0]
        assert merged.members == {1, 2}
        assert merged.power == pytest.approx(2.0)
        assert merged.rate == pytest.approx(0.54)
        assert merged.elevation >= 0.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            rate_split_analyze(TWO_USER, [-0.1, 0.1])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            rate_split_analyze(TWO_USER, [0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rate_split_analyze(TWO_USER, [bad, 0.1])

    def test_deterministic(self):
        point = [0.31, 0.29]
        assert rate_split_analyze(TWO_USER, point) == rate_split_analyze(TWO_USER, point)


class TestRateSplitSoundness:
    def test_violated_reports_have_negative_slack(self):
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(200):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            point = random_infeasible(rng, cfg)
            report = rate_split_analyze(cfg, point)
            if isinstance(report, Violated):
                found += 1
                assert report.slack < 0.0
                assert constraint_slack(cfg, point, report.subset) == pytest.approx(
                    report.slack, abs=1e-12
                )
        assert found > 150

    def test_feasible_certificates(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            point = random_feasible(rng, cfg)
            report = rate_split_analyze(cfg, point)
            assert isinstance(report, Feasible)
            users = report.decoding_order

            # members partition the original user set
            all_members = sorted(i for u in users for i in u.members)
            assert all_members == list(range(1, cfg.num_users + 1))

            # merges conserve total power and rate
            assert sum(u.power for u in users) == pytest.approx(sum(cfg.powers), rel=1e-12)
            assert sum(u.rate for u in users) == pytest.approx(float(point.sum()), rel=1e-12, abs=1e-12)

            # each rate sits exactly at capacity under its own elevation
            for u in users:
                if math.isfinite(u.elevation):
                    assert u.rate == pytest.approx(
                        awgn_capacity(u.power, cfg.noise + u.elevation), abs=1e-9
                    )
                else:
                    assert u.rate == 0.0

            # single-user codability along the returned order
            assert users[0].elevation >= -1e-9
            for a, b in zip(users, users[1:]):
                if math.isfinite(a.elevation):
                    assert b.elevation >= a.elevation + a.power - 1e-9
                else:
                    assert b.elevation == math.inf

            assert is_feasible_bruteforce(cfg, point)

    def test_most_violated_is_at_least_as_deep(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            point = random_infeasible(rng, cfg)
            report = rate_split_analyze(cfg, point)
            if not isinstance(report, Violated):
                continue
            most = find_most_violated(cfg, point)
            assert most is not None
            assert most[1] <= report.slack + 1e-12

    def test_agreement_with_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            box = 1.3 * max(subset_capacity(cfg, {i}) for i in range(1, cfg.num_users + 1))
            point = rng.uniform(0.0, box, cfg.num_users)
            assert certify_agreement(cfg, point)

    def test_agreement_at_origin_and_boundary(self):
        assert certify_agreement(TWO_USER, np.zeros(2))
        half = subset_capacity(TWO_USER, {1, 2}) / 2.0
        assert certify_agreement(TWO_USER, np.array([half, half]))
