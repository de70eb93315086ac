import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import macalloc.optimizer as optimizer
from macalloc import (
    ChannelConfig,
    ConstantStep,
    DiminishingStep,
    LinearUtility,
    SolveSettings,
    WeightedLogUtility,
    alpha_max,
    count_violations,
    expansion_delta,
    greedy_vertex,
    rate_split_finder,
    solve,
    subset_capacity,
)
from support import batch_feasible, boundary_scale, pre_projection_violations, random_config, subset_table

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)


class TestExpansionDelta:
    def test_pinned_symmetric_pair(self):
        assert expansion_delta(TWO_USER) == pytest.approx(0.25 * math.log(4.0 / 3.0), abs=1e-15)
        assert expansion_delta(TWO_USER) == pytest.approx(0.0719205, abs=1e-7)

    def test_three_users(self):
        cfg = ChannelConfig((1.0, 2.0, 3.0), 1.0)
        # smallest two powers 1 and 2; remaining-power sum 3; total 6
        expected = 0.25 * math.log1p(1.0 * 2.0 / ((1.0 + 3.0) * (1.0 + 6.0)))
        assert expansion_delta(cfg) == pytest.approx(expected, abs=1e-15)
        assert expansion_delta(cfg) == pytest.approx(0.0172, abs=5e-4)

    def test_power_order_irrelevant(self):
        assert expansion_delta(ChannelConfig((3.0, 1.0, 2.0), 1.0)) == expansion_delta(
            ChannelConfig((1.0, 2.0, 3.0), 1.0)
        )

    def test_single_user_is_infinite(self):
        assert expansion_delta(ChannelConfig((1.0,), 1.0)) == math.inf

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=8), st.floats(-300.0, 300.0))
    # powers (1, 2, 0.5) times the noise, whose power products overflow or
    # underflow; the cap, about 0.0052, binds at the first step
    @example([1.0, 2.0, 0.5], -200.0)
    @example([1.0, 2.0, 0.5], 160.0)
    @example([1.0, 2.0, 0.5], 200.0)
    def test_depends_on_the_snrs_alone(self, snrs, log10_noise):
        """2 to 8 SNRs in [0.5, 2] at noise 1e-300..1e300: delta is the
        noise-1 value to rtol 1e-12, and capped solve steps never exceed
        alpha_max."""
        noise = 10.0**log10_noise
        cfg = ChannelConfig(tuple(noise * x for x in snrs), noise)
        assert expansion_delta(cfg) == pytest.approx(expansion_delta(ChannelConfig(snrs, 1.0)), rel=1e-12, abs=0.0)
        utility = WeightedLogUtility(np.ones(len(snrs)), epsilon=0.1)
        cap = alpha_max(cfg, utility.bound())
        budget = SolveSettings(max_iters=5, tol=1e-18, window=6)
        _, trace = solve(cfg, utility, DiminishingStep(0.1, capped=True), budget)
        assert trace.stepsizes[1] == cap
        assert (trace.stepsizes[1:] <= cap).all()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=1, max_size=6),
           st.floats(5e-324, 1.7976931348623157e308))
    # total - s(1) - s(2) rounds to -128 here, so a tail taken that way makes
    # delta log1p(-1): a math domain error
    @example([127.0, 2.0**60], 1.0)
    @example([1e308, 7e307], 1.0)
    @example([1e-300, 1e-300], 5e-324)
    def test_is_finite_for_every_accepted_config(self, powers, noise):
        """Any config ChannelConfig accepts, down to subnormal noise and up to
        the largest total SNR, has a finite delta >= 0 and a finite cap."""
        try:
            cfg = ChannelConfig(tuple(powers), noise)
        except ValueError:
            assume(False)
        delta = expansion_delta(cfg)
        assert delta >= 0.0
        assert math.isfinite(delta) or cfg.num_users == 1
        assert 0.0 <= alpha_max(cfg, 1.0) < math.inf or cfg.num_users == 1

    def test_bounds_half_the_submodularity_gap(self):
        """delta never exceeds (f(S) + f(T) - f(S&T) - f(S|T)) / 2 for crossing S, T."""
        rng = np.random.default_rng(71)
        for _ in range(15):
            m = int(rng.integers(2, 7))
            cfg = random_config(rng, m, lo=0.2, hi=4.0, noise=float(rng.uniform(0.3, 2.0)))
            delta = expansion_delta(cfg)
            subsets = [
                frozenset(c)
                for r in range(1, m + 1)
                for c in itertools.combinations(range(1, m + 1), r)
            ]
            caps = {s: subset_capacity(cfg, s) for s in subsets}
            caps[frozenset()] = 0.0
            for s, t in itertools.product(subsets, repeat=2):
                if s & t == s or s & t == t:
                    continue
                gap = 0.5 * (caps[s] + caps[t] - caps[s & t] - caps[s | t])
                assert delta <= gap + 1e-12


class TestAlphaMax:
    def test_pinned(self):
        assert alpha_max(TWO_USER, 1.0) == pytest.approx(0.0719205 / math.sqrt(2.0), abs=1e-6)

    def test_equals_delta_over_b_sqrt_m(self):
        cfg = ChannelConfig((0.7, 1.1, 2.2), 0.8)
        assert alpha_max(cfg, 2.5) == pytest.approx(
            expansion_delta(cfg) / (2.5 * math.sqrt(3.0)), abs=1e-15
        )

    def test_vanishes_for_huge_bound(self):
        assert alpha_max(TWO_USER, 1e12) < 1e-12

    def test_single_user_is_infinite(self):
        assert alpha_max(ChannelConfig((1.0,), 1.0), 1.0) == math.inf

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            alpha_max(TWO_USER, 0.0)


class TestGreedyVertex:
    def test_order_two_first(self):
        v = greedy_vertex(TWO_USER, (2, 1))
        assert v[1] == pytest.approx(0.5 * math.log(2.0), abs=1e-15)
        assert v[0] == pytest.approx(0.5 * math.log(1.5), abs=1e-12)

    def test_mirror_symmetry(self):
        a = greedy_vertex(TWO_USER, (1, 2))
        b = greedy_vertex(TWO_USER, (2, 1))
        np.testing.assert_allclose(a, b[::-1], atol=1e-15)

    def test_sum_is_full_capacity(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(1, 8)))
            order = rng.permutation(cfg.num_users) + 1
            v = greedy_vertex(cfg, order)
            full = subset_capacity(cfg, range(1, cfg.num_users + 1))
            assert v.sum() == pytest.approx(full, abs=1e-12)

    def test_all_orders_feasible(self):
        rng = np.random.default_rng(79)
        for m in (2, 3, 4, 5, 6):
            cfg = random_config(rng, m)
            for order in itertools.permutations(range(1, m + 1)):
                assert batch_feasible(cfg, greedy_vertex(cfg, order)).all()

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            greedy_vertex(TWO_USER, (1, 1))
        with pytest.raises(ValueError):
            greedy_vertex(TWO_USER, (1, 3))

    @pytest.mark.parametrize("order", [(1.7, 2.2), (1.0, 2.0), (True, 2), ("1", "2"), (np.True_, 2)])
    def test_entries_must_be_integers(self, order):
        with pytest.raises(ValueError, match="integer"):
            greedy_vertex(TWO_USER, order)

    def test_numpy_integers_pass(self):
        assert greedy_vertex(TWO_USER, np.array([2, 1])).tolist() == greedy_vertex(TWO_USER, (2, 1)).tolist()


class TestCountViolations:
    def test_feasible_point(self):
        assert count_violations(TWO_USER, [0.1, 0.1]) == 0

    def test_single(self):
        assert count_violations(TWO_USER, [0.3, 0.3]) == 1

    def test_all_three(self):
        assert count_violations(TWO_USER, [0.4, 0.4]) == 3

    def test_size_cap(self):
        cfg = ChannelConfig(tuple([1.0] * 21), 1.0)
        with pytest.raises(ValueError):
            count_violations(cfg, np.zeros(21))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            count_violations(TWO_USER, [bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            count_violations(TWO_USER, [-1.0, bad])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            count_violations(TWO_USER, [0.1])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_counts_every_constraint(self):
        assert count_violations(TWO_USER, [1e308, 1e308]) == 3


class TestStepsizeRules:
    def test_all_positive(self):
        for rule in (ConstantStep(0.1), DiminishingStep(0.1), DiminishingStep(0.1, capped=True)):
            for k in (0, 1, 10, 10_000):
                assert rule.at(k) > 0.0

    def test_diminishing_schedule(self):
        rule = DiminishingStep(0.2)
        assert rule.at(0) == pytest.approx(0.2)
        assert rule.at(3) == pytest.approx(0.1)

    def test_solve_caps_only_the_capped_rule(self):
        u = LinearUtility([1.0, 1.0])
        cap = alpha_max(TWO_USER, u.bound())
        settings = SolveSettings(max_iters=30, tol=1e-18, window=31)
        _, capped = solve(TWO_USER, u, DiminishingStep(0.1, capped=True), settings)
        _, plain = solve(TWO_USER, u, DiminishingStep(0.1), settings)
        for k in range(30):
            assert capped.stepsizes[k + 1] == min(0.1 / math.sqrt(k + 1.0), cap)
            assert plain.stepsizes[k + 1] == 0.1 / math.sqrt(k + 1.0)
        # the cap binds early and releases later, so both branches of the min ran
        assert capped.stepsizes[1] == cap < plain.stepsizes[1]
        assert capped.stepsizes[-1] == plain.stepsizes[-1] < cap

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantStep(0.0)
        with pytest.raises(ValueError):
            DiminishingStep(-0.1)


class TestSolveSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveSettings(max_iters=0)
        with pytest.raises(ValueError):
            SolveSettings(tol=0.0)
        with pytest.raises(ValueError):
            SolveSettings(window=0)

    @pytest.mark.parametrize("field", ["max_iters", "window"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None, np.float64(2.0)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="integer"):
            SolveSettings(**{field: value})

    def test_numpy_integers_are_stored_as_ints(self):
        settings = SolveSettings(max_iters=np.int64(3), window=np.int32(2))
        assert type(settings.max_iters) is int and settings.max_iters == 3
        assert type(settings.window) is int and settings.window == 2


class TestSolve:
    def test_sum_rate_reaches_dominant_face(self):
        best, trace = solve(
            TWO_USER,
            LinearUtility([1.0, 1.0]),
            DiminishingStep(0.02),
            SolveSettings(max_iters=4000, tol=1e-18, window=4001),
        )
        assert best.sum() == pytest.approx(0.5 * math.log(3.0), abs=1e-3)

    def test_weighted_sum_matches_vertex_oracle(self):
        best, trace = solve(
            TWO_USER,
            LinearUtility([2.0, 1.0]),
            DiminishingStep(0.02),
            SolveSettings(max_iters=4000, tol=1e-18, window=4001),
        )
        ustar = max(
            LinearUtility([2.0, 1.0]).value(greedy_vertex(TWO_USER, p))
            for p in itertools.permutations((1, 2))
        )
        assert ustar == pytest.approx(0.8958797346140276, abs=1e-12)
        assert trace.best_utility == pytest.approx(ustar, abs=1e-3)

    def test_log_utility_finds_midpoint(self):
        best, trace = solve(
            TWO_USER,
            WeightedLogUtility([1.0, 1.0], epsilon=1.0),
            DiminishingStep(0.05),
            SolveSettings(max_iters=4000, tol=1e-18, window=4001),
        )
        half = subset_capacity(TWO_USER, {1, 2}) / 2.0
        np.testing.assert_allclose(best, [half, half], atol=1e-3)

    def test_iterates_feasible_and_best_monotone(self):
        rng = np.random.default_rng(83)
        cfg = random_config(rng, 5)
        u = LinearUtility(rng.uniform(0.5, 2.0, 5))
        best, trace = solve(cfg, u, DiminishingStep(0.05), SolveSettings(max_iters=300, tol=1e-18, window=301))
        assert batch_feasible(cfg, trace.rates).all()
        running = np.maximum.accumulate(trace.utilities)
        assert (np.diff(running) >= 0.0).all()
        assert trace.best_utility == pytest.approx(trace.utilities.max())
        assert u.value(best) == pytest.approx(trace.best_utility)
        assert trace.utilities[trace.best_iter] == pytest.approx(trace.best_utility)

    def test_starts_at_origin(self):
        _, trace = solve(TWO_USER, LinearUtility([1.0, 1.0]), DiminishingStep(0.1), SolveSettings(max_iters=1))
        np.testing.assert_array_equal(trace.rates[0], [0.0, 0.0])
        assert trace.stepsizes[0] == 0.0

    def test_stalls_on_flat_utility(self):
        settings = SolveSettings(max_iters=1000, tol=1e-9, window=50)
        _, trace = solve(TWO_USER, LinearUtility([0.0, 0.0]), DiminishingStep(0.1), settings)
        assert trace.stop_reason == "stalled"
        assert trace.iterations == settings.window

    def test_large_noise_solves(self):
        """Powers and noise scaled by 1e6 together keep the SNRs: no RuntimeError
        from the projection loop, and every iterate is feasible."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 11))
            cfg = ChannelConfig(tuple(1e6 * rng.uniform(0.5, 2.0, m)), 1e6)
            u = LinearUtility(rng.uniform(0.5, 2.0, m))
            _, trace = solve(cfg, u, DiminishingStep(0.1), SolveSettings(max_iters=60, tol=1e-18, window=61))
            assert batch_feasible(cfg, trace.rates).all()
            assert trace.projections.sum() > 0

    def test_every_projection_ends_in_a_certificate(self, monkeypatch):
        """Each projection re-tests the last step's hyperplanes first, but
        only a rate-split call that returns None ends it, so every iterate is
        certified; enumeration agrees, at noise scales 1e-6 to 1e6."""
        finds: list[list] = []
        project = optimizer.approximate_projection

        def per_projection(*args, **kwargs):
            finds.append([])
            return project(*args, **kwargs)

        def counting(config, rates):
            found = rate_split_finder(config, rates)
            finds[-1].append(found)
            return found

        monkeypatch.setattr(optimizer, "approximate_projection", per_projection)
        rng = np.random.default_rng(1013)
        hyperplanes = finder_hits = 0
        for run in range(60):
            scale = (1e-6, 1.0, 1e6)[run % 3]
            m = int(rng.integers(2, 13))
            cfg = ChannelConfig(tuple(scale * rng.uniform(0.5, 2.0, m)), scale)
            if run % 2 == 0:
                u = LinearUtility(rng.uniform(0.5, 2.0, m))
            else:
                u = WeightedLogUtility(rng.uniform(0.5, 2.0, m), epsilon=1.0)
            finds.clear()
            _, trace = solve(cfg, u, DiminishingStep(0.1), SolveSettings(max_iters=40, tol=1e-18, window=41),
                             finder=counting)
            assert len(finds) == trace.iterations
            assert all(calls and calls[-1] is None for calls in finds)
            assert batch_feasible(cfg, trace.rates).all()
            hyperplanes += int(trace.projections.sum())
            finder_hits += sum(len(calls) - 1 for calls in finds)
        # most hyperplanes came from the hint, not from a finder call
        assert 4 * finder_hits < hyperplanes


class TestTheoremCap:
    def test_capped_steps_violate_at_most_m(self):
        rng = np.random.default_rng(89)
        for m in (2, 4, 6):
            cfg = random_config(rng, m)
            u = LinearUtility(rng.uniform(0.5, 2.0, m))
            _, trace = solve(
                cfg,
                u,
                DiminishingStep(0.1, capped=True),
                SolveSettings(max_iters=200, tol=1e-18, window=201),
            )
            assert max(pre_projection_violations(cfg, u, trace)) <= m

    def test_expansion_points_violate_at_most_m(self):
        """Points of the delta-relaxed region near its boundary stay below M violations."""
        rng = np.random.default_rng(97)
        for m in (2, 4, 6, 8):
            cfg = random_config(rng, m)
            delta = expansion_delta(cfg)
            membership, capacities = subset_table(cfg)
            for _ in range(2600):
                direction = rng.uniform(0.05, 1.0, m)
                # largest multiple of the direction inside the relaxed region
                loads = membership @ direction
                t_max = float(((capacities + delta) / loads).min())
                point = direction * t_max * rng.uniform(0.995, 1.0)
                assert count_violations(cfg, point) <= m


class TestDescentCondition:
    def test_distance_shrinks_under_small_steps(self):
        """While the stepsize stays below 2*(gap)/||g||^2 the iterate approaches
        the optimum strictly."""
        u = LinearUtility([2.0, 1.0])
        rstar = greedy_vertex(TWO_USER, (1, 2))
        ustar = u.value(rstar)
        _, trace = solve(
            TWO_USER, u, ConstantStep(5e-4), SolveSettings(max_iters=600, tol=1e-18, window=601)
        )
        triggered = 0
        for k in range(trace.iterations):
            alpha = trace.stepsizes[k + 1]
            gnorm = trace.grad_norms[k + 1]
            gap = ustar - trace.utilities[k]
            if gap <= 1e-12 or not 0.0 < alpha < 2.0 * gap / gnorm**2:
                continue
            d_now = np.linalg.norm(trace.rates[k] - rstar)
            d_next = np.linalg.norm(trace.rates[k + 1] - rstar)
            assert d_next < d_now
            triggered += 1
        assert triggered >= 100
