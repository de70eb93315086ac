import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import macalloc.violations as violations
from macalloc import (
    ChannelConfig,
    ConstantStep,
    Feasible,
    LinearUtility,
    SolveSettings,
    SpinOffUser,
    Violated,
    approximate_projection,
    awgn_capacity,
    constraint_slack,
    elevation,
    greedy_vertex,
    rate_split_analyze,
    rate_split_finder,
    solve,
    subset_capacity,
)
from support import (
    batch_feasible,
    boundary_scale,
    cascade_input,
    certify_agreement,
    find_most_violated,
    random_config,
    random_feasible,
    random_infeasible,
    rate_split_reference,
)

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)


def _noise(draw):
    return 10.0 ** draw(st.floats(-9.0, 9.0), label="log10 noise")


@st.composite
def tied_problems(draw):
    """1 to 40 users at noise 1e-9..1e9, drawn for ties in the rate-splitting
    sort: SNRs from at most three levels, and each rate zero, an equal share of
    the sum-rate bound, or a rounded multiple of that share."""
    m = draw(st.integers(1, 40), label="m")
    noise = _noise(draw)
    levels = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3), label="SNR levels")
    snrs = draw(st.lists(st.sampled_from(levels), min_size=m, max_size=m), label="snrs")
    fill = draw(st.sampled_from([0.999, 1.0, 1.0 + 1e-7]) | st.floats(0.5, 2.5), label="fill")
    share = fill * 0.5 * math.log1p(sum(snrs)) / m
    digits = draw(st.integers(1, 6), label="digits")
    kinds = draw(st.lists(st.sampled_from(("zero", "share", "rounded")), min_size=m, max_size=m), label="kinds")
    rates = [
        0.0 if kind == "zero"
        else share if kind == "share"
        else round(share * draw(st.floats(0.0, 2.0), label="multiple"), digits)
        for kind in kinds
    ]
    return ChannelConfig(tuple(noise * x for x in snrs), noise), rates


@st.composite
def inside_and_past(draw):
    """2 to 8 users with SNRs in [0.5, 2] at noise 1e-9..1e9, a point inside
    the region and one 1.02 to 2.5 times past its boundary, each along its own
    positive direction."""
    m = draw(st.integers(2, 8), label="m")
    noise = _noise(draw)
    snrs = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m), label="snrs")
    cfg = ChannelConfig(tuple(noise * x for x in snrs), noise)
    points = []
    for label, lo, hi in (("inside", 0.0, 1.0), ("past", 1.02, 2.5)):
        direction = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m), label=label))
        points.append(direction * boundary_scale(cfg, direction) * draw(st.floats(lo, hi), label=f"{label} scale"))
    return cfg, *points


@st.composite
def near_the_dominant_face(draw):
    """1 to 60 users with SNRs in [0.5, 2] at noise 1e-9..1e9, and a mix of
    two greedy vertices scaled by 0.8 to 1.2, with about a fifth of the rates
    zeroed."""
    m = draw(st.integers(1, 60), label="m")
    noise = _noise(draw)
    snrs = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m), label="snrs")
    cfg = ChannelConfig(tuple(noise * x for x in snrs), noise)
    t = draw(st.floats(0.0, 1.0), label="mix")
    first = draw(st.permutations(range(1, m + 1)), label="first order")
    second = draw(st.permutations(range(1, m + 1)), label="second order")
    scale = draw(st.floats(0.8, 1.2), label="scale")
    zeroed = draw(st.lists(st.sampled_from((True,) + (False,) * 4), min_size=m, max_size=m), label="zeroed")
    return cfg, _between_vertices(cfg, t, first, second, scale, zeroed)


def _between_vertices(cfg, t, first, second, scale, zeroed):
    """t times the greedy vertex of order ``first`` plus 1 - t times that of
    ``second``, scaled, with the rates of the ``zeroed`` users set to 0."""
    point = t * greedy_vertex(cfg, first)
    point += (1.0 - t) * greedy_vertex(cfg, second)
    point *= scale
    point[np.asarray(zeroed)] = 0.0
    return point


def _finder_exit(cfg, point):
    """Check that the finder returns the report's subset, or None where the
    report certifies feasibility, and name the exit the recursion left by."""
    report = rate_split_analyze(cfg, point)
    found = rate_split_finder(cfg, point)
    if isinstance(report, Feasible):
        assert found is None
        return "feasible"
    assert type(found) is frozenset and found == report.subset
    return "single" if len(found) == 1 else "merged"


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

    @pytest.mark.parametrize("power, rate, noise", [
        (math.nan, 0.5, 1.0),
        (1.0, math.nan, 1.0),
        (1.0, 0.5, math.nan),
        (1.0, math.inf, 1.0),
        (1.0, -math.inf, 1.0),
        (1.0, 0.5, math.inf),
        (-math.inf, 0.5, 1.0),
    ])
    def test_non_finite_rejected(self, power, rate, noise):
        with pytest.raises(ValueError):
            elevation(power, rate, noise)

    def test_infinite_power_is_allowed(self):
        # a merged hyper-user's power sum can overflow to inf
        assert elevation(math.inf, 0.5, 1.0) == math.inf

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


class TestHugeSnr:
    """Rates near the capacity of a total SNR close to the largest float,
    where e**(2 * rate) is finite up to about 354.89 nats."""

    CFG = ChannelConfig((1e308,), 1.0)  # capacity 354.598 nats

    def test_elevation_below_the_overflow(self):
        assert elevation(1e308, 351.0, 1.0) == 1e308 / math.expm1(702.0) - 1.0 > 1333.0

    def test_analysis_of_a_rate_below_capacity(self):
        assert isinstance(rate_split_analyze(self.CFG, [351.0]), Feasible)

    def test_projection_keeps_a_point_below_capacity(self):
        result = approximate_projection(self.CFG, [352.0])
        assert result.point.tolist() == [352.0] and result.hyperplanes_used == ()

    def test_solve_ends_at_the_capacity(self):
        best, _ = solve(self.CFG, LinearUtility([1.0]), ConstantStep(50.0), SolveSettings(max_iters=20))
        assert best[0] == pytest.approx(subset_capacity(self.CFG, {1}), abs=1e-8)

    def test_agreement_with_enumeration(self):
        """Total SNRs 1e280..1e308 and points whose rates add up to 345..356
        nats, often carried mostly by one user, up to M = 6."""
        rng = np.random.default_rng(59)
        verdicts = Counter()
        for _ in range(400):
            m = int(rng.integers(1, 7))
            snr = 10.0 ** rng.uniform(280.0, 308.0)
            noise = 10.0 ** rng.uniform(-3.0, 0.0)
            cfg = ChannelConfig(tuple(snr * noise * rng.dirichlet(np.ones(m))), noise)
            rates = rng.uniform(345.0, 356.0) * rng.dirichlet(np.full(m, 0.3))
            assert certify_agreement(cfg, rates), (cfg, rates)
            verdicts[type(rate_split_analyze(cfg, rates)).__name__] += 1
            assert batch_feasible(cfg, approximate_projection(cfg, rates).point)[0], (cfg, rates)
        assert min(verdicts["Feasible"], verdicts["Violated"]) >= 30, verdicts


class TestFindMostViolated:
    """support.find_most_violated, the enumeration finder rate splitting is checked against."""

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
        assert len(report.decoding_order) == 1
        merged = report.decoding_order[0]
        assert merged.members == {1, 2}
        assert merged.power == pytest.approx(2.0)
        assert merged.rate == pytest.approx(0.54)
        assert merged.elevation >= 0.0

    def test_violation_found_after_two_merges(self):
        # users 1-3 overlap and merge pairwise; only the merged triple is over
        # its bound, while users 4 and 5 sit far above them
        cfg = ChannelConfig((1.0,) * 5, 1.0)
        a = 0.5 * math.log(4.0) / 3.0 * (1.0 + 1e-4)
        point = np.array([a, a, a, 0.01, 0.02])
        for size in (1, 2):
            for c in itertools.combinations(range(1, 6), size):
                assert constraint_slack(cfg, point, c) > 0.0
        report = rate_split_analyze(cfg, point)
        assert isinstance(report, Violated)
        assert report.subset == {1, 2, 3}
        assert report.slack == constraint_slack(cfg, point, {1, 2, 3})
        assert report.slack == pytest.approx(0.5 * math.log(4.0) - 3.0 * a, abs=1e-15)

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


class TestRateSplitReference:
    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    # user 2's elevation equals that of the merged pair {1, 10} to the bit, and
    # user 10 is the pair's lower user: had the pair kept user 10's slot instead
    # of user 1's, it would sort after user 2 and unite as {2} | {1, 10}, which
    # iterates in another order than {1, 10} | {2}
    @example((
        ChannelConfig((1.0, 0.0625) + (1.0,) * 8, 1.0),
        [0.2, 0.022301465548678682] + [0.0] * 7 + [0.25],
    ))
    # users 3 and 8 merge first, and the pair's elevation falls below user 11's:
    # sorted by the pair's stale key, it would stay after user 11 and unite as
    # {11} | {3, 8}, which iterates in another order than {3, 8} | {11}
    @example((
        ChannelConfig((1.0, 1.0, 2.1, 1.0, 1.0, 1.0, 1.0, 1.8, 1.0, 1.0, 0.34), 1.0),
        [0.0, 0.0, 0.34, 0.0, 0.0, 0.0, 0.0, 0.3, 0.0, 0.0, 0.1],
    ))
    # the first sort alone decides these. Six slots tie at one elevation, and
    # any two of them are over their bound: the first two in slot order merge
    @example((ChannelConfig((1.0,) * 6, 1.0), [0.3] * 6))
    # users 1, 3 (rate -0.0), 4 and 5 tie at elevation +inf and nothing
    # merges, so they end the certificate in slot order
    @example((ChannelConfig((1.0,) * 5, 1.0), [0.0, 0.34, -0.0, 0.0, 0.0]))
    # users 3 and 5 saturate at elevation -noise, and the smaller slot wins
    @example((ChannelConfig((1.0,) * 5, 1.0), [0.1, 0.0, 351.0, -0.0, 352.0]))
    # user 2's elevation lies a few ulps below user 1's, in one band, so user
    # 1 sorts first and user 3, lowest, merges with it into the violated
    # {1, 3}; sorted by the exact elevations, {2, 3} would be reported
    @example((ChannelConfig((1.0,) * 3, 1.0), [0.28, 0.2800000000000001, 0.3]))
    # both users are over their own capacities, user 2 by a few ulps more, in
    # one band: the first round names user 1
    @example((ChannelConfig((1.0, 1.0), 1.0), [0.4, 0.4000000000000001]))
    def test_matches_the_reference_to_the_bit(self, problem):
        """Subset, slack, and the decoding order with every float and the
        iteration order of every member set."""
        cfg, rates = problem
        report = rate_split_analyze(cfg, rates)
        assert repr(report) == repr(rate_split_reference(cfg, rates))
        groups = [report.subset] if isinstance(report, Violated) else [u.members for u in report.decoding_order]
        event(f"{type(report).__name__}, largest group {'1' if max(map(len, groups)) == 1 else '> 1'}")


class TestOneSlackFormula:
    """rate_split_analyze's slack is constraint_slack's, to the bit."""

    @staticmethod
    def _check(cfg, rates):
        for given_as in (np.asarray(rates, dtype=float), violations.SplitState(cfg, rates)):
            report = rate_split_analyze(cfg, given_as)
            if isinstance(report, Violated):
                assert report.slack == constraint_slack(cfg, rates, report.subset)
                assert report.slack == constraint_slack(cfg, given_as, report.subset)
        return report

    @settings(max_examples=200, deadline=None)
    @given(tied_problems())
    def test_on_tied_inputs(self, problem):
        report = self._check(*problem)
        event(type(report).__name__)

    def test_on_random_inputs(self):
        """Points past the boundary of 1 to 12 users at noise 1e-9..1e9."""
        rng = np.random.default_rng(2807)
        found = 0
        for _ in range(200):
            noise = 10.0 ** rng.uniform(-9.0, 9.0)
            cfg = random_config(rng, int(rng.integers(1, 13)), 0.5 * noise, 2.0 * noise, noise)
            found += isinstance(self._check(cfg, random_infeasible(rng, cfg)), Violated)
        assert found > 190


class TestSplitStateArray:
    def test_refuses_to_share_its_rates(self):
        """The rates live in a list, so numpy's copy=False cannot be honoured."""
        state = violations.SplitState(TWO_USER, [0.25, 0.0])
        with pytest.raises(ValueError, match="copy"):
            np.asarray(state, copy=False)
        with pytest.raises(ValueError, match="copy"):
            np.array(state, copy=False)


class TestFinderBuildsNoCertificate:
    def test_only_the_analysis_builds_spin_off_users(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(args)
            return SpinOffUser(*args)

        monkeypatch.setattr(violations, "SpinOffUser", counting)
        rng = np.random.default_rng(53)
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, 50)), 1.0)
        point = _between_vertices(cfg, 0.4, rng.permutation(50) + 1, rng.permutation(50) + 1, 0.97,
                                  rng.uniform(size=50) < 0.2)
        assert rate_split_finder(cfg, point) is None
        assert built == []
        report = rate_split_analyze(cfg, point)
        assert isinstance(report, Feasible)
        assert 1 < len(report.decoding_order) < 50
        assert len(built) == len(report.decoding_order)


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

            assert batch_feasible(cfg, point).all()

    def test_certificate_elevations_match_elevation(self):
        """Every certified (hyper-)user carries exactly elevation(power, rate, noise)."""
        rng = np.random.default_rng(37)
        merged = 0
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(20):
                m = int(rng.integers(1, 51))
                cfg = ChannelConfig(tuple(scale * rng.uniform(0.5, 2.0, m)), scale * rng.uniform(0.5, 2.0))
                # a point just below the dominant face, between two decoding orders
                t = rng.uniform()
                point = t * greedy_vertex(cfg, rng.permutation(m) + 1)
                point += (1.0 - t) * greedy_vertex(cfg, rng.permutation(m) + 1)
                point *= rng.uniform(0.9, 0.999)
                point[rng.uniform(size=m) < 0.2] = 0.0
                report = rate_split_analyze(cfg, point)
                assert isinstance(report, Feasible)
                for u in report.decoding_order:
                    assert u.elevation == elevation(u.power, u.rate, cfg.noise)
                    merged += len(u.members) > 1
        assert merged >= 50

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

    @settings(max_examples=280, deadline=None)
    @given(near_the_dominant_face())
    @example(cascade_input(2))
    @example(cascade_input(10))
    @example(cascade_input(60))
    @example(cascade_input(300))
    # fixed cases at noise 1e-9, 1 and 1e9, as drawn from numpy's default_rng(71)
    @example((
        ChannelConfig((1.3136463710369812e-09, 1.8798057402151385e-09, 1.1317727247411931e-09,
                       1.787502610657255e-09, 1.4594214309500931e-09), 1e-9),
        [0.0, 0.0, 0.3826063144964869, 0.2489604245470562, 0.2188344622006851],
    ))
    @example((
        ChannelConfig((1.6571181681582197, 1.698171686082563, 0.8887179437017126, 1.874210716003251,
                       1.201906369837142, 1.5012950318967873, 1.051484576754807, 1.6319761882071988,
                       1.062087935735549, 1.9267044830791944, 1.1940788694632265, 1.9246854391140629,
                       1.976444423319153), 1.0),
        [0.11271884547381454, 0.09782455866516948, 0.026769688312487726, 0.19699351093845047,
         0.1896843963866851, 0.149498069554276, 0.03922679042223811, 0.0, 0.207714651218204, 0.0,
         0.3617933586829207, 0.0, 0.10336941257738252],
    ))
    @example((
        ChannelConfig((888340993.8571501, 1132223368.1089017, 999770248.4638236), 1e9),
        [0.2945051634002114, 0.3501069062672258, 0.0],
    ))
    # ties at one finite elevation and at +inf (rates -0.0 and 0.0)
    @example((ChannelConfig((1.0,) * 6, 1.0), [0.3] * 6))
    @example((ChannelConfig((1.0,) * 5, 1.0), [0.0, 0.34, -0.0, 0.0, 0.0]))
    # saturated elevations, past where math.expm1 of twice the rate overflows
    @example((ChannelConfig((1.0,) * 5, 1.0), [0.1, 0.0, 351.0, -0.0, 400.0]))
    def test_finder_names_the_reported_subset(self, problem):
        """The finder and the report leave the shared recursion by different
        exits, so the finder must return exactly the report's subset, or None
        where the report certifies feasibility. Noise from 1e-9 to 1e9 with
        the SNRs fixed, M up to 60, and the all-merges cascade up to M = 300."""
        event(_finder_exit(*problem))

    def test_finder_leaves_by_every_exit(self):
        """The same check on seeded draws at seven noise scales and the
        cascades, where each of the three exits is taken at least 20 times."""
        rng = np.random.default_rng(71)
        exits = Counter(_finder_exit(*cascade_input(m)) for m in (2, 10, 60, 300))
        for scale in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9):
            for _ in range(40):
                m = int(rng.integers(1, 61))
                cfg = ChannelConfig(tuple(scale * rng.uniform(0.5, 2.0, m)), scale)
                t = rng.uniform()
                first, second = rng.permutation(m) + 1, rng.permutation(m) + 1
                point = _between_vertices(cfg, t, first, second, rng.uniform(0.8, 1.2), rng.uniform(size=m) < 0.2)
                exits[_finder_exit(cfg, point)] += 1
        assert min(exits[k] for k in ("feasible", "single", "merged")) >= 20, exits

    def test_agreement_with_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            box = 1.3 * max(subset_capacity(cfg, {i}) for i in range(1, cfg.num_users + 1))
            point = rng.uniform(0.0, box, cfg.num_users)
            assert certify_agreement(cfg, point)

    @settings(max_examples=420, deadline=None)
    @given(inside_and_past())
    # fixed cases at noise 1e-9, 1 and 1e9, as drawn from numpy's default_rng(67)
    @example((
        ChannelConfig((6.904074533001137e-10, 1.2709775537175541e-09, 9.458639327027868e-10,
                       1.39705542803127e-09, 1.1469058266418493e-09, 9.624414031368977e-10,
                       1.0329510920348584e-09), 1e-9),
        [0.022771954420130962, 0.15566431822069512, 0.044534364563011616, 0.010429459524809854,
         0.14034123685654037, 0.14617592849507557, 0.16473365528544567],
        [0.2774909123416645, 0.3050359443717595, 0.19902998768491553, 0.27585791880984917,
         0.5402529428023567, 0.24094576235321827, 0.2536679008260689],
    ))
    @example((
        ChannelConfig((1.608975513848311, 1.2516700765908058, 0.7185379714446734, 1.9478293893258471), 1.0),
        [0.0854164126884519, 0.13227109603871456, 0.12802556053793063, 0.06843534434584185],
        [0.29547472840870515, 0.0590281774869085, 0.09535082702917266, 0.5593770928949199],
    ))
    @example((
        ChannelConfig((953212685.7682226, 1058795036.7636566, 1751658388.9348135, 1172361081.763854,
                       1029301140.4629112), 1e9),
        [0.1769570722302674, 0.09097904606213511, 0.15194735886229893, 0.024976252448032987,
         0.14301494098935258],
        [0.09606113165763418, 0.4200357967025879, 0.5297423036756101, 0.7101831135738096,
         0.5627053643227483],
    ))
    def test_agreement_at_every_noise_scale(self, problem):
        """Powers and noise scaled together keep the SNRs and the constraints in
        nats, so rate splitting must agree with enumeration at every scale."""
        cfg, inside, past = problem
        assert certify_agreement(cfg, inside)
        assert certify_agreement(cfg, past)

    def test_agreement_at_origin_and_boundary(self):
        assert certify_agreement(TWO_USER, np.zeros(2))
        half = subset_capacity(TWO_USER, {1, 2}) / 2.0
        assert certify_agreement(TWO_USER, np.array([half, half]))
