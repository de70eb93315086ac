import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import macalloc.violations as violations
from macalloc import (
    ChannelConfig,
    DiminishingStep,
    LinearUtility,
    SolveSettings,
    WeightedLogUtility,
    approximate_projection,
    constraint_slack,
    count_violations,
    rate_split_analyze,
    rate_split_finder,
    solve,
    subset_capacity,
)
from macalloc.projection import _capped_projection
from support import (
    batch_feasible,
    boundary_scale,
    capped_projection,
    exact_capped_projection,
    hinted_projection,
    most_violated_finder,
    project_onto_hyperplane,
    pseudo_nonexpansive_check,
    random_config,
    random_feasible,
    random_infeasible,
)

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)
FINDERS = [rate_split_finder, most_violated_finder]


class TestHyperplaneProjection:
    """support.project_onto_hyperplane, the reference for the floored projection."""

    def test_symmetric_split(self):
        np.testing.assert_allclose(
            project_onto_hyperplane([1.0, 1.0], {1, 2}, 1.0), [0.5, 0.5]
        )

    def test_single_coordinate_snap(self):
        out = project_onto_hyperplane([0.4, 0.1], {1}, 0.3466)
        np.testing.assert_allclose(out, [0.3466, 0.1])

    def test_even_excess_split(self):
        level = 0.5 * math.log(3.0)
        out = project_onto_hyperplane([0.3, 0.3], {1, 2}, level)
        np.testing.assert_allclose(out, [level / 2, level / 2], atol=1e-15)

    def test_lands_on_hyperplane_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(2, 9))
            members = set(rng.choice(np.arange(1, m + 1), rng.integers(1, m + 1), replace=False).tolist())
            y = rng.normal(0, 2, m)
            level = float(rng.uniform(0, 2))
            out = project_onto_hyperplane(y, members, level)
            assert sum(out[i - 1] for i in members) == pytest.approx(level, abs=1e-12)
            outside = [i for i in range(1, m + 1) if i not in members]
            for i in outside:
                assert out[i - 1] == y[i - 1]

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            project_onto_hyperplane([1.0, 1.0], set(), 1.0)


def _capped_case(y, members, level) -> str:
    """Check the floored projection of ``y`` onto {sum over members <= level}
    and name the case. It is support's numpy gap form to the bit, signs of
    zeros included, and the exact rational projection to 1e-11 of the level.
    Without a coordinate at the zero floor ("plain") it is the plain
    hyperplane projection; with one ("floored") it still lands on the
    hyperplane and only lowers the subset's coordinates."""
    y = np.asarray(y, dtype=float)
    idx = np.asarray(members) - 1
    out = y.copy()
    _capped_projection(out, idx.tolist(), y[idx].tolist(), level)
    numpy_version = capped_projection(y, idx, y[idx], level)
    np.testing.assert_array_equal(out, numpy_version)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(numpy_version))
    exact = exact_capped_projection(y[idx].tolist(), level)
    assert max(abs(x - float(e)) for x, e in zip(out[idx], exact)) <= 1e-11 * level
    reference = project_onto_hyperplane(y, members, level)
    if (reference >= 0.0).all():
        np.testing.assert_allclose(out, reference, rtol=0.0, atol=1e-14)
        return "plain"
    assert (out >= 0.0).all() and (out <= y).all()
    assert out[idx].sum() == pytest.approx(level, abs=1e-12)
    outside = np.setdiff1d(np.arange(len(y)), idx)
    np.testing.assert_array_equal(out[outside], y[outside])
    return "floored"


@st.composite
def capped_problems(draw):
    """1 to 8 coordinates in [0, 1], a nonempty subset of them, and a level
    0.001 to 0.999 times the subset's sum."""
    m = draw(st.integers(1, 8), label="m")
    y = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=m, max_size=m), label="y")
    members = sorted(draw(st.sets(st.integers(1, m), min_size=1), label="members"))
    level = draw(st.floats(0.001, 0.999), label="fraction") * sum(y[i - 1] for i in members)
    assume(sum(y[i - 1] for i in members) > level)
    return y, members, level


class TestCappedProjection:
    @settings(max_examples=400, deadline=None)
    @given(capped_problems())
    def test_is_the_hyperplane_projection_unless_floored(self, problem):
        """See _capped_case."""
        event(_capped_case(*problem))

    def test_takes_both_cases(self):
        """The same check on 400 seeded draws, of which at least 50 are plain
        and at least 50 floored."""
        rng = np.random.default_rng(61)
        cases = Counter()
        for _ in range(400):
            m = int(rng.integers(1, 9))
            y = rng.uniform(0.0, 1.0, m)
            members = sorted(rng.choice(np.arange(1, m + 1), rng.integers(1, m + 1), replace=False).tolist())
            level = float(rng.uniform(0.0, 1.0) * y[np.asarray(members) - 1].sum())
            cases[_capped_case(y, members, level)] += 1
        assert cases["plain"] >= 50 and cases["floored"] >= 50, cases

    def test_matches_exact_arithmetic_at_any_magnitude(self):
        """With the subset's top coordinate from 1 to 1e300 times the level,
        every coordinate is the exact rational projection's to 1e-11 of the
        level: the level is never rounded away."""
        rng = np.random.default_rng(71)
        for n in range(400):
            m = int(rng.integers(1, 9))
            level = float(rng.uniform(0.01, 2.0))
            top = level * 10.0 ** rng.uniform(0.0, 300.0 if n % 2 else 6.0)
            near = top - level * rng.uniform(0.0, 2.0, m)
            far = top * rng.uniform(0.0, 1.0, m)
            vals = np.maximum(np.where(rng.random(m) < 0.6, near, far), 0.0)
            vals[0] = top
            if not vals.sum() > level:
                continue
            out = vals.copy()
            _capped_projection(out, list(range(m)), vals.tolist(), level)
            exact = exact_capped_projection(vals.tolist(), level)
            assert max(abs(x - float(e)) for x, e in zip(out, exact)) <= 1e-11 * level, (vals, level)


class TestApproximateProjection:
    @pytest.mark.parametrize("finder", FINDERS)
    def test_feasible_point_is_fixed(self, finder):
        y = np.array([0.2, 0.2])
        result = approximate_projection(TWO_USER, y, finder=finder)
        np.testing.assert_array_equal(result.point, y)
        assert result.hyperplanes_used == ()

    def test_single_violation_single_projection(self):
        result = approximate_projection(TWO_USER, [0.3, 0.3])
        full = subset_capacity(TWO_USER, {1, 2})
        np.testing.assert_allclose(result.point, [full / 2, full / 2], atol=1e-15)
        assert result.hyperplanes_used == ({1, 2},)
        np.testing.assert_allclose(
            result.point, project_onto_hyperplane([0.3, 0.3], {1, 2}, full), atol=1e-15
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            approximate_projection(TWO_USER, [bad, 0.1])

    def test_finder_repeating_a_subset_raises(self):
        def always_user_1(config, rates):
            return frozenset({1})

        # {1} is violated once; after its projection the stub names it again
        with pytest.raises(RuntimeError, match="twice"):
            approximate_projection(TWO_USER, [0.5, 0.0], finder=always_user_1)
        # at a feasible point the stub names a constraint that holds
        with pytest.raises(RuntimeError, match="satisfies"):
            approximate_projection(TWO_USER, [0.1, 0.1], finder=always_user_1)

    def test_clamp_only(self):
        result = approximate_projection(TWO_USER, [-0.1, 0.2])
        np.testing.assert_array_equal(result.point, [0.0, 0.2])
        assert result.hyperplanes_used == ()

    def test_zero_floor_keeps_subsets_single_use(self):
        # the pair is most violated but its projection would drive the small
        # coordinate negative; the floored projection absorbs that and each
        # subset still appears exactly once
        result = approximate_projection(TWO_USER, [4.0, 0.21], finder=most_violated_finder)
        assert result.hyperplanes_used == ({1, 2}, {1})
        assert result.point[1] == 0.0
        np.testing.assert_allclose(result.point, [0.5 * math.log(2.0), 0.0], atol=1e-12)
        assert batch_feasible(TWO_USER, result.point).all()

    @pytest.mark.parametrize("finder", FINDERS)
    def test_always_feasible(self, finder):
        rng = np.random.default_rng(41)
        for _ in range(500):
            cfg = random_config(rng, int(rng.integers(2, 13)))
            y = rng.uniform(-0.5, 1.5, cfg.num_users)
            result = approximate_projection(cfg, y, finder=finder)
            assert batch_feasible(cfg, result.point).all()
            seen = result.hyperplanes_used
            assert len(set(seen)) == len(seen)

    def test_monotone_decrease_on_nonnegative_inputs(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            y = rng.uniform(0.0, 1.5, cfg.num_users)
            result = approximate_projection(cfg, y)
            assert (result.point <= y + 1e-12).all()
            assert (result.point >= 0.0).all()

    def test_deterministic_for_fixed_finder(self):
        y = np.array([0.7, 0.6, 0.1])
        cfg = ChannelConfig((1.0, 0.8, 1.4), 1.0)
        a = approximate_projection(cfg, y)
        b = approximate_projection(cfg, y)
        np.testing.assert_array_equal(a.point, b.point)
        assert a.hyperplanes_used == b.hyperplanes_used

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=6))
    def test_projection_is_feasible_hypothesis(self, coords):
        cfg = ChannelConfig((1.0,) * len(coords), 1.0)
        result = approximate_projection(cfg, np.array(coords))
        assert batch_feasible(cfg, result.point).all()


class TestHugeCoordinates:
    """Every finite point gets a feasible result, however far its coordinates
    sit above the capacities; the subset's level is not rounded away."""

    @pytest.mark.parametrize("hint", [(), ({1},)], ids=["no-hint", "hint"])
    @pytest.mark.parametrize("x", [1e14, 1e15, 1e16, 1e300])
    @pytest.mark.parametrize("power", [1.0, 1e-6])
    def test_projection_is_feasible(self, power, x, hint):
        cfg = ChannelConfig((power, power), 1.0)
        for point in ([x, 0.0], [x, x]):
            result = approximate_projection(cfg, point, hint=hint)
            assert batch_feasible(cfg, result.point).all(), point
            assert result.hyperplanes_used[0] == {1}
            if point[1] == 0.0:
                np.testing.assert_allclose(result.point, [subset_capacity(cfg, {1}), 0.0], rtol=1e-15)

    @pytest.mark.parametrize("power, x", [(1e-6, 300.0), (1e-6, 1e4), (1.0, 1e8)])
    def test_moderate_coordinates_land_on_the_capacity(self, power, x):
        # rounding at the coordinate's magnitude once left user 1 above the
        # finder's tolerance: 300 nats against a capacity of 5e-7 was enough
        cfg = ChannelConfig((power, power), 1.0)
        result = approximate_projection(cfg, [x, 0.0])
        assert result.hyperplanes_used == ({1},)
        np.testing.assert_allclose(result.point, [subset_capacity(cfg, {1}), 0.0], rtol=1e-15)


class TestHint:
    def test_satisfied_hint_is_skipped(self):
        # {1} and {2} hold at [0.3, 0.3]; only the pair is violated
        result = approximate_projection(TWO_USER, [0.3, 0.3], hint=({1}, {2}))
        assert result.hyperplanes_used == ({1, 2},)
        plain = approximate_projection(TWO_USER, [0.3, 0.3])
        assert result.point.tobytes() == plain.point.tobytes()

    def test_violated_hints_go_first_in_order(self):
        seen = []

        def recording(config, rates):
            seen.append(np.array(rates))
            return rate_split_finder(config, rates)

        y = np.array([4.0, 0.21])
        for hint in (({1, 2}, {1}), ({1}, {1, 2})):
            seen.clear()
            result = approximate_projection(TWO_USER, y, finder=recording, hint=hint)
            assert result.hyperplanes_used[:2] == hint
            expected = y
            for subset in hint:
                idx = np.array(sorted(subset)) - 1
                expected = capped_projection(expected, idx, expected[idx], subset_capacity(TWO_USER, subset))
            np.testing.assert_array_equal(seen[0], expected)
            assert batch_feasible(TWO_USER, result.point).all()

    def test_repeated_hint_projects_once(self):
        result = approximate_projection(TWO_USER, [4.0, 0.0], hint=({1}, {1}, frozenset({1})))
        assert result.hyperplanes_used == ({1},)

    def test_finder_naming_a_hinted_subset_raises(self):
        def always_user_1(config, rates):
            return frozenset({1})

        with pytest.raises(RuntimeError, match="twice"):
            approximate_projection(TWO_USER, [0.5, 0.0], finder=always_user_1, hint=({1},))

    @pytest.mark.parametrize("user", [0, 3, -1])
    def test_out_of_range_hint_rejected(self, user):
        with pytest.raises(ValueError, match="out of range"):
            approximate_projection(TWO_USER, [0.5, 0.5], hint=({1, user},))
        with pytest.raises(ValueError, match="out of range"):
            approximate_projection(TWO_USER, [0.5, 0.5], hint=({user},))

    def test_hint_load_adds_in_user_order(self):
        # {1, 2, 8} iterates as 8, 1, 2; (x1 + x2) + x8 is the capacity to the
        # bit, while (x8 + x1) + x2 lies one ulp above it
        cfg = ChannelConfig((1.0,) * 8, 1.0)
        subset = frozenset({1, 2, 8})
        x = [0.2141531006329555, 0.247103907865945] + [0.0] * 5 + [0.2318901720610448]
        assert list(subset) == [8, 1, 2]
        assert (x[7] + x[0]) + x[1] == math.nextafter(subset_capacity(cfg, subset), math.inf)
        assert constraint_slack(cfg, x, subset) == 0.0
        result = approximate_projection(cfg, x, hint=[subset])
        assert result.hyperplanes_used == ()
        assert result.point.tolist() == x

    def test_empty_hint_is_no_hint(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            cfg = random_config(rng, int(rng.integers(2, 13)))
            y = rng.uniform(-0.5, 1.5, cfg.num_users)
            a = approximate_projection(cfg, y)
            b = approximate_projection(cfg, y, hint=())
            assert a.point.tobytes() == b.point.tobytes()
            assert a.hyperplanes_used == b.hyperplanes_used


class TestCarriedLevels:
    """Each subset in ``hyperplanes_used`` carries its capacity under the config
    it was found for; a hint for another config must not use it."""

    A = ChannelConfig((0.6, 1.1, 1.7, 0.9), 1.0)

    def _used(self):
        y = np.array([1.0, 0.2, 1.5, 0.7]) * subset_capacity(self.A, {1, 2, 3, 4})
        return y, approximate_projection(self.A, y).hyperplanes_used

    @pytest.mark.parametrize("other", [
        ChannelConfig((1.2, 0.7, 2.3, 0.5), 1.0),  # same M, other powers
        ChannelConfig((0.6, 1.1, 1.7, 0.9), 2.5),  # same powers, other noise
        ChannelConfig((0.6, 1.1, 1.7, 0.9), 1.0),  # equal to A, another object
    ])
    def test_never_cross_configs(self, other):
        y, used = self._used()
        assert len(used) >= 3
        carried = approximate_projection(other, y, hint=used)
        plain = approximate_projection(other, y, hint=[frozenset(s) for s in used])
        assert carried.point.tobytes() == plain.point.tobytes()
        assert carried.hyperplanes_used == plain.hyperplanes_used

    def test_out_of_range_for_another_config(self):
        _, used = self._used()
        assert any(4 in s for s in used)
        with pytest.raises(ValueError, match="out of range"):
            approximate_projection(ChannelConfig((0.6, 1.1, 1.7)), [1.0, 1.0, 1.0], hint=used)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_levels_are_the_subset_capacities_to_the_bit(self, data):
        """1 to 40 users with SNRs in [0.5, 2] at noise 1e-9..1e9, and a point
        0.5 to 3 times the sum-rate bound along a random direction."""
        m = data.draw(st.integers(1, 40), label="m")
        noise = 10.0 ** data.draw(st.floats(-9.0, 9.0), label="log10 noise")
        snrs = data.draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m), label="snrs")
        cfg = ChannelConfig(tuple(noise * x for x in snrs), noise)
        direction = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m), label="direction"))
        scale = data.draw(st.floats(0.5, 3.0), label="scale") * subset_capacity(cfg, range(1, m + 1))
        for plane in approximate_projection(cfg, direction * (scale / direction.sum())).hyperplanes_used:
            assert plane.level == subset_capacity(cfg, plane)

    def test_hyperplanes_are_plain_frozensets(self):
        for s in self._used()[1]:
            plain = frozenset(s)
            assert s == plain and hash(s) == hash(plain)
            assert type(pickle.loads(pickle.dumps(s))) is frozenset


TIED_POWERS = (0.5, 1.0, 2.0)
TIED_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 10.0)


@st.composite
def tied_problems(draw):
    """A config of 1 to 10 users at noise 1 whose powers are all equal or
    drawn from {0.5, 1, 2}, and one or two points with coordinates from a
    small grid, so that elevations, bands and loads tie exactly."""
    m = draw(st.integers(1, 10), label="m")
    if draw(st.booleans(), label="equal powers"):
        powers = [draw(st.sampled_from(TIED_POWERS), label="power")] * m
    else:
        powers = draw(st.lists(st.sampled_from(TIED_POWERS), min_size=m, max_size=m), label="powers")
    point = st.lists(st.sampled_from(TIED_GRID), min_size=m, max_size=m)
    return ChannelConfig(tuple(powers), 1.0), draw(st.lists(point, min_size=1, max_size=2), label="points")


class TestHintedReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_the_from_scratch_loop(self, data):
        """Hints drawn as lists, sets and frozensets (repeats included), then
        the result's own hyperplanes as the next hint, as solve passes them:
        the point and the hyperplane list equal the reference bit for bit.
        Points lie up to twice the sum-rate bound, or up to 1e300 times it."""
        m = data.draw(st.integers(1, 10), label="m")
        noise = 10.0 ** data.draw(st.floats(-6.0, 6.0), label="log10 noise")
        powers = data.draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m), label="powers")
        cfg = ChannelConfig(tuple(powers), noise)
        scale = subset_capacity(cfg, range(1, m + 1))
        magnitude = st.just(1.0) | st.floats(0.0, 300.0).map(lambda e: 10.0**e)
        point = st.tuples(st.lists(st.floats(-0.2, 2.0), min_size=m, max_size=m), magnitude).map(
            lambda t: np.array(t[0]) * (scale * t[1]))
        subset = st.tuples(st.sets(st.integers(1, m), max_size=m),
                           st.sampled_from([list, set, frozenset])).map(lambda t: t[1](t[0]))
        hint = data.draw(st.lists(subset, max_size=12), label="hint")
        hint += data.draw(st.lists(st.sampled_from(hint), max_size=4), label="repeats") if hint else []

        y1, y2 = data.draw(point, label="y1"), data.draw(point, label="y2")
        extra = data.draw(st.lists(subset, max_size=3), label="extra")
        carried = approximate_projection(cfg, y1, hint=hint).hyperplanes_used
        for y, h in ((y1, hint), (y2, carried), (y2, extra + list(carried) + extra)):
            result = approximate_projection(cfg, y, hint=h)
            ref_point, ref_used = hinted_projection(cfg, y, h)
            assert result.point.tobytes() == ref_point.tobytes()
            assert list(result.hyperplanes_used) == ref_used

    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    # the carried order re-sorted by band alone names {4, 8} where the
    # from-scratch loop names {1, 2}
    @example((ChannelConfig((1.0,) * 8, 1.0), [[10.0, 10.0, 1.0, 0.5, 10.0, 10.0, 2.0, 0.5]]))
    def test_matches_the_from_scratch_loop_on_ties(self, problem):
        """Tied powers and grid points, each projection hinted with the last
        one's hyperplanes: the carried state breaks ties by (band, slot) as a
        state built afresh for every finder call does."""
        cfg, points = problem
        hint = ()
        for y in points:
            result = approximate_projection(cfg, y, hint=hint)
            ref_point, ref_used = hinted_projection(cfg, y, hint)
            assert result.point.tobytes() == ref_point.tobytes()
            assert list(result.hyperplanes_used) == ref_used
            hint = result.hyperplanes_used


def _fresh_state_finder(config, state):
    """rate_split_finder on the point re-converted with np.array, so that it
    builds its state afresh on every call."""
    return rate_split_finder(config, np.array(state))


class TestCarriedState:
    """approximate_projection builds one rate-splitting state per call and
    refreshes only the members of each hyperplane it projects onto."""

    def test_solve_traces_match_a_fresh_state_per_call(self):
        """15 steps on tied powers, with weights from {1, 2}: the traces equal
        those of a finder that rebuilds its state on every call, bit for bit."""
        rng = np.random.default_rng(2503)
        for run in range(60):
            m = int(rng.integers(2, 11))
            if run % 2:
                powers = (float(rng.choice(TIED_POWERS)),) * m
            else:
                powers = tuple(rng.choice(TIED_POWERS, m).tolist())
            cfg = ChannelConfig(powers, 1.0)
            weights = rng.choice([1.0, 2.0], m)
            utility = LinearUtility(weights) if run % 3 else WeightedLogUtility(weights, epsilon=0.01)
            budget = SolveSettings(max_iters=15, tol=1e-18, window=16)
            (best, trace), (best_f, trace_f) = (
                solve(cfg, utility, DiminishingStep(0.1), budget, finder=finder)
                for finder in (rate_split_finder, _fresh_state_finder))
            assert best.tobytes() == best_f.tobytes(), run
            assert trace.rates.tobytes() == trace_f.rates.tobytes(), run
            assert trace.projections.tolist() == trace_f.projections.tolist(), run

    def test_elevations_are_computed_once_then_per_hyperplane_member(self, monkeypatch):
        """A cold projection at M = 50 computes the M user elevations once,
        then one for each member of each hyperplane the finder names; merged
        hyper-users' elevations come on top. rate_split_analyze computes M."""
        rng = np.random.default_rng(2509)
        m = 50
        cfg = ChannelConfig(tuple(rng.uniform(0.5, 2.0, m)), 1.0)
        singles = set(cfg.powers)
        calls = Counter()
        elevation = violations._elevation

        def counting(power, rate, noise):
            calls["user" if power in singles else "merged"] += 1
            return elevation(power, rate, noise)

        monkeypatch.setattr(violations, "_elevation", counting)
        result = approximate_projection(cfg, rng.uniform(0.0, 10.0, m))
        assert len(result.hyperplanes_used) > m
        assert calls["user"] == m + sum(len(s) for s in result.hyperplanes_used)
        assert calls["merged"] > 0
        calls.clear()
        rate_split_analyze(cfg, result.point)
        assert calls["user"] == m

    def test_a_state_of_another_config_is_rebuilt(self):
        state = violations.SplitState(TWO_USER, [0.3, 0.3])
        assert rate_split_finder(TWO_USER, state) == {1, 2}
        wide = ChannelConfig((4.0, 4.0), 1.0)
        assert rate_split_finder(wide, state) is None
        assert rate_split_analyze(wide, state) == rate_split_analyze(wide, [0.3, 0.3])


@st.composite
def noise_scaled_problems(draw):
    """A config of 2 to 10 users with SNRs in [0.5, 2] at noise 1e-9..1e9, and
    a point 1.02 to 2.5 times past the boundary along a positive direction."""
    m = draw(st.integers(2, 10), label="m")
    noise = 10.0 ** draw(st.floats(-9.0, 9.0), label="log10 noise")
    snrs = draw(st.lists(st.floats(0.5, 2.0), min_size=m, max_size=m), label="snrs")
    direction = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m), label="direction"))
    cfg = ChannelConfig(tuple(noise * snr for snr in snrs), noise)
    return cfg, direction * boundary_scale(cfg, direction) * draw(st.floats(1.02, 2.5), label="overshoot")


class TestNoiseScale:
    @settings(max_examples=600, deadline=None)
    @given(noise_scaled_problems())
    # fixed cases at noise 1e-9, 1 and 1e9, as drawn from numpy's default_rng(59)
    @example((
        ChannelConfig((1.7390992522982532e-09, 6.75415670370875e-10, 1.0661444130135292e-09,
                       7.793935252149406e-10, 7.404239010293558e-10, 5.087293700445555e-10,
                       1.9589760408944907e-09, 6.554954248440207e-10, 1.9017767919568934e-09), 1e-9),
        [0.19692107929496583, 0.3121087636643328, 0.06662014756558216, 0.22974562963850031,
         0.3520760655138387, 0.06405491429366364, 0.12161308455187099, 0.06679389514022413,
         0.16409106997170395],
    ))
    @example((
        ChannelConfig((1.6917918043922053, 1.2691065745320842, 0.698623261370808, 0.7280648603289075,
                       0.7648560467887677, 0.9895615594886177, 0.6531938216651842, 1.3387791722578413), 1.0),
        [0.40649720159345076, 0.13099057036060666, 0.501618133578682, 0.24497580392522048,
         0.2549017451542604, 0.19237467922037402, 0.04788160393973056, 0.04179177472711558],
    ))
    @example((
        ChannelConfig((594148940.3125368, 1877525248.0539937, 609461705.4335318, 1081574491.9196444,
                       1114590401.6162338, 859802712.1133184, 1861146703.4215922, 896865405.6494467,
                       914107436.749829, 1374350666.8462532), 1e9),
        [0.3364682907588243, 0.07793740841805206, 0.14234243635126312, 0.17520335678262802,
         0.1566363461852561, 0.3545311960808849, 0.13448305955968318, 0.3566422017766536,
         0.08133487162903061, 0.15410354287228856],
    ))
    def test_feasible_at_every_noise_scale(self, problem):
        """Powers and noise scaled together keep the SNRs, so every projection
        must stay feasible (in nats) and the finder must never repeat itself."""
        cfg, point = problem
        result = approximate_projection(cfg, point)
        assert batch_feasible(cfg, result.point).all()


class TestPseudoNonexpansive:
    def test_fixed_point_distance_zero(self):
        y = np.array([0.2, 0.2])
        assert pseudo_nonexpansive_check(TWO_USER, y, y)

    def test_pinned_pair(self):
        result = approximate_projection(TWO_USER, [0.3, 0.3])
        anchor = np.array([0.2, 0.2])
        moved = np.linalg.norm(result.point - anchor)
        assert moved <= np.linalg.norm(np.array([0.3, 0.3]) - anchor)
        assert pseudo_nonexpansive_check(TWO_USER, [0.3, 0.3], anchor)

    @pytest.mark.parametrize("finder", FINDERS)
    def test_random_pairs(self, finder):
        rng = np.random.default_rng(47)
        for _ in range(300):
            cfg = random_config(rng, int(rng.integers(2, 9)))
            y = random_infeasible(rng, cfg)
            anchor = random_feasible(rng, cfg)
            assert pseudo_nonexpansive_check(cfg, y, anchor, finder=finder)


def test_solver_iterates_stay_feasible_in_batch():
    """batch_feasible agrees with the package's violation count on nonnegative points."""
    rng = np.random.default_rng(53)
    cfg = random_config(rng, 5)
    points = rng.uniform(0.0, 0.6, size=(64, 5))
    flags = batch_feasible(cfg, points)
    assert 0 < flags.sum() < len(points)
    for point, flag in zip(points, flags):
        assert flag == (count_violations(cfg, point) == 0)
