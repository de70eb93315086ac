import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macalloc import (
    ChannelConfig,
    approximate_projection,
    is_feasible_bruteforce,
    most_violated_finder,
    project_onto_hyperplane,
    pseudo_nonexpansive_check,
    rate_split_finder,
    subset_capacity,
)
from support import batch_feasible, random_config, random_feasible, random_infeasible

TWO_USER = ChannelConfig((1.0, 1.0), 1.0)
FINDERS = [rate_split_finder, most_violated_finder]


class TestHyperplaneProjection:
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


class TestApproximateProjection:
    @pytest.mark.parametrize("finder", FINDERS)
    def test_feasible_point_is_fixed(self, finder):
        y = np.array([0.2, 0.2])
        result = approximate_projection(TWO_USER, y, finder=finder)
        np.testing.assert_array_equal(result.point, y)
        assert result.hyperplanes_used == ()
        assert not result.clamped

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
        assert result.clamped
        assert result.hyperplanes_used == ()

    def test_zero_floor_keeps_subsets_single_use(self):
        # the pair is most violated but its projection would drive the small
        # coordinate negative; the floored projection absorbs that and each
        # subset still appears exactly once
        result = approximate_projection(TWO_USER, [4.0, 0.21], finder=most_violated_finder)
        assert result.hyperplanes_used == ({1, 2}, {1})
        assert result.clamped
        np.testing.assert_allclose(result.point, [0.5 * math.log(2.0), 0.0], atol=1e-12)
        assert is_feasible_bruteforce(TWO_USER, result.point)

    @pytest.mark.parametrize("finder", FINDERS)
    def test_always_feasible(self, finder):
        rng = np.random.default_rng(41)
        for _ in range(500):
            cfg = random_config(rng, int(rng.integers(2, 13)))
            y = rng.uniform(-0.5, 1.5, cfg.num_users)
            result = approximate_projection(cfg, y, finder=finder)
            assert is_feasible_bruteforce(cfg, result.point)
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
        assert is_feasible_bruteforce(cfg, result.point)


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
    """batch_feasible agrees with the scalar brute-force check."""
    rng = np.random.default_rng(53)
    cfg = random_config(rng, 5)
    points = rng.uniform(0.0, 0.6, size=(64, 5))
    flags = batch_feasible(cfg, points)
    for point, flag in zip(points, flags):
        assert flag == is_feasible_bruteforce(cfg, point)
