import math

import numpy as np
import pytest

from macalloc import ChannelConfig, LinearUtility, WeightedLogUtility, solve, subset_capacity


def _box_points(rng, m, hi, n):
    return rng.uniform(0.0, hi, size=(n, m))


class TestLinearUtility:
    def test_pinned_value(self):
        u = LinearUtility([2.0, 1.0])
        assert u.value([0.3465735903, 0.2027325541]) == pytest.approx(0.8958797347, abs=1e-9)

    def test_zero(self):
        assert LinearUtility([1.0, 1.0]).value([0.0, 0.0]) == 0.0

    def test_subgradient_is_weights(self):
        u = LinearUtility([2.0, 1.0])
        np.testing.assert_array_equal(u.subgradient([0.1, 0.7]), [2.0, 1.0])

    def test_bound(self):
        assert LinearUtility([3.0, 4.0]).bound() == pytest.approx(5.0)

    def test_rejects_negative_rates(self):
        u = LinearUtility([1.0, 1.0])
        with pytest.raises(ValueError):
            u.value([-0.1, 0.2])
        with pytest.raises(ValueError):
            u.subgradient([-0.1, 0.2])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LinearUtility([1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, bad):
        u = LinearUtility([1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            u.value([bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            u.subgradient([bad, 0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LinearUtility([bad, 1.0])


class TestWeightedLogUtility:
    def test_zero_rates(self):
        assert WeightedLogUtility([1.0, 1.0], epsilon=1.0).value([0.0, 0.0]) == 0.0

    def test_subgradient_at_zero(self):
        u = WeightedLogUtility([1.0, 1.0], epsilon=1.0)
        np.testing.assert_allclose(u.subgradient([0.0, 0.0]), [1.0, 1.0])

    def test_subgradient_at_one(self):
        u = WeightedLogUtility([1.0, 1.0], epsilon=1.0)
        np.testing.assert_allclose(u.subgradient([1.0, 1.0]), [0.5, 0.5])

    def test_bound(self):
        u = WeightedLogUtility([3.0, 4.0], epsilon=0.5)
        assert u.bound() == pytest.approx(10.0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            WeightedLogUtility([1.0], epsilon=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, bad):
        """An infinite offset would make every subgradient 0 and the value inf."""
        with pytest.raises(ValueError, match="finite"):
            WeightedLogUtility([1.0, 1.0], epsilon=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedLogUtility([bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, bad):
        u = WeightedLogUtility([1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            u.value([bad, 0.1])
        with pytest.raises(ValueError, match="finite"):
            u.subgradient([bad, 0.1])


@pytest.fixture(params=["linear", "weighted_log"])
def sampled_utility(request):
    rng = np.random.default_rng(23)
    w = rng.uniform(0.2, 3.0, 4)
    if request.param == "linear":
        return LinearUtility(w)
    return WeightedLogUtility(w, epsilon=0.05)


class TestRateShape:
    """One rate per weight, as a vector: other shapes are rejected, not broadcast."""

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 4), (4, 1), ()])
    def test_rejects_rates_of_another_shape(self, sampled_utility, shape):
        rates = np.full(shape, 0.1)
        for method in (sampled_utility.value, sampled_utility.subgradient):
            with pytest.raises(ValueError, match=r"expected 4 rates, got shape"):
                method(rates)

    def test_solve_rejects_a_utility_of_another_size(self):
        with pytest.raises(ValueError, match=r"expected 2 rates, got shape \(3,\)"):
            solve(ChannelConfig((1.0, 1.0, 1.0)), LinearUtility([1.0, 1.0]))


class TestAssumptions:
    """Concavity, monotonicity and the subgradient bound on the solver's box."""

    BOX_HI = subset_capacity(ChannelConfig((2.0,) * 4, 1.0), {1, 2, 3, 4})

    def test_gradient_matches_finite_differences(self, sampled_utility):
        rng = np.random.default_rng(5)
        h = 1e-6
        for r in rng.uniform(0.05, self.BOX_HI, size=(100, 4)):
            g = sampled_utility.subgradient(r)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (sampled_utility.value(r + e) - sampled_utility.value(r - e)) / (2 * h)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-9)

    def test_concavity(self, sampled_utility):
        rng = np.random.default_rng(6)
        for _ in range(300):
            r1, r2 = _box_points(rng, 4, self.BOX_HI, 2)
            lam = rng.uniform(0.0, 1.0)
            mix = sampled_utility.value(lam * r1 + (1 - lam) * r2)
            blend = lam * sampled_utility.value(r1) + (1 - lam) * sampled_utility.value(r2)
            assert mix >= blend - 1e-9

    def test_monotone_subgradients(self, sampled_utility):
        rng = np.random.default_rng(8)
        for r in _box_points(rng, 4, self.BOX_HI, 200):
            assert (sampled_utility.subgradient(r) >= 0.0).all()

    def test_bound_holds(self, sampled_utility):
        rng = np.random.default_rng(9)
        b = sampled_utility.bound()
        for r in _box_points(rng, 4, self.BOX_HI, 200):
            assert np.linalg.norm(sampled_utility.subgradient(r)) <= b + 1e-12
