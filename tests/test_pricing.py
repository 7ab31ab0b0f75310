"""Unit tests for pricing (Section 4.2): grids, pure and mixed pricing."""

import numpy as np
import pytest

from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.bundle import Bundle
from repro.core.pricing import (
    PriceGrid,
    price_mixed_bundle,
    price_mixed_bundle_batch,
    price_pure,
    price_pure_batch,
)
from repro.errors import PricingError, ValidationError


class TestPriceGrid:
    def test_linspace_levels_span_to_max(self):
        grid = PriceGrid(n_levels=10)
        levels = grid.candidates(np.array([0.0, 5.0, 20.0]))
        assert levels.size == 10
        assert levels[0] == pytest.approx(2.0)
        assert levels[-1] == pytest.approx(20.0)

    def test_exact_mode_uses_unique_positive_values(self):
        grid = PriceGrid(mode="exact")
        levels = grid.candidates(np.array([0.0, 5.0, 5.0, 12.0]))
        np.testing.assert_array_equal(levels, [5.0, 12.0])

    def test_all_zero_wtp_gives_empty_grid(self):
        assert PriceGrid().candidates(np.zeros(4)).size == 0

    def test_explicit_levels(self):
        grid = PriceGrid(levels=[1.0, 2.5, 9.99])
        np.testing.assert_array_equal(grid.candidates(np.array([100.0])), [1.0, 2.5, 9.99])
        assert grid.mode == "explicit"

    def test_explicit_levels_must_ascend(self):
        with pytest.raises(ValidationError):
            PriceGrid(levels=[2.0, 1.0])

    def test_explicit_levels_must_be_positive(self):
        with pytest.raises(ValidationError):
            PriceGrid(levels=[0.0, 1.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            PriceGrid(mode="quantile")

    def test_invalid_n_levels_rejected(self):
        with pytest.raises(ValidationError):
            PriceGrid(n_levels=0)


class TestPricePureStep:
    def test_known_optimal(self):
        # Table 1, item A: wtp {12, 8, 5} -> price 8, revenue 16.
        priced = price_pure(np.array([12.0, 8.0, 5.0]), grid=PriceGrid(mode="exact"))
        assert priced.price == pytest.approx(8.0)
        assert priced.revenue == pytest.approx(16.0)
        assert priced.buyers == pytest.approx(2.0)

    def test_zero_demand_bundle(self):
        priced = price_pure(np.zeros(5))
        assert priced.revenue == 0.0 and priced.price == 0.0

    def test_grid_never_beats_exact(self, rng):
        for _ in range(25):
            wtp = rng.uniform(0, 30, size=rng.integers(2, 60))
            exact = price_pure(wtp, grid=PriceGrid(mode="exact")).revenue
            coarse = price_pure(wtp, grid=PriceGrid(n_levels=100)).revenue
            assert coarse <= exact + 1e-9

    def test_grid_revenue_close_to_exact_at_100_levels(self, rng):
        gaps = []
        for _ in range(25):
            wtp = rng.uniform(1, 30, size=50)
            exact = price_pure(wtp, grid=PriceGrid(mode="exact")).revenue
            coarse = price_pure(wtp, grid=PriceGrid(n_levels=100)).revenue
            gaps.append((exact - coarse) / exact)
        assert max(gaps) < 0.03

    def test_revenue_equals_price_times_buyers(self, rng):
        wtp = rng.uniform(0, 20, size=40)
        priced = price_pure(wtp)
        assert priced.revenue == pytest.approx(priced.price * priced.buyers)

    def test_alpha_raises_price(self):
        wtp = np.array([10.0] * 5)
        base = price_pure(wtp, StepAdoption())
        biased = price_pure(wtp, StepAdoption(alpha=1.25))
        assert biased.price > base.price
        assert biased.revenue == pytest.approx(1.25 * base.revenue)

    def test_wtp_must_be_1d(self):
        with pytest.raises(ValidationError):
            price_pure(np.ones((2, 2)))

    def test_bundle_is_attached(self):
        priced = price_pure(np.array([5.0]), bundle=Bundle.of(3, 4))
        assert priced.bundle == Bundle.of(3, 4)


class TestPricePureSigmoid:
    def test_expected_revenue_uses_probabilities(self):
        model = SigmoidAdoption(gamma=0.5)
        wtp = np.array([10.0, 10.0])
        priced = price_pure(wtp, model, PriceGrid(mode="exact"))
        expected_buyers = 2 * model.probability(np.array([10.0]), priced.price)[0]
        assert priced.buyers == pytest.approx(expected_buyers)

    def test_low_gamma_lowers_revenue(self):
        wtp = np.array([10.0] * 20)
        uncertain = price_pure(wtp, SigmoidAdoption(gamma=0.1), PriceGrid(200))
        certain = price_pure(wtp, SigmoidAdoption(gamma=100.0), PriceGrid(200))
        assert uncertain.revenue < certain.revenue

    def test_step_is_sigmoid_limit(self, rng):
        wtp = rng.uniform(1, 20, size=30)
        step = price_pure(wtp, StepAdoption(), PriceGrid(50))
        almost = price_pure(wtp, SigmoidAdoption(gamma=1e7), PriceGrid(50))
        assert step.revenue == pytest.approx(almost.revenue, rel=1e-3)


class TestPricePureBatch:
    def test_matches_scalar_step(self, rng):
        columns = rng.uniform(0, 25, size=(60, 17))
        columns[rng.random(columns.shape) < 0.5] = 0.0
        prices, revenues, buyers = price_pure_batch(columns, StepAdoption(), PriceGrid(100))
        for j in range(columns.shape[1]):
            scalar = price_pure(columns[:, j], StepAdoption(), PriceGrid(100))
            assert prices[j] == scalar.price, f"column {j}"
            assert revenues[j] == scalar.revenue, f"column {j}"
            assert buyers[j] == scalar.buyers, f"column {j}"

    def test_matches_scalar_sigmoid(self, rng):
        columns = rng.uniform(0, 25, size=(80, 9))
        columns[rng.random(columns.shape) < 0.3] = 0.0
        model = SigmoidAdoption(gamma=2.0)
        prices, revenues, buyers = price_pure_batch(columns, model, PriceGrid(100))
        for j in range(columns.shape[1]):
            scalar = price_pure(columns[:, j], model, PriceGrid(100))
            assert prices[j] == scalar.price, f"column {j}"
            assert revenues[j] == scalar.revenue, f"column {j}"
            assert buyers[j] == scalar.buyers, f"column {j}"

    def test_exact_mode_batch(self, rng):
        columns = rng.uniform(0, 25, size=(40, 11))
        prices, revenues, buyers = price_pure_batch(
            columns, StepAdoption(), PriceGrid(mode="exact")
        )
        for j in range(columns.shape[1]):
            scalar = price_pure(columns[:, j], StepAdoption(), PriceGrid(mode="exact"))
            assert prices[j] == scalar.price, f"column {j}"
            assert revenues[j] == scalar.revenue, f"column {j}"
            assert buyers[j] == scalar.buyers, f"column {j}"

    def test_zero_columns(self):
        columns = np.zeros((10, 3))
        prices, revenues, buyers = price_pure_batch(columns)
        assert not prices.any() and not revenues.any() and not buyers.any()

    def test_requires_2d(self):
        with pytest.raises(ValidationError):
            price_pure_batch(np.ones(5))


class TestMixedBundlePricing:
    def _base(self, s1, s2, p1, p2):
        score = np.maximum(s1, 0.0) + np.maximum(s2, 0.0)
        pay = p1 * (s1 >= 0) + p2 * (s2 >= 0)
        return score, pay

    def test_paper_upgrade_example(self):
        # Section 4.2: u1 with wA=12, wB=4, wAB=15.2, prices pA=8, pB=8:
        # the bundle at 15.2 must NOT be taken (implicit upgrade too dear).
        w_b = np.array([15.2])
        s1 = np.array([12.0 - 8.0])
        s2 = np.array([4.0 - 8.0])
        score, pay = self._base(s1, s2, 8.0, 8.0)
        merge = price_mixed_bundle(
            w_b, score, pay, 8.0, 16.0, grid=PriceGrid(levels=[15.2]),
        )
        assert merge.feasible
        assert merge.gain == pytest.approx(0.0)
        assert merge.upgraded == 0.0

    def test_paper_alternative_prices(self):
        # With pA=12, pB=4 the same consumer buys the bundle (a tie, broken
        # toward the bundle).
        w_b = np.array([15.2])
        s1 = np.array([0.0])
        s2 = np.array([0.0])
        score, pay = self._base(s1, s2, 12.0, 4.0)
        merge = price_mixed_bundle(w_b, score, pay, 12.0, 16.0,
                                   grid=PriceGrid(levels=[15.2]))
        assert merge.upgraded == 1.0
        assert merge.gain == pytest.approx(15.2 - 16.0)

    def test_infeasible_interval(self):
        merge = price_mixed_bundle(
            np.array([10.0]), np.zeros(1), np.zeros(1), 8.0, 8.0,
        )
        assert not merge.feasible

    def test_new_adopter_gain(self):
        # One consumer priced out of both components, captured by the bundle.
        w_b = np.array([11.2])
        s1 = np.array([-1.39])
        s2 = np.array([-2.39])
        score, pay = self._base(s1, s2, 6.99, 7.99)
        merge = price_mixed_bundle(w_b, score, pay, 7.99, 14.98,
                                   grid=PriceGrid(levels=[11.2]))
        assert merge.gain == pytest.approx(11.2)
        assert merge.upgraded == 1.0

    def test_batch_matches_scalar(self, rng):
        n_users, n_pairs = 50, 12
        w_b = rng.uniform(0, 30, size=(n_users, n_pairs))
        s1 = rng.uniform(-5, 5, size=(n_users, n_pairs))
        s2 = rng.uniform(-5, 5, size=(n_users, n_pairs))
        p1 = rng.uniform(1, 10, size=n_pairs)
        p2 = rng.uniform(1, 10, size=n_pairs)
        score = np.maximum(s1, 0) + np.maximum(s2, 0)
        pay = p1 * (s1 >= 0) + p2 * (s2 >= 0)
        floors = np.maximum(p1, p2)
        ceilings = p1 + p2
        prices, gains, upgraded, feasible = price_mixed_bundle_batch(
            w_b, score, pay, floors, ceilings, StepAdoption(), PriceGrid(60),
        )
        for k in range(n_pairs):
            scalar = price_mixed_bundle(
                w_b[:, k], score[:, k], pay[:, k], floors[k], ceilings[k],
                StepAdoption(), PriceGrid(60),
            )
            assert feasible[k] == scalar.feasible
            if scalar.feasible:
                assert gains[k] == pytest.approx(scalar.gain)
                assert prices[k] == pytest.approx(scalar.price)

    def test_batch_sigmoid_matches_scalar(self, rng):
        n_users, n_pairs = 40, 6
        model = SigmoidAdoption(gamma=1.5)
        w_b = rng.uniform(5, 30, size=(n_users, n_pairs))
        u1 = rng.uniform(-3, 3, size=(n_users, n_pairs))
        u2 = rng.uniform(-3, 3, size=(n_users, n_pairs))
        p1 = rng.uniform(2, 8, size=n_pairs)
        p2 = rng.uniform(2, 8, size=n_pairs)
        score = np.logaddexp(0, model.gamma * u1) + np.logaddexp(0, model.gamma * u2)
        sig = lambda z: 1 / (1 + np.exp(-z))  # noqa: E731
        pay = p1 * sig(model.gamma * u1) + p2 * sig(model.gamma * u2)
        floors, ceilings = np.maximum(p1, p2), p1 + p2
        prices, gains, upgraded, feasible = price_mixed_bundle_batch(
            w_b, score, pay, floors, ceilings, model, PriceGrid(40),
        )
        for k in range(n_pairs):
            scalar = price_mixed_bundle(
                w_b[:, k], score[:, k], pay[:, k], floors[k], ceilings[k],
                model, PriceGrid(40),
            )
            if scalar.feasible:
                assert gains[k] == pytest.approx(scalar.gain, rel=1e-9)

    def test_batch_requires_linspace(self):
        with pytest.raises(PricingError):
            price_mixed_bundle_batch(
                np.ones((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)),
                np.array([1.0]), np.array([3.0]), grid=PriceGrid(mode="exact"),
            )

    def test_price_respects_guiltinan_interval(self, rng):
        w_b = rng.uniform(0, 30, size=60)
        merge = price_mixed_bundle(
            w_b, np.zeros(60), np.zeros(60), 9.0, 14.0, grid=PriceGrid(100),
        )
        if merge.feasible:
            assert 9.0 < merge.price < 14.0
