"""Unit tests for :class:`repro.core.revenue.RevenueEngine`."""

import numpy as np
import pytest

from repro.core.adoption import SigmoidAdoption
from repro.core.bundle import Bundle
from repro.core.revenue import Objective, RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError


class TestEngineBasics:
    def test_accepts_raw_array(self):
        engine = RevenueEngine(np.array([[1.0, 2.0]]))
        assert engine.n_items == 2

    def test_theta_bound(self, handmade_wtp):
        with pytest.raises(ValidationError):
            RevenueEngine(handmade_wtp, theta=-1.0)

    def test_coverage(self, handmade_wtp):
        engine = RevenueEngine(handmade_wtp)
        assert engine.coverage(33.0) == pytest.approx(0.5)

    def test_bundle_wtp_theta_scaling(self, handmade_wtp):
        engine = RevenueEngine(handmade_wtp, theta=0.1)
        single = engine.bundle_wtp(Bundle.of(0))
        np.testing.assert_allclose(single, handmade_wtp.column(0))
        pair = engine.bundle_wtp(Bundle.of(0, 1))
        np.testing.assert_allclose(
            pair, (handmade_wtp.column(0) + handmade_wtp.column(1)) * 1.1
        )

    def test_raw_wtp_is_the_item_sum(self, handmade_wtp):
        engine = RevenueEngine(handmade_wtp)
        bundle = Bundle.of(0, 1)
        np.testing.assert_array_equal(
            engine.raw_wtp(bundle), handmade_wtp.raw_sum(bundle.items)
        )


class TestPurePricing:
    def test_price_bundle_caches(self, small_engine):
        bundle = Bundle.of(0, 1)
        first = small_engine.price_bundle(bundle)
        count = small_engine.stats.pure_pricings
        second = small_engine.price_bundle(bundle)
        assert first is second
        assert small_engine.stats.pure_pricings == count

    def test_batch_equals_scalar(self, small_engine):
        bundles = [Bundle.of(i) for i in range(5)] + [Bundle.of(0, 1), Bundle.of(2, 3, 4)]
        batch = small_engine.price_bundles(bundles)
        for priced in batch:
            fresh = RevenueEngine(small_engine.wtp)
            scalar = fresh.price_bundle(priced.bundle)
            assert priced.revenue == pytest.approx(scalar.revenue)
            assert priced.price == pytest.approx(scalar.price)

    def test_price_components_covers_all_items(self, small_engine):
        singles = small_engine.price_components()
        assert len(singles) == small_engine.n_items
        assert all(offer.bundle.size == 1 for offer in singles)

    def test_pure_merge_gains_definition(self, small_engine):
        singles = small_engine.price_components()
        gains, merged = small_engine.pure_merge_gains(singles, [(0, 1)])
        expected = merged[0].revenue - singles[0].revenue - singles[1].revenue
        assert gains[0] == pytest.approx(expected)
        assert merged[0].bundle == Bundle.of(0, 1)

    def test_empty_pairs(self, small_engine):
        gains, merged = small_engine.pure_merge_gains([], [])
        assert gains.size == 0 and merged == []


class TestMixedPricing:
    def test_mixed_merge_respects_interval(self, small_engine):
        singles = small_engine.price_components()
        merge = small_engine.mixed_merge(singles[0], singles[1])
        if merge.feasible:
            floor = max(singles[0].price, singles[1].price)
            ceiling = singles[0].price + singles[1].price
            assert floor < merge.price < ceiling

    def test_batch_matches_single(self, small_engine):
        singles = small_engine.price_components()
        states = small_engine.offer_states(singles)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        merges = small_engine.mixed_merge_gains(singles, states, pairs)
        for (i, j), merge in zip(pairs, merges):
            single = small_engine.mixed_merge(singles[i], singles[j])
            assert merge.feasible == single.feasible
            if merge.feasible:
                assert merge.gain == pytest.approx(single.gain)
                assert merge.price == pytest.approx(single.price)

    def test_exact_grid_fallback(self, exact_engine):
        singles = exact_engine.price_components()
        states = exact_engine.offer_states(singles)
        merges = exact_engine.mixed_merge_gains(singles, states, [(0, 1)])
        assert len(merges) == 1

    def test_merged_state_consistency(self, small_engine):
        """Applying a merge and re-evaluating matches the incremental gain."""
        from repro.core.choice import build_forest, evaluate_forest
        from repro.core.pricing import PricedBundle

        singles = small_engine.price_components()
        states = small_engine.offer_states(singles)
        merges = small_engine.mixed_merge_gains(singles, states, [(0, 1)])
        merge = merges[0]
        if not merge.feasible:
            pytest.skip("no feasible level for this pair")
        offers = list(singles) + [
            PricedBundle(merge.bundle, merge.price, 0.0, merge.upgraded)
        ]
        roots = build_forest(offers)
        with_bundle = evaluate_forest(
            roots, small_engine.bundle_wtp, small_engine.adoption
        ).revenue
        base = evaluate_forest(
            build_forest(list(singles)), small_engine.bundle_wtp, small_engine.adoption
        ).revenue
        assert with_bundle - base == pytest.approx(merge.gain, abs=1e-9)

    def test_mixed_bundle_gain_validates_partition(self, small_engine):
        singles = small_engine.price_components()
        with pytest.raises(ValidationError):
            small_engine.mixed_bundle_gain(Bundle.of(0, 1, 2), [singles[0], singles[1]])

    def test_mixed_bundle_gain_pair_equals_mixed_merge(self, small_engine):
        singles = small_engine.price_components()
        via_components = small_engine.mixed_bundle_gain(
            Bundle.of(0, 1), [singles[0], singles[1]]
        )
        via_merge = small_engine.mixed_merge(singles[0], singles[1])
        assert via_components.feasible == via_merge.feasible
        if via_merge.feasible:
            assert via_components.gain == pytest.approx(via_merge.gain)


class TestCoSupport:
    def test_known_structure(self):
        wtp = WTPMatrix([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        engine = RevenueEngine(wtp)
        pairs = engine.co_supported_pairs([Bundle.of(0), Bundle.of(1), Bundle.of(2)])
        assert pairs == [(0, 1)]

    def test_bundle_level_support(self):
        wtp = WTPMatrix([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        engine = RevenueEngine(wtp)
        pairs = engine.co_supported_pairs([Bundle.of(0, 1), Bundle.of(2)])
        assert pairs == [(0, 1)]

    def test_fewer_than_two_bundles(self, small_engine):
        assert small_engine.co_supported_pairs([Bundle.of(0)]) == []


class TestObjective:
    def test_pure_revenue_objective_is_noop(self, handmade_wtp):
        plain = RevenueEngine(handmade_wtp)
        objective = RevenueEngine(handmade_wtp, objective=Objective(profit_weight=1.0))
        bundle = Bundle.of(0)
        assert plain.price_bundle(bundle).revenue == pytest.approx(
            objective.price_bundle(bundle).revenue
        )

    def test_costs_raise_prices(self, handmade_wtp):
        costs = np.full(3, 6.0)
        engine = RevenueEngine(
            handmade_wtp, objective=Objective(profit_weight=1.0, variable_costs=costs)
        )
        plain = RevenueEngine(handmade_wtp)
        bundle = Bundle.of(0)
        # With a cost near the low price point the profit-maximizing price
        # moves (weakly) up versus pure revenue maximization.
        assert engine.price_bundle(bundle).price >= plain.price_bundle(bundle).price

    def test_surplus_weight_lowers_price(self, handmade_wtp):
        welfare = RevenueEngine(handmade_wtp, objective=Objective(profit_weight=0.2))
        greedy = RevenueEngine(handmade_wtp, objective=Objective(profit_weight=1.0))
        bundle = Bundle.of(0)
        assert welfare.price_bundle(bundle).price <= greedy.price_bundle(bundle).price

    def test_objective_requires_deterministic(self, handmade_wtp):
        engine = RevenueEngine(
            handmade_wtp,
            adoption=SigmoidAdoption(),
            objective=Objective(profit_weight=0.5),
        )
        with pytest.raises(ValidationError):
            engine.price_bundle(Bundle.of(0))

    def test_objective_validation(self):
        with pytest.raises(ValidationError):
            Objective(profit_weight=1.5)
        with pytest.raises(ValidationError):
            Objective(variable_costs=np.array([-1.0]))

    def test_bundle_cost_sums_items(self):
        objective = Objective(variable_costs=np.array([1.0, 2.0, 4.0]))
        assert objective.bundle_cost(Bundle.of(0, 2)) == pytest.approx(5.0)


class TestStats:
    def test_counters_accumulate_and_reset(self, small_engine):
        singles = small_engine.price_components()
        assert small_engine.stats.pure_pricings >= small_engine.n_items
        states = small_engine.offer_states(singles)
        small_engine.mixed_merge_gains(singles, states, [(0, 1), (1, 2)])
        assert small_engine.stats.mixed_pricings >= 2
        small_engine.stats.reset()
        assert small_engine.stats.pure_pricings == 0
        assert small_engine.stats.mixed_pricings == 0
