"""Unit tests for configuration evaluation (Section 6.1.2 metrics)."""

import numpy as np
import pytest

from repro.core.adoption import SigmoidAdoption
from repro.core.bundle import Bundle
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.choice import sample_forest
from repro.core.evaluation import evaluate, revenue_gain
from repro.core.pricing import PricedBundle
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError


@pytest.fixture()
def two_item_engine():
    wtp = WTPMatrix([[10.0, 2.0], [6.0, 8.0], [0.0, 4.0]])
    return RevenueEngine(wtp)


class TestMetrics:
    def test_revenue_gain(self):
        assert revenue_gain(11.0, 10.0) == pytest.approx(0.1)

    def test_revenue_gain_requires_positive_base(self):
        with pytest.raises(ValidationError):
            revenue_gain(5.0, 0.0)

    def test_coverage_definition(self, two_item_engine):
        config = PureConfiguration(
            [PricedBundle(Bundle.of(0), 6.0, 12.0, 2.0),
             PricedBundle(Bundle.of(1), 4.0, 8.0, 2.0)],
            2,
        )
        report = evaluate(config, two_item_engine)
        assert report.coverage == pytest.approx(report.expected_revenue / 30.0)


class TestPureEvaluation:
    def test_expected_matches_hand_count(self, two_item_engine):
        config = PureConfiguration(
            [PricedBundle(Bundle.of(0), 6.0, 0.0, 0.0),
             PricedBundle(Bundle.of(1), 4.0, 0.0, 0.0)],
            2,
        )
        report = evaluate(config, two_item_engine, n_runs=0)
        revenue, buyers = report.expected_revenue, report.buyers_per_offer
        # item0 at 6: users 0,1 buy (12); item1 at 4: users 1,2 buy (8).
        assert revenue == pytest.approx(20.0)
        assert buyers[Bundle.of(0)] == 2.0
        assert buyers[Bundle.of(1)] == 2.0

    def test_zero_price_offer_contributes_nothing(self, two_item_engine):
        config = PureConfiguration(
            [PricedBundle(Bundle.of(0), 0.0, 0.0, 0.0),
             PricedBundle(Bundle.of(1), 4.0, 0.0, 0.0)],
            2,
        )
        report = evaluate(config, two_item_engine, n_runs=0)
        revenue, buyers = report.expected_revenue, report.buyers_per_offer
        assert revenue == pytest.approx(8.0)
        assert buyers[Bundle.of(0)] == 0.0

    def test_deterministic_sampling_equals_expectation(self, two_item_engine, rng):
        config = PureConfiguration(
            [PricedBundle(Bundle.of(0), 6.0, 0.0, 0.0),
             PricedBundle(Bundle.of(1), 4.0, 0.0, 0.0)],
            2,
        )
        expected = evaluate(config, two_item_engine, n_runs=0).expected_revenue
        engine = two_item_engine
        roots = config.forest()
        sampled = sample_forest(roots, engine.bundle_wtp, engine.adoption, rng)
        assert config.revenue(sampled) == pytest.approx(expected)

    def test_stochastic_runs_recorded(self):
        wtp = WTPMatrix(np.full((50, 1), 10.0))
        engine = RevenueEngine(wtp, adoption=SigmoidAdoption(gamma=0.5))
        config = PureConfiguration([PricedBundle(Bundle.of(0), 8.0, 0.0, 0.0)], 1)
        report = evaluate(config, engine, n_runs=6, seed=3)
        assert len(report.realized_revenues) == 6
        assert report.realized_std >= 0.0
        assert report.realized_mean == pytest.approx(report.expected_revenue, rel=0.25)

    def test_runs_reproducible_by_seed(self):
        wtp = WTPMatrix(np.full((30, 1), 10.0))
        engine = RevenueEngine(wtp, adoption=SigmoidAdoption(gamma=0.5))
        config = PureConfiguration([PricedBundle(Bundle.of(0), 8.0, 0.0, 0.0)], 1)
        first = evaluate(config, engine, n_runs=4, seed=9).realized_revenues
        second = evaluate(config, engine, n_runs=4, seed=9).realized_revenues
        assert first == second


class TestMixedEvaluation:
    def test_upgrade_semantics(self, two_item_engine):
        offers = [
            PricedBundle(Bundle.of(0), 6.0, 0.0, 0.0),
            PricedBundle(Bundle.of(1), 4.0, 0.0, 0.0),
            PricedBundle(Bundle.of(0, 1), 9.0, 0.0, 0.0),
        ]
        config = MixedConfiguration(offers, 2)
        report = evaluate(config, two_item_engine, n_runs=0)
        revenue, buyers = report.expected_revenue, report.buyers_per_offer
        # u0: surplus item0=4 vs bundle (12-9)=3 -> item0 (6).
        # u1: items 0+4=4... item0 s=0, item1 s=4, both s=4, bundle 14-9=5 -> bundle (9).
        # u2: item1 s=0, bundle 4-9<0 -> item1 (4).
        assert revenue == pytest.approx(6.0 + 9.0 + 4.0)
        assert buyers[Bundle.of(0, 1)] == 1.0

    def test_report_via_evaluate(self, two_item_engine):
        offers = [
            PricedBundle(Bundle.of(0), 6.0, 0.0, 0.0),
            PricedBundle(Bundle.of(1), 4.0, 0.0, 0.0),
            PricedBundle(Bundle.of(0, 1), 9.0, 0.0, 0.0),
        ]
        report = evaluate(MixedConfiguration(offers, 2), two_item_engine)
        assert report.expected_revenue == pytest.approx(19.0)
        assert report.realized_revenues == ()

    def test_rejects_unknown_type(self, two_item_engine):
        with pytest.raises(ValidationError):
            evaluate("nope", two_item_engine)

    def test_mixed_never_below_components_when_priced_sanely(self, medium_engine):
        from repro.algorithms.components import Components
        from repro.algorithms.matching_iterative import IterativeMatching

        components = Components().fit(medium_engine)
        mixed = IterativeMatching(strategy="mixed").fit(medium_engine)
        assert mixed.expected_revenue >= components.expected_revenue - 1e-6


class TestFitEvaluationQuoteAgree:
    """Fit, evaluation and quote count the same buyers on the same users."""

    def test_leaf_band_matches_the_pricer(self):
        # One user a hair (5e-9) under the price adopts by the standalone
        # rule u >= -decision_tolerance(p); a childless offer in a menu must
        # decide by that rule too, pure or mixed.
        engine = RevenueEngine(WTPMatrix([[10.0, 3.0], [10.0 - 5e-9, 4.0]]))
        singles = [engine.price_bundle(Bundle.of(item)) for item in (0, 1)]
        assert singles[0].price == 10.0 and singles[0].buyers == 2.0
        top = PricedBundle(Bundle.of(0, 1), 100.0, 0.0, 0.0)
        for config in (
            PureConfiguration(singles, 2),
            MixedConfiguration(singles + [top], 2),
        ):
            buyers = evaluate(config, engine, n_runs=0).buyers_per_offer
            for offer in singles:
                assert buyers[offer.bundle] == offer.buyers, type(config).__name__

    def test_zero_priced_offer_has_no_buyers(self):
        # An item nobody values is priced 0 and sells to nobody: the fit,
        # quote() and evaluate() must all report 0 buyers for it, pure or
        # mixed.
        from repro.api import BundlingSolver, EngineConfig

        values = np.random.default_rng(0).lognormal(1.0, 0.6, size=(200, 8))
        values[:, 3] = 0.0
        wtp = WTPMatrix(values)
        algorithms = ("pure_matching", "components", "mixed_matching", "mixed_greedy")
        for algorithm in algorithms:
            solution = BundlingSolver(algorithm, EngineConfig()).fit(wtp)
            quoted = solution.quote(values).buyers_per_offer
            engine = solution.engine_config.build(wtp)
            report = evaluate(solution.configuration, engine, n_runs=0)
            zero_priced = [o for o in solution.configuration.offers if o.price <= 0]
            assert zero_priced, algorithm
            for offer in zero_priced:
                evaluated = report.buyers_per_offer[offer.bundle]
                counts = (offer.buyers, quoted[offer.bundle], evaluated)
                assert counts == (0.0, 0.0, 0.0), algorithm
