"""Tests for the configuration algorithms (Sections 5.1, 5.3, 6.1.3)."""

import numpy as np
import pytest

from repro.algorithms.base import BundlingResult, check_max_size, check_strategy
from repro.algorithms.components import Components, ComponentsListPrice
from repro.algorithms.freqitemset import FreqItemsetBundling
from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching2 import Optimal2Bundling
from repro.algorithms.matching_iterative import IterativeMatching
from repro.algorithms.registry import algorithm_names, make_algorithm
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.revenue import RevenueEngine
from repro.errors import ValidationError


class TestBase:
    def test_check_strategy(self):
        assert check_strategy("pure") == "pure"
        with pytest.raises(ValidationError):
            check_strategy("hybrid")

    def test_check_max_size(self):
        assert check_max_size(None) is None
        assert check_max_size(3) == 3
        with pytest.raises(ValidationError):
            check_max_size(0)
        with pytest.raises(ValidationError):
            check_max_size(2.5)

    def test_result_gain_over(self, small_engine):
        result = Components().fit(small_engine)
        assert result.gain_over(result.expected_revenue) == pytest.approx(0.0)


class TestComponents:
    def test_configuration_is_all_singletons(self, small_engine):
        result = Components().fit(small_engine)
        assert isinstance(result.configuration, PureConfiguration)
        assert all(o.bundle.size == 1 for o in result.configuration.offers)
        assert len(result.configuration) == small_engine.n_items

    def test_revenue_matches_sum_of_item_optima(self, small_engine):
        result = Components().fit(small_engine)
        singles = small_engine.price_components()
        assert result.expected_revenue == pytest.approx(sum(o.revenue for o in singles))

    def test_list_price_never_beats_optimal(self, small_dataset, small_wtp):
        engine = RevenueEngine(small_wtp)
        optimal = Components().fit(engine)
        listed = ComponentsListPrice(small_dataset.item_prices).fit(engine)
        assert listed.expected_revenue <= optimal.expected_revenue + 1e-9

    def test_list_price_validations(self, small_engine):
        with pytest.raises(ValidationError):
            ComponentsListPrice([1.0]).fit(small_engine)
        with pytest.raises(ValidationError):
            ComponentsListPrice([-1.0, 2.0])


class TestOptimal2:
    def test_pure_beats_or_ties_components(self, medium_engine):
        two = Optimal2Bundling(strategy="pure").fit(medium_engine)
        comp = Components().fit(medium_engine)
        assert two.expected_revenue >= comp.expected_revenue - 1e-9
        assert two.configuration.max_bundle_size <= 2

    def test_pure_is_optimal_among_2_partitions(self, small_wtp):
        """Cross-check against the exact subset DP restricted to size <= 2."""
        from repro.algorithms.setpacking import OptimalWSP

        engine = RevenueEngine(small_wtp.subset_items(range(10)))
        two = Optimal2Bundling(strategy="pure").fit(engine)
        exact = OptimalWSP(method="dp", k=2).fit(engine)
        assert two.expected_revenue == pytest.approx(exact.expected_revenue, rel=1e-9)

    def test_backends_agree(self, medium_engine, monkeypatch):
        """Blossom and the networkx oracle yield the same optimal revenue."""
        from matching_oracles import networkx_matching

        import repro.algorithms.matching2 as matching2

        ours = Optimal2Bundling(strategy="pure").fit(medium_engine)
        monkeypatch.setattr(matching2, "solve_matching", networkx_matching)
        nx = Optimal2Bundling(strategy="pure").fit(medium_engine)
        assert ours.expected_revenue == pytest.approx(nx.expected_revenue, rel=1e-9)

    def test_mixed_offers_include_all_components(self, medium_engine):
        result = Optimal2Bundling(strategy="mixed").fit(medium_engine)
        assert isinstance(result.configuration, MixedConfiguration)
        singles = {o.bundle for o in result.configuration.offers if o.bundle.size == 1}
        assert len(singles) == medium_engine.n_items


class TestIterativeMatching:
    @pytest.mark.parametrize("strategy", ["pure", "mixed"])
    def test_never_below_components(self, medium_engine, strategy):
        comp = Components().fit(medium_engine)
        result = IterativeMatching(strategy=strategy).fit(medium_engine)
        assert result.expected_revenue >= comp.expected_revenue - 1e-6

    def test_k_constraint_respected(self, medium_engine):
        for k in (2, 3):
            result = IterativeMatching(strategy="pure", k=k).fit(medium_engine)
            assert result.configuration.max_bundle_size <= k

    def test_k1_equals_components(self, medium_engine):
        comp = Components().fit(medium_engine)
        result = IterativeMatching(strategy="pure", k=1).fit(medium_engine)
        assert result.expected_revenue == pytest.approx(comp.expected_revenue)

    def test_trace_revenue_monotone(self, medium_engine):
        result = IterativeMatching(strategy="mixed").fit(medium_engine)
        revenues = [rec.revenue for rec in result.trace]
        assert all(b >= a for a, b in zip(revenues, revenues[1:]))

    def test_mixed_trace_matches_final_evaluation(self, medium_engine):
        """The subtree-state estimate agrees with the exact evaluation."""
        result = IterativeMatching(strategy="mixed").fit(medium_engine)
        if result.trace:
            assert result.trace[-1].revenue == pytest.approx(
                result.expected_revenue, rel=1e-9
            )

    def test_pure_trace_matches_final_evaluation(self, medium_engine):
        result = IterativeMatching(strategy="pure").fit(medium_engine)
        if result.trace:
            assert result.trace[-1].revenue == pytest.approx(
                result.expected_revenue, rel=1e-9
            )

    def test_max_iterations_cap(self, medium_engine):
        capped = IterativeMatching(strategy="mixed", max_iterations=1).fit(medium_engine)
        assert capped.n_iterations <= 1

    def test_pruning_flags_do_not_change_validity(self, medium_engine):
        result = IterativeMatching(
            strategy="pure", co_support_pruning=False, new_vertex_pruning=False
        ).fit(medium_engine)
        assert isinstance(result.configuration, PureConfiguration)

    def test_theta_negative_degenerates_to_components(self, medium_wtp):
        engine = RevenueEngine(medium_wtp, theta=-0.3)
        comp = Components().fit(engine)
        pure = IterativeMatching(strategy="pure").fit(engine)
        assert pure.expected_revenue == pytest.approx(comp.expected_revenue)
        assert pure.configuration.max_bundle_size == 1

    def test_theta_positive_forms_bundles(self, medium_wtp):
        engine = RevenueEngine(medium_wtp, theta=0.2)
        pure = IterativeMatching(strategy="pure").fit(engine)
        assert pure.configuration.max_bundle_size >= 2


class TestGreedyMerge:
    @pytest.mark.parametrize("strategy", ["pure", "mixed"])
    def test_never_below_components(self, medium_engine, strategy):
        comp = Components().fit(medium_engine)
        result = GreedyMerge(strategy=strategy).fit(medium_engine)
        assert result.expected_revenue >= comp.expected_revenue - 1e-6

    def test_one_merge_per_iteration(self, medium_engine):
        result = GreedyMerge(strategy="pure").fit(medium_engine)
        assert all(rec.merges == 1 for rec in result.trace)

    def test_greedy_gains_non_increasing(self, medium_engine):
        """Pure greedy picks the best merge first; gains shrink over time."""
        result = GreedyMerge(strategy="pure").fit(medium_engine)
        revenues = [rec.revenue for rec in result.trace]
        gains = np.diff([Components().fit(medium_engine).expected_revenue] + revenues)
        assert np.all(gains > 0)

    def test_more_iterations_than_matching(self, medium_engine):
        greedy = GreedyMerge(strategy="mixed").fit(medium_engine)
        matching = IterativeMatching(strategy="mixed").fit(medium_engine)
        if greedy.n_iterations > 1:
            assert greedy.n_iterations >= matching.n_iterations

    def test_k_constraint(self, medium_engine):
        result = GreedyMerge(strategy="mixed", k=2).fit(medium_engine)
        assert result.configuration.max_bundle_size <= 2

    def test_mixed_trace_matches_final_evaluation(self, medium_engine):
        result = GreedyMerge(strategy="mixed").fit(medium_engine)
        if result.trace:
            assert result.trace[-1].revenue == pytest.approx(
                result.expected_revenue, rel=1e-9
            )

    def test_close_to_matching_revenue(self, medium_engine):
        greedy = GreedyMerge(strategy="pure").fit(medium_engine)
        matching = IterativeMatching(strategy="pure").fit(medium_engine)
        assert greedy.expected_revenue == pytest.approx(
            matching.expected_revenue, rel=0.05
        )


class TestFreqItemset:
    def test_pure_never_below_components(self, medium_engine):
        comp = Components().fit(medium_engine)
        result = FreqItemsetBundling(strategy="pure", minsup=0.08).fit(medium_engine)
        assert result.expected_revenue >= comp.expected_revenue - 1e-6

    def test_mixed_configuration_keeps_singletons(self, medium_engine):
        result = FreqItemsetBundling(strategy="mixed", minsup=0.08).fit(medium_engine)
        singles = {o.bundle for o in result.configuration.offers if o.bundle.size == 1}
        assert len(singles) == medium_engine.n_items

    def test_candidates_limited_by_k(self, medium_engine):
        result = FreqItemsetBundling(strategy="mixed", minsup=0.08, k=2).fit(medium_engine)
        assert result.configuration.max_bundle_size <= 2

    def test_trails_our_mixed_method(self, medium_engine):
        ours = IterativeMatching(strategy="mixed").fit(medium_engine)
        baseline = FreqItemsetBundling(strategy="mixed", minsup=0.08).fit(medium_engine)
        assert ours.expected_revenue >= baseline.expected_revenue - 1e-6

    def test_minsup_validation(self):
        with pytest.raises(ValidationError):
            FreqItemsetBundling(minsup=0.0)
        with pytest.raises(ValidationError):
            FreqItemsetBundling(minsup=1.5)


class TestRegistry:
    def test_all_names_construct_and_run(self, small_engine):
        for name in algorithm_names():
            if name.startswith("optimal") or name == "greedy_wsp":
                continue  # exponential enumeration; covered elsewhere
            result = make_algorithm(name).fit(small_engine)
            assert isinstance(result, BundlingResult)
            assert result.coverage > 0

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            make_algorithm("quantum_bundling")

    def test_kwargs_forwarding(self):
        algo = make_algorithm("pure_matching", k=3)
        assert algo.k == 3

    def test_unknown_kwargs_raise_for_every_entry(self):
        """No registry entry may silently swallow an unknown option.

        Historically ``make_algorithm("components", k=3)`` dropped ``k`` on
        the floor (``lambda **kw: Components()``); now every entry validates
        caller kwargs against the constructor signature.
        """
        for name in algorithm_names():
            with pytest.raises(ValidationError, match="does not accept"):
                make_algorithm(name, definitely_not_an_option=1)

    def test_components_rejects_k(self):
        with pytest.raises(ValidationError, match="does not accept"):
            make_algorithm("components", k=3)

    def test_preset_kwargs_not_overridable(self):
        """The strategy a pure_/mixed_ name pins is not a caller option."""
        with pytest.raises(ValidationError, match="does not accept"):
            make_algorithm("pure_matching", strategy="mixed")

    def test_algorithm_options_reflect_signatures(self):
        from repro.algorithms.registry import algorithm_options

        assert algorithm_options("components") == ()
        assert "k" in algorithm_options("pure_matching")
        assert "strategy" not in algorithm_options("pure_matching")
        assert "minsup" in algorithm_options("mixed_freqitemset")
        with pytest.raises(ValidationError, match="unknown algorithm"):
            algorithm_options("quantum_bundling")

    @pytest.mark.parametrize("name", ["pure_matching", "mixed_matching2"])
    def test_matching_backend_option_removed(self, name):
        """Blossom is the only matching solver, so ``backend`` is no option."""
        from repro.algorithms.registry import algorithm_options

        assert "backend" not in algorithm_options(name)
        with pytest.raises(ValidationError, match="does not accept"):
            make_algorithm(name, backend="blossom")
