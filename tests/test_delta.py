"""Population deltas and incremental refit: bit-identity is the contract.

Every assertion in this module is exact (``==`` on float64, fingerprint
equality) — the refit layer promises that warm incremental maintenance
lands on the same bits a cold recompute produces, and that the
drift-forced fallback *is* ``fit(new_wtp)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    BundlingSolution,
    BundlingSolver,
    EngineConfig,
    PopulationDelta,
)
from repro.core.adoption import SigmoidAdoption
from repro.core.delta import IncrementalMenuPricer
from repro.core.evaluation import evaluate
from repro.core.revenue import DEFAULT_DRIFT_THRESHOLD, RevenueEngine
from repro.errors import ValidationError


def make_delta(wtp, n_removed=9, n_added=7, seed=17):
    """A deterministic churn delta sized for the small fixtures."""
    rng = np.random.default_rng(seed)
    removed = rng.choice(wtp.n_users, size=n_removed, replace=False)
    donors = rng.choice(wtp.n_users, size=n_added, replace=False)
    scales = rng.uniform(0.85, 1.15, size=(n_added, 1))
    added = wtp.values[donors] * scales
    return PopulationDelta(added=added, removed=tuple(int(i) for i in removed))


class TestPopulationDelta:
    def test_normalizes_and_sorts_removed(self):
        delta = PopulationDelta(removed=(5, 1, 3))
        assert delta.removed == (1, 3, 5)
        assert delta.n_added == 0 and delta.n_removed == 3
        assert not delta.is_empty

    def test_added_rows_are_read_only_float64(self):
        delta = PopulationDelta(added=np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert delta.added.dtype == np.float64
        with pytest.raises(ValueError):
            delta.added[0, 0] = 9.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"removed": (2, 2)},
            {"removed": (-1,)},
            {"added": np.ones(3)},
            {"added": np.array([[1.0, np.nan]])},
            {"added": np.array([[-1.0, 2.0]])},
        ],
    )
    def test_invalid_payloads_raise(self, kwargs):
        with pytest.raises(ValidationError):
            PopulationDelta(**kwargs)

    def test_check_against_population_shape(self):
        delta = PopulationDelta(added=np.ones((1, 3)), removed=(4,))
        assert delta.check(5, 3) is delta
        with pytest.raises(ValidationError):
            delta.check(4, 3)  # removed index out of range
        with pytest.raises(ValidationError):
            delta.check(5, 2)  # item-count mismatch
        with pytest.raises(ValidationError):
            PopulationDelta(removed=(0, 1)).check(2, 3)  # removes everyone

    def test_dict_round_trip_is_exact(self, small_wtp):
        delta = make_delta(small_wtp)
        clone = PopulationDelta.from_dict(delta.to_dict())
        assert clone.removed == delta.removed
        assert np.array_equal(clone.added, delta.added)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown delta payload"):
            PopulationDelta.from_dict({"removed": [], "extra": 1})
        with pytest.raises(ValidationError):
            PopulationDelta.from_dict([1, 2])

    def test_apply_appends_after_retained_rows(self, handmade_wtp):
        delta = PopulationDelta(
            added=np.array([[1.0, 2.0, 3.0]]), removed=(1,)
        )
        new = delta.apply(handmade_wtp)
        assert new.n_users == 4
        expected = np.vstack(
            [np.delete(handmade_wtp.values, 1, axis=0), [[1.0, 2.0, 3.0]]]
        )
        assert np.array_equal(new.values, expected)


class TestEngineApplyDelta:
    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(n_workers=2),
            EngineConfig(state_dtype="float32"),
        ],
        ids=[
            "default",
            "thread-w2",
            "state-float32",
        ],
    )
    def test_priced_menu_matches_fresh_engine(self, small_wtp, config):
        delta = make_delta(small_wtp)
        engine = config.build(small_wtp)
        # Warm the caches on the pre-delta population first, so the test
        # exercises the patch path, not a cold rebuild.
        warmed = engine.price_components()
        assert warmed
        engine.apply_delta(delta)
        fresh = config.build(delta.apply(small_wtp))
        assert engine.n_users == fresh.n_users
        for patched, cold in zip(engine.price_components(), fresh.price_components()):
            assert patched == cold
        assert engine.stats.deltas_applied == 1

    def test_mixed_states_match_after_delta(self, small_wtp):
        config = EngineConfig(theta=0.1)
        delta = make_delta(small_wtp)
        engine = config.build(small_wtp)
        singles = engine.price_components()
        states = engine.offer_states(singles[:4])
        assert states.score.shape == (4, engine.n_users)
        engine.apply_delta(delta)
        fresh = config.build(delta.apply(small_wtp))
        fresh_singles = fresh.price_components()
        for offer, cold_offer in zip(engine.price_components(), fresh_singles):
            assert offer == cold_offer
        merges = engine.mixed_merge_gains(
            engine.price_components(),
            engine.offer_states(engine.price_components()),
            engine.co_supported_pairs([o.bundle for o in engine.price_components()]),
        )
        fresh_merges = fresh.mixed_merge_gains(
            fresh_singles,
            fresh.offer_states(fresh_singles),
            fresh.co_supported_pairs([o.bundle for o in fresh_singles]),
        )
        assert merges == fresh_merges

    def test_rejects_non_delta_and_bad_shape(self, small_engine):
        with pytest.raises(ValidationError, match="PopulationDelta"):
            small_engine.apply_delta({"removed": [0]})
        too_big = PopulationDelta(removed=(small_engine.n_users,))
        with pytest.raises(ValidationError, match="out of range"):
            small_engine.apply_delta(too_big)


class TestIncrementalMenuPricer:
    def test_deterministic_prices_bit_identical(self, small_wtp):
        engine = RevenueEngine(small_wtp, theta=0.15)
        menu = [offer.bundle for offer in engine.price_components()[:6]]
        pricer = IncrementalMenuPricer(engine, menu)
        delta = make_delta(small_wtp)
        pricer.apply(delta, delta.added_matrix(small_wtp))
        cold = RevenueEngine(delta.apply(small_wtp), theta=0.15)
        for bundle in menu:
            assert pricer.price(bundle) == cold.price_bundle(bundle)

    def test_sigmoid_fallback_bit_identical(self, small_wtp):
        adoption = SigmoidAdoption(gamma=2.0)
        engine = RevenueEngine(small_wtp, adoption=adoption)
        menu = [offer.bundle for offer in engine.price_components()[:4]]
        pricer = IncrementalMenuPricer(engine, menu)
        delta = make_delta(small_wtp)
        pricer.apply(delta, delta.added_matrix(small_wtp))
        cold = RevenueEngine(delta.apply(small_wtp), adoption=adoption)
        for bundle in menu:
            assert pricer.price(bundle) == cold.price_bundle(bundle)

    def test_compounds_across_successive_deltas(self, small_wtp):
        engine = RevenueEngine(small_wtp)
        menu = [offer.bundle for offer in engine.price_components()[:5]]
        pricer = IncrementalMenuPricer(engine, menu)
        population = small_wtp
        for seed in (3, 4):
            delta = make_delta(population, n_removed=5, n_added=4, seed=seed)
            pricer.apply(delta, delta.added_matrix(population))
            population = delta.apply(population)
        cold = RevenueEngine(population)
        for bundle in menu:
            assert pricer.price(bundle) == cold.price_bundle(bundle)


class TestSolverRefit:
    @pytest.fixture(
        scope="class", params=["pure_greedy", "mixed_matching"]
    )
    def fitted(self, request, small_wtp):
        config = EngineConfig(theta=0.15)
        solver = BundlingSolver(request.param, config)
        return solver, solver.fit(small_wtp), small_wtp

    def test_warm_refit_is_bit_identical_to_cold_reprice(self, fitted):
        solver, solution, wtp = fitted
        delta = make_delta(wtp, n_removed=4, n_added=3)
        report = solver.refit(solution, wtp, delta, drift_threshold=1e6)
        assert report.mode == "warm" and report.is_warm
        cold_engine = solution.engine_config.build(delta.apply(wtp))
        evaluated = evaluate(report.solution.configuration, cold_engine, n_runs=0)
        assert evaluated.expected_revenue == report.solution.expected_revenue
        for offer in report.solution.configuration.offers:
            if solution.strategy == "pure":
                assert offer == cold_engine.price_bundle(offer.bundle)
            else:
                # Mixed menus keep their fitted prices; buyers and revenue
                # must match an independent exact re-evaluation on the
                # post-delta population.
                assert offer.buyers == evaluated.buyers_per_offer[offer.bundle]
                assert offer.revenue == offer.price * offer.buyers
        refit_meta = report.solution.metadata["refit"]
        assert refit_meta["mode"] == "warm"
        assert refit_meta["base_fingerprint"] == solution.fingerprint()

    def test_drift_measures_allocation_not_revenue_semantics(self, fitted):
        """A tiny churn must register tiny drift.  Mixed fits may store
        *standalone* offer revenues while the warm side rebuilds offers
        from the choice-forest allocation; the ratio leg of the drift must
        compare allocation against allocation, never allocation against
        standalone (which reads as huge phantom drift on any delta)."""
        solver, solution, wtp = fitted
        delta = make_delta(wtp, n_removed=1, n_added=1)
        report = solver.refit(solution, wtp, delta, drift_threshold=1e6)
        assert report.drift == max(report.revenue_delta, report.ratio_delta)
        assert report.revenue_delta < 0.05
        assert report.ratio_delta < 0.05
        assert report.drift <= 0.05  # i.e. warm under the default threshold

    def test_drift_forced_cold_reproduces_fit(self, fitted):
        solver, solution, wtp = fitted
        delta = make_delta(wtp, n_removed=4, n_added=3)
        report = solver.refit(solution, wtp, delta, drift_threshold=0.0)
        assert report.mode == "cold" and not report.is_warm
        cold = solver.fit(delta.apply(wtp))
        assert report.solution.fingerprint() == cold.fingerprint()

    def test_warm_solution_round_trips_through_json(self, fitted, tmp_path):
        solver, solution, wtp = fitted
        delta = make_delta(wtp, n_removed=4, n_added=3)
        report = solver.refit(solution, wtp, delta, drift_threshold=1e6)
        path = tmp_path / "warm.json"
        report.solution.save(path)
        loaded = BundlingSolution.load(path)
        assert loaded.fingerprint() == report.solution.fingerprint()
        assert loaded.metadata["refit"]["mode"] == "warm"

    def test_dict_delta_is_accepted(self, fitted):
        solver, solution, wtp = fitted
        delta = make_delta(wtp, n_removed=4, n_added=3)
        via_dict = solver.refit(
            solution, wtp, delta.to_dict(), drift_threshold=1e6
        )
        direct = solver.refit(solution, wtp, delta, drift_threshold=1e6)
        assert via_dict.solution.fingerprint() == direct.solution.fingerprint()

    def test_provenance_mismatch_raises(self, small_wtp):
        config = EngineConfig(theta=0.15)
        solution = BundlingSolver("pure_greedy", config).fit(small_wtp)
        delta = make_delta(small_wtp, n_removed=2, n_added=2)
        other_config = BundlingSolver("pure_greedy", EngineConfig(theta=0.2))
        with pytest.raises(ValidationError, match="provenance"):
            other_config.refit(solution, small_wtp, delta)
        other_algo = BundlingSolver("pure_matching", config)
        with pytest.raises(ValidationError, match="provenance"):
            other_algo.refit(solution, small_wtp, delta)

    def test_refit_threshold_comes_from_engine_config(self, small_wtp):
        config = EngineConfig(theta=0.15, drift_threshold=0.25)
        solver = BundlingSolver("pure_greedy", config)
        solution = solver.fit(small_wtp)
        delta = make_delta(small_wtp, n_removed=2, n_added=2)
        report = solver.refit(solution, small_wtp, delta)
        assert report.threshold == 0.25


class TestDriftThresholdConfig:
    def test_default_and_round_trip(self):
        config = EngineConfig()
        assert config.drift_threshold == DEFAULT_DRIFT_THRESHOLD
        custom = EngineConfig(drift_threshold=0.125)
        assert EngineConfig.from_dict(custom.to_dict()) == custom
        assert custom.to_dict()["drift_threshold"] == 0.125

    def test_validation(self):
        with pytest.raises(ValidationError):
            EngineConfig(drift_threshold=-0.1)
        with pytest.raises(ValidationError):
            EngineConfig(drift_threshold=float("inf"))

    def test_from_engine_captures_threshold(self, small_wtp):
        engine = EngineConfig(drift_threshold=0.3).build(small_wtp)
        assert EngineConfig.from_engine(engine).drift_threshold == 0.3

    def test_old_payloads_default(self):
        payload = EngineConfig().to_dict()
        del payload["drift_threshold"]
        assert EngineConfig.from_dict(payload).drift_threshold == (
            DEFAULT_DRIFT_THRESHOLD
        )
