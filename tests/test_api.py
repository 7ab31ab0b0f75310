"""Tests for the public fit/serve API (``repro.api``).

Covers the typed configs' validation and round-trips, the solver facade,
and — the load-bearing guarantee — that a :class:`BundlingSolution`
survives JSON persistence *bit-exactly*: prices, revenues, and the
expected revenue reproduced by ``quote``/``evaluate`` after a save/load
cycle are identical to the fitted values, for both a pure and a mixed
(sorted-kernel) solution.
"""

import json

import numpy as np
import pytest

from repro.api import (
    AdoptionSpec,
    AlgorithmSpec,
    BundlingSolution,
    BundlingSolver,
    EngineConfig,
    FitCheckpoint,
    QuoteResult,
)
from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.revenue import RevenueEngine
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings
from repro.errors import CheckpointError, ValidationError


@pytest.fixture(scope="module")
def wtp():
    dataset = amazon_books_like(
        n_users=120, n_items=16, seed=3, min_ratings_per_user=4, kcore=4
    )
    return wtp_from_ratings(dataset)


@pytest.fixture(scope="module")
def held_out(wtp):
    """A fresh user batch over the same catalogue (every other fitted user)."""
    return wtp.subset_users(range(1, wtp.n_users, 2))


class TestAdoptionSpec:
    def test_round_trip(self):
        spec = AdoptionSpec(kind="sigmoid", gamma=3.0, alpha=1.1, epsilon=1e-6)
        assert AdoptionSpec.from_dict(spec.to_dict()) == spec

    def test_build_and_capture(self):
        step = AdoptionSpec(kind="step", alpha=1.2, epsilon=1e-6).build()
        assert isinstance(step, StepAdoption) and step.alpha == 1.2
        sig = AdoptionSpec(kind="sigmoid", gamma=5.0).build()
        assert isinstance(sig, SigmoidAdoption) and sig.gamma == 5.0
        assert AdoptionSpec.from_model(sig) == AdoptionSpec(kind="sigmoid", gamma=5.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            AdoptionSpec(kind="quantum")
        with pytest.raises(ValidationError):
            AdoptionSpec(kind="sigmoid", gamma=-1.0)
        with pytest.raises(ValidationError):
            AdoptionSpec.from_dict({"kind": "step", "bogus": 1})

    def test_step_normalizes_gamma(self, wtp):
        """Step ignores gamma; value-equal specs must describe equal models,
        so fit() on a step config with a stray gamma must not trip the
        fit_engine provenance check."""
        spec = AdoptionSpec(kind="step", gamma=2.0)
        assert spec == AdoptionSpec(kind="step")
        # Normalization must not bypass validation.
        with pytest.raises(ValidationError):
            AdoptionSpec(kind="step", gamma=-3.0)
        config = EngineConfig(adoption=spec)
        solution = BundlingSolver("components", config).fit(wtp)
        assert solution.expected_revenue > 0

    def test_from_model_rejects_subclasses(self):
        """A subclass may override behaviour the spec cannot describe."""

        class TracingStep(StepAdoption):
            pass

        with pytest.raises(ValidationError, match="TracingStep"):
            AdoptionSpec.from_model(TracingStep())


class TestEngineConfig:
    def test_defaults_build_default_engine(self, wtp):
        engine = EngineConfig().build(wtp)
        assert engine.theta == 0.0
        assert engine.adoption.is_deterministic
        assert engine.grid.n_levels == 100

    def test_round_trip_through_json(self):
        config = EngineConfig(
            theta=0.25,
            n_levels=50,
            adoption=AdoptionSpec(kind="sigmoid", gamma=2.0),
            chunk_elements=12345,
            n_workers=3,
            state_dtype="float32",
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert EngineConfig.from_dict(payload) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            EngineConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("option", [{"executor": "thread"}, {"retry": None}])
    def test_executor_and_retry_are_not_options(self, wtp, option):
        """``n_workers`` alone picks threads or the in-order loop."""
        with pytest.raises(TypeError):
            EngineConfig(**option)
        with pytest.raises(TypeError):
            RevenueEngine(wtp, **option)
        with pytest.raises(ValidationError, match=next(iter(option))):
            EngineConfig.from_dict({**EngineConfig().to_dict(), **option})

    @pytest.mark.parametrize("key", ["precision", "storage", "raw_cache_entries"])
    def test_precision_and_storage_are_not_options(self, wtp, key):
        """W is always dense float64 and raw WTP is never cached across
        scans: none of the old backend knobs exists."""
        with pytest.raises(TypeError):
            EngineConfig(**{key: None})
        with pytest.raises(TypeError):
            RevenueEngine(wtp, **{key: None})
        with pytest.raises(ValidationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict({**EngineConfig().to_dict(), key: None})

    def test_invalid_choices(self):
        with pytest.raises(ValidationError):
            EngineConfig(state_dtype="float16")
        with pytest.raises(ValidationError):
            EngineConfig(theta=-2.0)
        with pytest.raises(ValidationError):
            EngineConfig(n_workers=0)

    def test_from_engine_captures_backends(self, wtp):
        engine = RevenueEngine(
            wtp,
            theta=0.1,
            chunk_elements=9999,
            n_workers=2,
            state_dtype="float32",
        )
        config = EngineConfig.from_engine(engine)
        assert config.theta == 0.1
        assert config.chunk_elements == 9999
        assert config.n_workers == 2
        assert config.state_dtype == "float32"
        rebuilt = config.build(engine.wtp)
        assert rebuilt.state_dtype == engine.state_dtype
        assert rebuilt.chunk_elements == engine.chunk_elements


class TestAlgorithmSpec:
    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            AlgorithmSpec("quantum_bundling")

    def test_unknown_kwargs(self):
        with pytest.raises(ValidationError, match="does not accept"):
            AlgorithmSpec("pure_matching", {"bogus": 1})

    def test_round_trip_and_build(self):
        spec = AlgorithmSpec("pure_greedy", {"k": 3})
        assert AlgorithmSpec.from_dict(spec.to_dict()) == spec
        algorithm = spec.build()
        assert algorithm.name == "pure_greedy"
        assert algorithm.k == 3

    def test_specs_are_hashable(self):
        specs = {AlgorithmSpec("pure_greedy", {"k": 2}), AlgorithmSpec("pure_greedy", {"k": 2})}
        assert len(specs) == 1
        assert hash(AlgorithmSpec("components")) == hash(AlgorithmSpec("components"))

    def test_coerce(self):
        assert AlgorithmSpec.coerce("components") == AlgorithmSpec("components")
        spec = AlgorithmSpec("mixed_greedy", {"k": 2})
        assert AlgorithmSpec.coerce(spec) is spec
        assert AlgorithmSpec.coerce(spec.to_dict()) == spec
        with pytest.raises(ValidationError):
            AlgorithmSpec.coerce(42)

    def test_unserializable_kwargs_fail_to_dict(self):
        spec = AlgorithmSpec("pure_greedy", {"k": object()})  # noqa: valid key, bad value
        with pytest.raises(ValidationError, match="JSON"):
            spec.to_dict()


SOLVE_CASES = {
    # Pure and mixed (the default engine resolves the mixed scans to the
    # sorted step-histogram kernel under step adoption).
    "pure": AlgorithmSpec("pure_greedy"),
    "mixed": AlgorithmSpec("mixed_matching"),
}


@pytest.fixture(scope="module", params=sorted(SOLVE_CASES))
def fitted(request, wtp):
    solution = BundlingSolver(SOLVE_CASES[request.param]).fit(wtp)
    return request.param, solution


class TestSolverAndSolutionRoundTrip:
    def test_fit_produces_solution(self, fitted, wtp):
        strategy, solution = fitted
        assert solution.strategy == strategy
        assert solution.n_items == wtp.n_items
        assert solution.expected_revenue > 0
        assert solution.metadata["fit_n_users"] == wtp.n_users
        expected_type = PureConfiguration if strategy == "pure" else MixedConfiguration
        assert isinstance(solution.configuration, expected_type)

    def test_save_load_is_bit_exact(self, fitted, tmp_path):
        strategy, solution = fitted
        path = tmp_path / f"{strategy}.json"
        solution.save(path)
        loaded = BundlingSolution.load(path)
        assert loaded.expected_revenue.hex() == solution.expected_revenue.hex()
        assert loaded.coverage.hex() == solution.coverage.hex()
        assert [
            (offer.bundle.items, offer.price.hex(), offer.revenue.hex())
            for offer in loaded.offers
        ] == [
            (offer.bundle.items, offer.price.hex(), offer.revenue.hex())
            for offer in solution.offers
        ]
        assert loaded.algorithm_spec == solution.algorithm_spec
        assert loaded.engine_config == solution.engine_config
        assert loaded.trace == tuple(solution.trace)

    def test_quote_fitted_population_reproduces_revenue(self, fitted, wtp, tmp_path):
        strategy, solution = fitted
        path = tmp_path / f"{strategy}.json"
        solution.save(path)
        loaded = BundlingSolution.load(path)
        quote = loaded.quote(wtp)
        assert isinstance(quote, QuoteResult)
        assert quote.revenue.hex() == solution.expected_revenue.hex()
        assert quote.n_users == wtp.n_users
        assert np.all(quote.payments >= 0)

    def test_evaluate_after_load_is_bit_exact(self, fitted, wtp, tmp_path):
        strategy, solution = fitted
        path = tmp_path / f"{strategy}.json"
        solution.save(path)
        loaded = BundlingSolution.load(path)
        engine = loaded.engine_config.build(wtp)
        report = loaded.evaluate(engine)
        assert report.expected_revenue.hex() == solution.expected_revenue.hex()

    def test_quote_fresh_users(self, fitted, held_out, tmp_path):
        """Held-out users are priced deterministically against the fixed menu."""
        strategy, solution = fitted
        path = tmp_path / f"{strategy}.json"
        solution.save(path)
        loaded = BundlingSolution.load(path)
        quote = loaded.quote(held_out)
        again = loaded.quote(held_out)
        assert quote.n_users == held_out.n_users
        assert quote.revenue.hex() == again.revenue.hex()
        assert np.array_equal(quote.payments, again.payments)
        # The batch's revenue equals the stored menu evaluated on the batch.
        engine = loaded.engine_config.build(held_out)
        report = loaded.evaluate(engine)
        assert quote.revenue.hex() == report.expected_revenue.hex()
        # Per-user payments aggregate to the batch revenue.
        assert float(quote.payments.sum()) == pytest.approx(quote.revenue, rel=1e-12)

    def test_quote_never_runs_a_bundling_algorithm(self, fitted, held_out, monkeypatch):
        from repro.algorithms.base import BundlingAlgorithm

        _, solution = fitted

        def boom(self, engine):
            raise AssertionError("quote must not run a bundling algorithm")

        monkeypatch.setattr(BundlingAlgorithm, "fit", boom)
        quote = solution.quote(held_out)
        assert quote.revenue > 0

    def test_quote_rejects_wrong_catalogue(self, fitted, wtp):
        _, solution = fitted
        with pytest.raises(ValidationError, match="items"):
            solution.quote(wtp.subset_items(range(wtp.n_items - 1)))


class TestSolutionPayloadValidation:
    def test_unknown_keys_rejected(self, fitted, tmp_path):
        _, solution = fitted
        payload = solution.to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValidationError, match="surprise"):
            BundlingSolution.from_dict(payload)

    def test_format_version_checked(self, fitted):
        _, solution = fitted
        payload = solution.to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValidationError, match="format_version"):
            BundlingSolution.from_dict(payload)

    @staticmethod
    def _assert_old_format_rejected(wtp, tmp_path, version, legacy_keys):
        ckpt = tmp_path / "fit.ckpt.json"
        solution = BundlingSolver("pure_greedy").fit(wtp, checkpoint_path=ckpt)
        payload = solution.to_dict()
        payload["format_version"] = version
        payload["engine_config"].update(legacy_keys)
        with pytest.raises(
            ValidationError, match=f"solution format_version {version}"
        ):
            BundlingSolution.from_dict(payload)
        payload = json.loads(ckpt.read_text())
        payload["format_version"] = version
        payload["engine_config"].update(legacy_keys)
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(
            CheckpointError, match=f"checkpoint format_version {version}"
        ):
            FitCheckpoint.load(ckpt)

    def test_v1_solution_and_checkpoint_rejected(self, wtp, tmp_path):
        """Format 1 carried ``executor``/``retry`` in ``engine_config``; it
        fails on its version, never as an unknown key or a tampered
        fingerprint."""
        self._assert_old_format_rejected(
            wtp, tmp_path, 1, {"executor": "thread", "retry": None}
        )

    def test_v2_solution_and_checkpoint_rejected(self, wtp, tmp_path):
        """Format 2 carried ``precision``/``storage`` in ``engine_config``;
        it fails on its version, never as an unknown key or a tampered
        fingerprint."""
        self._assert_old_format_rejected(
            wtp, tmp_path, 2, {"precision": "float32", "storage": "sparse"}
        )

    def test_v3_solution_and_checkpoint_rejected(self, wtp, tmp_path):
        """Format 3 carried ``raw_cache_entries`` in ``engine_config``; it
        fails on its version, never as an unknown key or a tampered
        fingerprint."""
        self._assert_old_format_rejected(wtp, tmp_path, 3, {"raw_cache_entries": 64})

    def test_v4_solution_and_checkpoint_rejected(self, wtp, tmp_path):
        """Format 4 carried ``mixed_kernel`` in ``engine_config``; it fails
        on its version, never as an unknown key or a tampered fingerprint."""
        self._assert_old_format_rejected(wtp, tmp_path, 4, {"mixed_kernel": "sorted"})

    def test_strategy_configuration_mismatch(self, fitted):
        _, solution = fitted
        payload = solution.to_dict()
        payload["strategy"] = "neither"
        with pytest.raises(ValidationError):
            BundlingSolution.from_dict(payload)

    def test_malformed_offer_entries_raise_validation_error(self, fitted):
        _, solution = fitted
        payload = solution.to_dict()
        payload["offers"] = ["bogus"]
        with pytest.raises(ValidationError, match="malformed"):
            BundlingSolution.from_dict(payload)

    def test_editing_only_the_decimal_field_fails_loudly(self, fitted):
        """The hex form is authoritative, but a disagreeing decimal edit
        must raise instead of being silently ignored."""
        _, solution = fitted
        payload = solution.to_dict()
        payload["metrics"]["expected_revenue"] = 0.0
        with pytest.raises(ValidationError, match="disagrees"):
            BundlingSolution.from_dict(payload)

    def test_hex_only_and_decimal_only_fields_load(self, fitted):
        _, solution = fitted
        payload = solution.to_dict()
        payload["metrics"].pop("expected_revenue")       # hex only
        for offer in payload["offers"]:
            offer.pop("price_hex")                        # decimal only
        loaded = BundlingSolution.from_dict(payload)
        assert loaded.expected_revenue == solution.expected_revenue
        assert loaded.offers[0].price == solution.offers[0].price


class TestSolverInterface:
    def test_string_and_dict_configs(self, wtp):
        solver = BundlingSolver("components", EngineConfig().to_dict())
        solution = solver.fit(wtp)
        assert solution.algorithm == "components"
        assert len(solution.offers) == wtp.n_items

    def test_fit_ratings(self):
        dataset = amazon_books_like(
            n_users=100, n_items=12, seed=5, min_ratings_per_user=4, kcore=4
        )
        solution = BundlingSolver("components").fit_ratings(dataset, conversion=1.5)
        assert solution.metadata["conversion"] == 1.5
        assert solution.n_items == dataset.n_items

    def test_rejects_bad_engine_config(self):
        with pytest.raises(ValidationError):
            BundlingSolver("components", engine_config=42)

    def test_fit_engine_rejects_mismatched_engine(self, wtp):
        solver = BundlingSolver("components", EngineConfig())
        other = RevenueEngine(wtp, theta=0.5)
        with pytest.raises(ValidationError, match="does not match"):
            solver.fit_engine(other)

    def test_fit_engine_accepts_matching_engine(self, wtp):
        config = EngineConfig(n_workers=2, state_dtype="float32")
        solver = BundlingSolver("components", config)
        engine = config.build(wtp)
        solution = solver.fit_engine(engine)
        assert solution.engine_config == config

    def test_save_rejects_unserializable_metadata(self, wtp, tmp_path):
        solution = BundlingSolver("components").fit(wtp, metadata={"when": object()})
        with pytest.raises(ValidationError, match="JSON"):
            solution.save(tmp_path / "bad.json")

    def test_sigmoid_band_solution_round_trips(self, wtp, tmp_path):
        """A stochastic-adoption solution persists and serves too."""
        config = EngineConfig(adoption=AdoptionSpec(kind="sigmoid", gamma=8.0))
        solution = BundlingSolver("mixed_greedy", config).fit(wtp)
        path = tmp_path / "sigmoid.json"
        solution.save(path)
        loaded = BundlingSolution.load(path)
        quote = loaded.quote(wtp)
        assert quote.revenue.hex() == solution.expected_revenue.hex()
