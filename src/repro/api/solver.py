"""The fit/serve facade: one public entry point for the whole pipeline.

:class:`BundlingSolver` ties the typed configs to the algorithm registry
and the solution artifact::

    from repro.api import BundlingSolver, EngineConfig

    solver = BundlingSolver("mixed_matching", EngineConfig(n_workers=4))
    solution = solver.fit(wtp)            # offline: mine the configuration
    solution.save("menu.json")            # durable artifact

    solution = BundlingSolution.load("menu.json")
    quote = solution.quote(new_user_wtp)  # online: price fresh consumers

``fit`` builds a fresh engine from the :class:`EngineConfig`, runs the
algorithm described by the :class:`AlgorithmSpec`, and packages the result
— configuration, provenance, metrics, trace, timing — as a
:class:`BundlingSolution`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.config import AlgorithmSpec, EngineConfig
from repro.api.solution import BundlingSolution
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.delta import IncrementalMenuPricer, PopulationDelta
from repro.core.evaluation import evaluate
from repro.core.pricing import PricedBundle
from repro.core.revenue import check_drift_threshold
from repro.core.wtp import WTPMatrix
from repro.data.ratings import RatingsDataset
from repro.errors import ValidationError
from repro.utils.validation import check_positive_int

#: Default algorithm: the paper's strongest heuristic (Algorithm 1, mixed).
DEFAULT_ALGORITHM = "mixed_matching"


def _relative_delta(new: float, old: float) -> float:
    """|new − old| relative to the old magnitude (inf when old is 0)."""
    new, old = float(new), float(old)
    if new == old:
        return 0.0
    if old == 0.0:
        return math.inf
    return abs(new - old) / abs(old)


def _finite_or_none(value: float) -> float | None:
    """A JSON-safe drift figure (metadata must stay standard JSON)."""
    return float(value) if math.isfinite(value) else None


def _allocation_ratio(offers, report) -> float | None:
    """Bundle-vs-separate ratio under *report*'s choice-forest allocation.

    The same figure :meth:`BundlingSolution.diagnostics` computes, but from
    ``price × allocated buyers`` per offer instead of the offers' stored
    revenue fields (which some mixed fits record standalone).
    """
    bundle_revenue = sum(
        offer.price * report.buyers_per_offer[offer.bundle]
        for offer in offers
        if offer.bundle.size >= 2
    )
    separate_revenue = sum(
        offer.price * report.buyers_per_offer[offer.bundle]
        for offer in offers
        if offer.bundle.size == 1
    )
    if separate_revenue > 0:
        return float(bundle_revenue / separate_revenue)
    return None


@dataclass(frozen=True)
class RefitReport:
    """Outcome of :meth:`BundlingSolver.refit` across one population delta.

    ``solution`` is the artifact to serve next.  ``mode`` records which
    path produced it: ``"warm"`` — the previous menu re-priced
    incrementally — or ``"cold"`` — revenue drift crossed ``threshold``
    and the solver fell back to a full :meth:`~BundlingSolver.fit` on the
    post-delta population.  The drift figures describe the *warm* candidate
    either way (that is what the decision was made on), so a cold report
    still tells you how far the retained menu had drifted.
    """

    mode: str
    solution: BundlingSolution
    drift: float
    revenue_delta: float
    ratio_delta: float
    threshold: float
    n_added: int
    n_removed: int
    warm_expected_revenue: float
    warm_elapsed: float

    @property
    def is_warm(self) -> bool:
        return self.mode == "warm"

    def __repr__(self) -> str:
        return (
            f"RefitReport(mode={self.mode!r}, drift={self.drift:.4g}, "
            f"threshold={self.threshold:.4g}, +{self.n_added}/-{self.n_removed} users)"
        )


class BundlingSolver:
    """Fit a bundling configuration and return a persistent solution.

    Parameters
    ----------
    algorithm:
        An :class:`AlgorithmSpec`, a registry name string, or a spec payload
        dict (default ``"mixed_matching"``).
    engine_config:
        An :class:`EngineConfig` (default: the Table 3 defaults — step
        adoption, 100 price levels, θ=0, streaming backends).
    """

    def __init__(
        self,
        algorithm=DEFAULT_ALGORITHM,
        engine_config: EngineConfig | None = None,
    ) -> None:
        self.algorithm_spec = AlgorithmSpec.coerce(algorithm)
        if engine_config is None:
            engine_config = EngineConfig()
        elif isinstance(engine_config, dict):
            engine_config = EngineConfig.from_dict(engine_config)
        elif not isinstance(engine_config, EngineConfig):
            raise ValidationError(
                "engine_config must be an EngineConfig or dict, got "
                f"{type(engine_config).__name__}"
            )
        self.engine_config = engine_config

    def fit(
        self,
        wtp,
        metadata: dict | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 1,
    ) -> BundlingSolution:
        """Mine a configuration for *wtp* and package it as a solution.

        ``wtp`` is anything :class:`WTPMatrix` accepts (matrix, dense array,
        SciPy sparse); malformed input — non-finite or negative entries,
        ragged rows — raises :class:`ValidationError` before any pricing
        runs.  ``metadata`` is carried verbatim into the solution (merged
        over the fitted population's dimensions).

        With ``checkpoint_path`` set, the fit persists a restartable
        checkpoint every ``checkpoint_every`` completed iterations (see
        :mod:`repro.api.checkpoint`); a crashed fit restarts from the last
        one via :meth:`resume` and produces the identical solution.
        """
        if not isinstance(wtp, WTPMatrix):
            wtp = WTPMatrix(wtp)
        return self.fit_engine(
            self.engine_config.build(wtp),
            metadata=metadata,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    def fit_engine(
        self,
        engine,
        metadata: dict | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 1,
    ) -> BundlingSolution:
        """:meth:`fit` on a pre-built engine (reusing its pricing caches).

        The engine must come from this solver's :class:`EngineConfig`
        (build it with ``solver.engine_config.build(wtp)``) — the config is
        recorded as the solution's provenance, so a mismatched engine would
        make ``quote`` rebuild a different serving engine than the fit ran
        on.  That contract is verified: a mismatch raises
        :class:`ValidationError` instead of silently recording wrong
        provenance.  Useful when several solvers share one engine (e.g.
        the CLI fits the main algorithm and the Components baseline on the
        same engine, so singleton pricings are computed once).
        """
        self._check_engine_provenance(engine)
        algorithm = self.algorithm_spec.build()
        self._arm_checkpointing(algorithm, checkpoint_path, checkpoint_every)
        result = algorithm.fit(engine)
        stamped = {"fit_n_users": engine.n_users, "fit_n_items": engine.n_items}
        stamped.update(metadata or {})
        return BundlingSolution.from_result(
            result, self.engine_config, self.algorithm_spec, metadata=stamped
        )

    def _arm_checkpointing(self, algorithm, checkpoint_path, checkpoint_every) -> None:
        """Install the checkpoint knobs on a freshly built algorithm.

        Set as instance attributes (the class defaults are ``None``/1), so
        registry-validated constructor signatures stay untouched and two
        solvers never share checkpoint state.
        """
        if checkpoint_path is None:
            if checkpoint_every != 1:
                raise ValidationError(
                    "checkpoint_every requires a checkpoint_path"
                )
            return
        algorithm.checkpoint_path = Path(checkpoint_path)
        algorithm.checkpoint_every = check_positive_int(
            checkpoint_every, "checkpoint_every"
        )
        algorithm._checkpoint_provenance = (self.engine_config, self.algorithm_spec)

    @classmethod
    def resume(cls, checkpoint_path, wtp, metadata: dict | None = None) -> BundlingSolution:
        """Restart a checkpointed fit from its last completed iteration.

        ``wtp`` must be the same population the original fit ran on (array
        shapes are verified; content is the caller's contract, like any
        serving alignment).  The solver, engine, and algorithm are rebuilt
        from the provenance stored in the checkpoint, checkpointing
        continues to the same path at the recorded cadence, and the
        finished solution is identical to the uninterrupted fit's —
        including its provenance payloads — so resuming is invisible
        downstream.
        """
        from repro.api.checkpoint import FitCheckpoint

        checkpoint = FitCheckpoint.load(checkpoint_path)
        solver = cls(
            AlgorithmSpec.from_dict(checkpoint.algorithm_spec),
            EngineConfig.from_dict(checkpoint.engine_config),
        )
        if not isinstance(wtp, WTPMatrix):
            wtp = WTPMatrix(wtp)
        engine = solver.engine_config.build(wtp)
        algorithm = solver.algorithm_spec.build()
        checkpoint.check_algorithm(algorithm)
        checkpoint.check_population(engine.n_users)
        solver._arm_checkpointing(
            algorithm, checkpoint_path, checkpoint.checkpoint_every
        )
        algorithm._resume_from = checkpoint
        result = algorithm.fit(engine)
        stamped = {"fit_n_users": engine.n_users, "fit_n_items": engine.n_items}
        stamped.update(metadata or {})
        return BundlingSolution.from_result(
            result, solver.engine_config, solver.algorithm_spec, metadata=stamped
        )

    # ------------------------------------------------------------------ churn
    def refit(
        self,
        solution: BundlingSolution,
        wtp,
        delta,
        *,
        drift_threshold: float | None = None,
    ) -> RefitReport:
        """Advance a fitted solution across a population delta.

        ``wtp`` is the population *solution* was fitted on (pre-delta);
        ``delta`` is a :class:`~repro.core.delta.PopulationDelta` or its
        dict form.  The warm path re-prices the retained menu — O(menu · M)
        instead of the full fit's pair rescan — and its prices, revenues,
        and buyer counts are bit-identical to re-pricing the same menu cold
        on the post-delta population (pure strategies re-price each offer
        with the one pure pricer, from raw-WTP vectors carried across the
        delta; mixed strategies retain their fitted prices and re-evaluate
        buyers and revenue through the exact choice forest).

        The warm candidate's revenue drift — the larger of the relative
        expected-revenue change and the relative change of the
        bundle-vs-separate revenue ratio versus *solution* — is then
        compared against ``drift_threshold`` (default: the
        :class:`EngineConfig`'s).  At or below the threshold the warm menu
        ships; above it the menu's *structure* is presumed stale and the
        solver falls back to exactly ``self.fit(new_wtp)``, so the cold
        artifact is fingerprint-identical to a from-scratch fit on the
        post-delta population.

        The solver's provenance must match the solution's (same
        :class:`EngineConfig` and :class:`AlgorithmSpec`) — otherwise the
        cold fallback would not reproduce the original pipeline.
        """
        if isinstance(delta, dict):
            delta = PopulationDelta.from_dict(delta)
        if not isinstance(delta, PopulationDelta):
            raise ValidationError(
                f"delta must be a PopulationDelta or dict, got {type(delta).__name__}"
            )
        if not isinstance(solution, BundlingSolution):
            raise ValidationError(
                f"refit expects a BundlingSolution, got {type(solution).__name__}"
            )
        if solution.engine_config != self.engine_config:
            raise ValidationError(
                "refit solution was fitted under a different EngineConfig than "
                "this solver's; rebuild the solver from the solution's provenance "
                "(BundlingSolver(solution.algorithm_spec, solution.engine_config))"
            )
        if solution.algorithm_spec != self.algorithm_spec:
            raise ValidationError(
                "refit solution was fitted by a different algorithm than this "
                "solver's; rebuild the solver from the solution's provenance"
            )
        threshold = (
            self.engine_config.drift_threshold
            if drift_threshold is None
            else check_drift_threshold(drift_threshold)
        )
        if not isinstance(wtp, WTPMatrix):
            wtp = WTPMatrix(wtp)
        if wtp.n_items != solution.n_items:
            raise ValidationError(
                f"refit WTP has {wtp.n_items} items; the solution was fitted "
                f"on {solution.n_items}"
            )
        started = time.perf_counter()
        engine = self.engine_config.build(wtp)
        delta.check(engine.n_users, engine.n_items)
        if solution.strategy == "pure":
            # Fitted pure offers already carry allocation revenue, so the
            # pre-delta ratio comes straight off the solution.
            old_ratio = solution.diagnostics()["bundle_vs_separate_ratio"]
            menu = [offer.bundle for offer in solution.offers]
            pricer = IncrementalMenuPricer(engine, menu)
            added = delta.added_matrix(engine.wtp)
            engine.apply_delta(delta)
            pricer.apply(delta, added)
            offers = tuple(pricer.price(offer.bundle) for offer in solution.offers)
            configuration = PureConfiguration(offers, solution.n_items)
            report = evaluate(configuration, engine, n_runs=0)
        else:
            # Some mixed fits record *standalone* offer revenues (what each
            # bundle would earn priced alone), not the choice-forest
            # allocation the warm side rebuilds — comparing those two ratio
            # flavors would register huge phantom drift on a tiny delta.
            # Re-derive the pre-delta ratio from the same allocation
            # semantics before the population advances.
            pre_report = evaluate(solution.configuration, engine, n_runs=0)
            old_ratio = _allocation_ratio(solution.offers, pre_report)
            engine.apply_delta(delta)
            # Mixed menus keep their fitted prices; the exact choice forest
            # re-distributes the post-delta population over them, and each
            # offer's revenue/buyers fields are rebuilt from that outcome.
            report = evaluate(solution.configuration, engine, n_runs=0)
            offers = tuple(
                PricedBundle(
                    offer.bundle,
                    offer.price,
                    offer.price * report.buyers_per_offer[offer.bundle],
                    report.buyers_per_offer[offer.bundle],
                )
                for offer in solution.offers
            )
            configuration = MixedConfiguration(offers, solution.n_items)
        revenue_delta = _relative_delta(report.expected_revenue, solution.expected_revenue)
        warm_elapsed = time.perf_counter() - started
        warm_metadata = {
            "fit_n_users": engine.n_users,
            "fit_n_items": engine.n_items,
            "refit": {
                "mode": "warm",
                "base_fingerprint": solution.fingerprint(),
                "n_added": delta.n_added,
                "n_removed": delta.n_removed,
                "drift_threshold": threshold,
            },
        }
        warm_solution = BundlingSolution(
            configuration=configuration,
            engine_config=self.engine_config,
            algorithm_spec=self.algorithm_spec,
            algorithm=solution.algorithm,
            strategy=solution.strategy,
            expected_revenue=float(report.expected_revenue),
            coverage=float(report.coverage),
            trace=(),
            wall_time=warm_elapsed,
            metadata=warm_metadata,
        )
        new_ratio = warm_solution.diagnostics()["bundle_vs_separate_ratio"]
        if old_ratio is None and new_ratio is None:
            ratio_delta = 0.0
        elif old_ratio is None or new_ratio is None:
            # The menu's revenue composition changed category (e.g. single-item
            # revenue vanished) — structural drift, always above threshold.
            ratio_delta = math.inf
        else:
            ratio_delta = _relative_delta(new_ratio, old_ratio)
        drift = max(revenue_delta, ratio_delta)
        warm_solution.metadata["refit"].update(
            drift=_finite_or_none(drift),
            revenue_delta=_finite_or_none(revenue_delta),
            ratio_delta=_finite_or_none(ratio_delta),
        )
        if drift > threshold:
            # Cold fallback: exactly fit() on the post-delta population, so
            # the artifact (and its fingerprint) is indistinguishable from a
            # from-scratch fit.  Refit provenance stays on the report.
            final = self.fit(engine.wtp)
            mode = "cold"
        else:
            final = warm_solution
            mode = "warm"
        return RefitReport(
            mode=mode,
            solution=final,
            drift=drift,
            revenue_delta=revenue_delta,
            ratio_delta=ratio_delta,
            threshold=threshold,
            n_added=delta.n_added,
            n_removed=delta.n_removed,
            warm_expected_revenue=float(report.expected_revenue),
            warm_elapsed=warm_elapsed,
        )

    def _check_engine_provenance(self, engine) -> None:
        """Raise unless *engine* is what ``engine_config.build(wtp)`` yields.

        Both sides are normalized to :meth:`EngineConfig.from_engine` form
        and compared by dataclass equality, so a future config field is
        covered automatically rather than silently excluded.
        """
        from dataclasses import replace

        config = self.engine_config
        captured = EngineConfig.from_engine(engine)  # raises for exotic engines
        # A None state_dtype (the engine-side default) is satisfied by the
        # float64 the engine carries.
        normalized = replace(config, state_dtype=config.state_dtype or "float64")
        if normalized != captured:
            raise ValidationError(
                "fit_engine got an engine that does not match this solver's "
                f"EngineConfig (engine: {captured}; config: {config}); build "
                "it with solver.engine_config.build(wtp) or use fit()"
            )

    def fit_ratings(
        self,
        dataset: RatingsDataset,
        conversion: float | None = None,
        metadata: dict | None = None,
    ) -> BundlingSolution:
        """Convenience: ratings → WTP (Section 6.1.1 mapping) → :meth:`fit`."""
        from repro.data.wtp_mapping import DEFAULT_LAMBDA, wtp_from_ratings

        conversion = DEFAULT_LAMBDA if conversion is None else conversion
        wtp = wtp_from_ratings(dataset, conversion=conversion)
        stamped = {"conversion": float(conversion)}
        stamped.update(metadata or {})
        return self.fit(wtp, metadata=stamped)

    def __repr__(self) -> str:
        return (
            f"BundlingSolver(algorithm={self.algorithm_spec.name!r}, "
            f"engine_config={self.engine_config!r})"
        )
