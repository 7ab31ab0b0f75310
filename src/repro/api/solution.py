"""Persistent bundling solutions: fit once, serve many.

The paper's setting (DoLW15) is exactly fit-once/serve-many — the seller
mines the revenue-maximizing configuration *offline*, then prices consumers
against it *online*.  Before this module a computed configuration lived and
died with the Python process; :class:`BundlingSolution` makes it a durable
artifact:

* the **configuration** itself (offers and prices, pure or mixed);
* the **provenance** — the :class:`~repro.api.config.EngineConfig` and
  :class:`~repro.api.config.AlgorithmSpec` that produced it;
* the **evaluation** — expected revenue and coverage on the fitted
  population, the per-iteration trace, and wall-clock timing.

Serialization is lossless: prices, revenues, and buyer counts are stored as
``float.hex`` strings next to their human-readable decimal forms, so a
``save``/``load`` round-trip is bit-exact and a reloaded solution
reproduces the fitted expected revenue to the last ulp.

Serving runs through :meth:`BundlingSolution.quote`: hand it the WTP rows
of *new* consumers and it prices them against the frozen configuration via
the existing choice/evaluation kernels — no bundling algorithm runs, the
menu is fixed, only the consumers change.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.config import AlgorithmSpec, EngineConfig
from repro.core.bundle import Bundle
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.evaluation import EvaluationReport, evaluate
from repro.core.pricing import PricedBundle
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.errors import ReproError, ValidationError

#: Version tag of the JSON layout; bump on incompatible changes.
SOLUTION_FORMAT_VERSION = 5

#: Strategy tags (mirrors :data:`repro.algorithms.base.STRATEGIES`).
_PURE = "pure"
_MIXED = "mixed"


def _float_fields(value: float, name: str) -> dict:
    """A float as decimal (readable) + hex (bit-exact) JSON fields."""
    value = float(value)
    return {name: value, f"{name}_hex": value.hex()}


def _read_float(payload: dict, name: str) -> float:
    """Read a float field, preferring the bit-exact hex form.

    When both forms are present they must agree (the decimal is the exact
    shortest-repr of the same float), so a hand-edit to the readable field
    fails loudly instead of being silently overridden by the stale hex.
    """
    hex_value = payload.get(f"{name}_hex")
    if hex_value is not None:
        value = float.fromhex(hex_value)
        if name in payload and float(payload[name]) != value:
            raise ValidationError(
                f"solution field {name!r} disagrees with {name}_hex "
                f"({payload[name]!r} vs {value!r}); edit both or drop the hex"
            )
        return value
    if name not in payload:
        raise ValidationError(f"solution payload is missing the {name!r} field")
    return float(payload[name])


@dataclass(frozen=True, eq=False)
class QuoteResult:
    """Outcome of pricing one batch of consumers against a fixed menu.

    ``revenue`` is computed through the same evaluation path as
    :func:`repro.core.evaluation.evaluate`, so quoting the fitted
    population reproduces the solution's expected revenue bit-exactly.
    ``payments`` is the per-consumer expected payment (the serving
    payload: what each quoted user is expected to spend, exact under step
    adoption); its sum equals ``revenue`` up to float accumulation order
    (exactly, for mixed configurations).
    """

    payments: np.ndarray
    revenue: float
    coverage: float
    buyers_per_offer: dict[Bundle, float]

    @property
    def n_users(self) -> int:
        return int(self.payments.size)

    @property
    def revenue_per_user(self) -> float:
        if self.n_users == 0:
            return 0.0
        return self.revenue / self.n_users

    def __repr__(self) -> str:
        return (
            f"QuoteResult(n_users={self.n_users}, revenue={self.revenue:.2f}, "
            f"coverage={self.coverage:.1%})"
        )


@dataclass
class BundlingSolution:
    """A fitted bundle menu with provenance, metrics, and serving methods."""

    configuration: PureConfiguration | MixedConfiguration
    engine_config: EngineConfig
    algorithm_spec: AlgorithmSpec
    algorithm: str
    strategy: str
    expected_revenue: float
    coverage: float
    trace: tuple = ()
    wall_time: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = _MIXED if isinstance(self.configuration, MixedConfiguration) else _PURE
        if not isinstance(self.configuration, (PureConfiguration, MixedConfiguration)):
            raise ValidationError(
                "configuration must be a PureConfiguration or MixedConfiguration, "
                f"got {type(self.configuration).__name__}"
            )
        if self.strategy != expected:
            raise ValidationError(
                f"strategy {self.strategy!r} does not match a "
                f"{type(self.configuration).__name__}"
            )

    # ----------------------------------------------------------- construction
    @classmethod
    def from_result(
        cls,
        result,
        engine_config: EngineConfig,
        algorithm_spec: AlgorithmSpec,
        metadata: dict | None = None,
    ) -> "BundlingSolution":
        """Package a :class:`~repro.algorithms.base.BundlingResult`."""
        return cls(
            configuration=result.configuration,
            engine_config=engine_config,
            algorithm_spec=algorithm_spec,
            algorithm=result.algorithm,
            strategy=result.strategy,
            expected_revenue=result.expected_revenue,
            coverage=result.coverage,
            trace=tuple(result.trace),
            wall_time=result.wall_time,
            metadata=dict(metadata or {}),
        )

    @property
    def n_items(self) -> int:
        return self.configuration.n_items

    @property
    def offers(self) -> tuple[PricedBundle, ...]:
        return self.configuration.offers

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    def diagnostics(self) -> dict:
        """Revenue-composition diagnostics of the fitted menu (computed, not
        persisted — the JSON layout is unchanged).

        The headline field is the Kupfer-style bundle-vs-separate revenue
        ratio ("A Note on the Ratio of Revenues Between Selling in a Bundle
        and Separately", Kupfer 2018, arXiv:1611.09613): expected revenue
        earned by multi-item bundle offers over expected revenue earned by
        separately sold single items *of the same menu*.  ``None`` when the
        menu has no single-item revenue to compare against (e.g. full-bundle
        configurations); ``bundle_revenue_share`` — bundle revenue over total
        — is always defined on a revenue-positive menu.  Serving surfaces the
        ratio as the ``repro_solution_bundle_vs_separate_ratio`` gauge.
        """
        offers = self.configuration.offers
        bundle_revenue = sum(o.revenue for o in offers if o.bundle.size >= 2)
        separate_revenue = sum(o.revenue for o in offers if o.bundle.size == 1)
        total = bundle_revenue + separate_revenue
        sizes = [o.bundle.size for o in offers]
        return {
            "bundle_revenue": float(bundle_revenue),
            "separate_revenue": float(separate_revenue),
            "bundle_vs_separate_ratio": (
                float(bundle_revenue / separate_revenue)
                if separate_revenue > 0 else None
            ),
            "bundle_revenue_share": float(bundle_revenue / total) if total > 0 else None,
            "n_bundle_offers": sum(1 for s in sizes if s >= 2),
            "n_single_offers": sum(1 for s in sizes if s == 1),
            "max_bundle_size": max(sizes, default=0),
            "mean_bundle_size": float(np.mean(sizes)) if sizes else 0.0,
        }

    # ---------------------------------------------------------------- serving
    def quote(self, wtp) -> QuoteResult:
        """Price a batch of (new) consumers against this frozen menu.

        ``wtp`` is anything :class:`WTPMatrix` accepts — its columns must
        be this solution's item catalogue: the same items, in the same
        order, on the same WTP scale as the fit (e.g. the same ratings
        conversion λ and item prices).  Only the column *count* is
        verifiable here — a WTP matrix carries no item identity — so
        catalogue alignment is the caller's contract, exactly like feature
        alignment when serving any fitted model.  A serving engine is rebuilt
        from the stored :class:`EngineConfig` (same θ, adoption model, and
        backends as the fit), the configuration's offers keep their fitted
        prices, and consumers choose via the exact choice model — no
        bundling algorithm runs.
        """
        if not isinstance(wtp, WTPMatrix):
            wtp = WTPMatrix(wtp)
        if wtp.n_items != self.n_items:
            raise ValidationError(
                f"quote WTP has {wtp.n_items} items; the solution was fitted "
                f"on {self.n_items}"
            )
        engine = self.engine_config.build(wtp)
        outcome = self.configuration.plan().evaluate(
            engine.wtp, engine.theta, engine.adoption
        )
        revenue = self.configuration.revenue(outcome)
        return QuoteResult(
            payments=outcome.payments,
            revenue=revenue,
            coverage=engine.coverage(revenue),
            buyers_per_offer=outcome.buyers_per_offer,
        )

    def serving_state(self):
        """A warm :class:`~repro.serving.state.ServingState` over this menu.

        Precomputes everything :meth:`quote` rebuilds per call (adoption
        model, compiled offer forest, fingerprint) so repeated
        quoting — in particular the :class:`~repro.serving.server.QuoteServer`
        micro-batch path — skips the per-call setup while answering
        bit-identically to :meth:`quote`.
        """
        from repro.serving.state import ServingState

        return ServingState(self)

    def evaluate(
        self, engine: RevenueEngine, n_runs: int | None = None, seed=None
    ) -> EvaluationReport:
        """Full :func:`repro.core.evaluation.evaluate` of the stored menu."""
        return evaluate(self.configuration, engine, n_runs=n_runs, seed=seed)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        offers = []
        for offer in self.configuration.offers:
            entry = {"items": [int(item) for item in offer.bundle.items]}
            entry.update(_float_fields(offer.price, "price"))
            entry.update(_float_fields(offer.revenue, "revenue"))
            entry.update(_float_fields(offer.buyers, "buyers"))
            offers.append(entry)
        metrics = {}
        metrics.update(_float_fields(self.expected_revenue, "expected_revenue"))
        metrics.update(_float_fields(self.coverage, "coverage"))
        return {
            "format_version": SOLUTION_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "strategy": self.strategy,
            "n_items": self.n_items,
            "engine_config": self.engine_config.to_dict(),
            "algorithm_spec": self.algorithm_spec.to_dict(),
            "offers": offers,
            "metrics": metrics,
            "trace": [
                {
                    "index": record.index,
                    "revenue": record.revenue,
                    "elapsed": record.elapsed,
                    "n_top_bundles": record.n_top_bundles,
                    "merges": record.merges,
                }
                for record in self.trace
            ],
            "wall_time": self.wall_time,
            "metadata": dict(self.metadata),
        }

    def canonical_dict(self) -> dict:
        """:meth:`to_dict` with the nondeterministic timing fields zeroed.

        Two fits of the same input under the same configuration produce
        equal canonical dicts even though their wall-clock measurements
        differ — the basis of :meth:`fingerprint`.
        """
        payload = self.to_dict()
        payload["wall_time"] = 0.0
        for record in payload["trace"]:
            record["elapsed"] = 0.0
        return payload

    def fingerprint(self) -> str:
        """SHA-256 over the canonical (timing-free) JSON form.

        Equal fingerprints mean bit-identical solutions — same offers,
        prices, provenance, metrics, and trace revenues — up to wall-clock
        timing.  Used by the resilience tests to pin that degraded and
        resumed fits reproduce the uninterrupted result exactly.
        """
        text = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, payload: dict) -> "BundlingSolution":
        from repro.algorithms.base import IterationRecord

        if not isinstance(payload, dict):
            raise ValidationError(
                f"solution payload must be a dict, got {type(payload).__name__}"
            )
        version = payload.get("format_version")
        if version != SOLUTION_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported solution format_version {version!r} "
                f"(this build reads {SOLUTION_FORMAT_VERSION})"
            )
        known = {
            "format_version",
            "fingerprint",
            "algorithm",
            "strategy",
            "n_items",
            "engine_config",
            "algorithm_spec",
            "offers",
            "metrics",
            "trace",
            "wall_time",
            "metadata",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(f"unknown solution keys: {', '.join(unknown)}")
        strategy = payload.get("strategy")
        if strategy not in (_PURE, _MIXED):
            raise ValidationError(f"solution strategy must be pure or mixed, got {strategy!r}")
        try:
            offers = tuple(
                PricedBundle(
                    Bundle(entry["items"]),
                    _read_float(entry, "price"),
                    _read_float(entry, "revenue"),
                    _read_float(entry, "buyers"),
                )
                for entry in payload["offers"]
            )
            n_items = int(payload["n_items"])
            if strategy == _PURE:
                configuration = PureConfiguration(offers, n_items)
            else:
                configuration = MixedConfiguration(offers, n_items)
            metrics = payload.get("metrics") or {}
            return cls(
                configuration=configuration,
                engine_config=EngineConfig.from_dict(payload["engine_config"]),
                algorithm_spec=AlgorithmSpec.from_dict(payload["algorithm_spec"]),
                algorithm=str(payload["algorithm"]),
                strategy=strategy,
                expected_revenue=_read_float(metrics, "expected_revenue"),
                coverage=_read_float(metrics, "coverage"),
                trace=tuple(
                    IterationRecord(
                        index=int(record["index"]),
                        revenue=float(record["revenue"]),
                        elapsed=float(record["elapsed"]),
                        n_top_bundles=int(record["n_top_bundles"]),
                        merges=int(record["merges"]),
                    )
                    for record in payload.get("trace", [])
                ),
                wall_time=float(payload.get("wall_time", 0.0)),
                metadata=dict(payload.get("metadata") or {}),
            )
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            # Structurally malformed payloads (wrong entry types, missing
            # fields) funnel into one error type callers can rely on.
            raise ValidationError(f"malformed solution payload: {exc!r}") from exc

    @staticmethod
    def _verify_fingerprint(payload: dict, solution: "BundlingSolution") -> None:
        """Tamper check: the persisted fingerprint must match the content.

        :meth:`save` stamps the canonical-content fingerprint into the
        file; loading recomputes it from the reconstructed solution (the
        hex float fields make the round trip bit-exact) and rejects any
        mismatch — a corrupted or hand-edited artifact must fail loudly
        here, not serve silently wrong prices later.  Artifacts written
        before fingerprints were stamped (no ``fingerprint`` key) load
        unchanged.
        """
        stored = payload.get("fingerprint")
        if stored is None:
            return
        recomputed = solution.fingerprint()
        if stored != recomputed:
            raise ValidationError(
                "solution fingerprint mismatch: file says "
                f"{str(stored)[:16]}..., content hashes to {recomputed[:16]}... "
                "— the artifact was modified after it was saved"
            )

    def save(self, path) -> Path:
        """Write the solution as JSON (bit-exact round trip); returns the path.

        The write is atomic (temp file + rename), so a failure mid-write
        never leaves a truncated file over a previously valid artifact.
        """
        document = self.to_dict()
        try:
            # Stamped at save time (not in to_dict) so the fingerprint hashes
            # the content without hashing itself; load() verifies the match.
            document["fingerprint"] = self.fingerprint()
            payload = json.dumps(document, indent=1)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            # Almost always non-JSON metadata (e.g. a datetime); fail with
            # the same error type as every other payload problem.
            raise ValidationError(
                f"solution is not JSON-serializable: {exc}"
            ) from exc
        path = Path(path)
        scratch = path.with_name(path.name + ".tmp")
        try:
            scratch.write_text(payload + "\n")
            os.replace(scratch, path)
        finally:
            scratch.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path) -> "BundlingSolution":
        """Inverse of :meth:`save`, with fingerprint tamper verification."""
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"solution file is not valid JSON: {exc}") from exc
        solution = cls.from_dict(payload)
        cls._verify_fingerprint(payload, solution)
        return solution

    def __repr__(self) -> str:
        return (
            f"BundlingSolution({self.algorithm}/{self.strategy}, "
            f"{len(self.configuration)} offers over {self.n_items} items, "
            f"expected_revenue={self.expected_revenue:.2f})"
        )
