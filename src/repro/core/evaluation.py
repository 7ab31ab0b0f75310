"""Configuration evaluation: the metrics of Section 6.1.2.

* **Revenue coverage** — achieved revenue divided by the aggregate
  willingness to pay in ``W`` (the revenue upper bound).
* **Revenue gain** — fractional gain over the Components baseline.

For deterministic (step) adoption the expected revenue is exact.  For
stochastic adoption the paper "averages revenues across ten runs"; the
:func:`evaluate` helper supports both the closed-form expectation and the
Monte-Carlo average of realized revenues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bundle import Bundle
from repro.core.choice import sample_forest
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.revenue import RevenueEngine
from repro.errors import ValidationError
from repro.utils.rng import spawn_rngs

#: Paper convention (Section 6.2): "we average revenues across ten runs".
DEFAULT_STOCHASTIC_RUNS = 10


@dataclass(frozen=True)
class EvaluationReport:
    """Revenue metrics for one configuration under one engine."""

    expected_revenue: float
    coverage: float
    realized_revenues: tuple[float, ...]
    buyers_per_offer: dict[Bundle, float]

    @property
    def realized_mean(self) -> float:
        if not self.realized_revenues:
            return self.expected_revenue
        return float(np.mean(self.realized_revenues))

    @property
    def realized_std(self) -> float:
        if len(self.realized_revenues) < 2:
            return 0.0
        return float(np.std(self.realized_revenues, ddof=1))


def revenue_gain(revenue: float, components_revenue: float) -> float:
    """Fractional gain over Components (Section 6.1.2)."""
    if components_revenue <= 0:
        raise ValidationError("components revenue must be positive to compute gain")
    return (revenue - components_revenue) / components_revenue


def expected_pure_revenue(config: PureConfiguration, engine: RevenueEngine) -> tuple[float, dict[Bundle, float]]:
    """Exact expected revenue of a pure configuration (disjoint offers)."""
    total, buyers, _payments = _pure_pass(config, engine, with_payments=False)
    return total, buyers


def expected_pure_outcome(
    config: PureConfiguration, engine: RevenueEngine
) -> tuple[float, dict[Bundle, float], np.ndarray]:
    """:func:`expected_pure_revenue` plus per-user expected payments.

    Offers are disjoint, so each consumer's expected payment is the sum of
    ``price · P(adopt)`` over the offers.  Both functions run the same
    single pass (the payments accumulation never feeds the revenue total,
    so the revenue's float result is identical), which is what keeps the
    serving path (:meth:`repro.api.BundlingSolution.quote`) bit-exact with
    the fitted expected revenue.
    """
    total, buyers, payments = _pure_pass(config, engine, with_payments=True)
    assert payments is not None
    return total, buyers, payments


def _pure_pass(
    config: PureConfiguration, engine: RevenueEngine, with_payments: bool
) -> tuple[float, dict[Bundle, float], np.ndarray | None]:
    """One pass over the disjoint offers; payments accumulated on demand."""
    total = 0.0
    buyers: dict[Bundle, float] = {}
    payments = np.zeros(engine.n_users) if with_payments else None
    for offer in config.offers:
        if offer.price <= 0:
            buyers[offer.bundle] = 0.0
            continue
        probs = engine.adoption.probability(engine.bundle_wtp(offer.bundle), offer.price)
        count = float(probs.sum())
        buyers[offer.bundle] = count
        total += offer.price * count
        if payments is not None:
            payments += offer.price * probs
    return total, buyers, payments


def sample_pure_revenue(config: PureConfiguration, engine: RevenueEngine, rng) -> float:
    """One realized revenue draw (independent Bernoulli adoptions)."""
    total = 0.0
    for offer in config.offers:
        if offer.price <= 0:
            continue
        adopted = engine.adoption.sample(engine.bundle_wtp(offer.bundle), offer.price, rng)
        total += offer.price * float(np.count_nonzero(adopted))
    return total


def expected_mixed_revenue(
    config: MixedConfiguration, engine: RevenueEngine
) -> tuple[float, dict[Bundle, float]]:
    """Expected revenue of a mixed configuration via the choice model.

    Exact for both deterministic (forest DP) and stochastic (closed-form
    antichain MNL) adoption: the configuration's compiled
    :class:`~repro.core.choice.ForestPlan` run on the engine's WTP.
    """
    outcome = config.plan().evaluate(engine.wtp, engine.theta, engine.adoption)
    return outcome.revenue, outcome.buyers_per_offer


def sample_mixed_revenue(config: MixedConfiguration, engine: RevenueEngine, rng) -> float:
    """One realized revenue draw (exact top-down multinomial-logit sampling)."""
    outcome = sample_forest(config.forest(), engine.bundle_wtp, engine.adoption, rng)
    return outcome.revenue


def evaluate(
    config: PureConfiguration | MixedConfiguration,
    engine: RevenueEngine,
    n_runs: int | None = None,
    seed=None,
) -> EvaluationReport:
    """Full evaluation of a configuration.

    ``n_runs`` controls the Monte-Carlo averaging for stochastic adoption
    (defaults to the paper's ten runs; forced to 0 under deterministic
    adoption, where the expectation is exact and sampling is pointless).
    """
    if isinstance(config, PureConfiguration):
        expected, buyers = expected_pure_revenue(config, engine)
        sampler = lambda r: sample_pure_revenue(config, engine, r)  # noqa: E731
    elif isinstance(config, MixedConfiguration):
        expected, buyers = expected_mixed_revenue(config, engine)
        sampler = lambda r: sample_mixed_revenue(config, engine, r)  # noqa: E731
    else:
        raise ValidationError(f"cannot evaluate object of type {type(config).__name__}")

    if engine.adoption.is_deterministic:
        runs: tuple[float, ...] = ()
    else:
        count = DEFAULT_STOCHASTIC_RUNS if n_runs is None else int(n_runs)
        runs = tuple(sampler(rng) for rng in spawn_rngs(seed, count))
    return EvaluationReport(
        expected_revenue=expected,
        coverage=engine.coverage(expected),
        realized_revenues=runs,
        buyers_per_offer=buyers,
    )
