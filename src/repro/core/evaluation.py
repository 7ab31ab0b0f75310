"""Configuration evaluation: the metrics of Section 6.1.2.

* **Revenue coverage** — achieved revenue divided by the aggregate
  willingness to pay in ``W`` (the revenue upper bound).
* **Revenue gain** — fractional gain over the Components baseline.

Every configuration, pure or mixed, is evaluated by its compiled
:class:`~repro.core.choice.ForestPlan` (a pure menu is a forest of roots),
and its revenue is the configuration's own rule
(:meth:`~repro.core.configuration.PureConfiguration.revenue`).  The
expectation is exact under both adoption models.  For stochastic adoption
the paper "averages revenues across ten runs"; :func:`evaluate` also
reports that Monte-Carlo average of realized revenues.
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
    if not isinstance(config, (PureConfiguration, MixedConfiguration)):
        raise ValidationError(f"cannot evaluate object of type {type(config).__name__}")
    outcome = config.plan().evaluate(engine.wtp, engine.theta, engine.adoption)
    expected = config.revenue(outcome)
    if engine.adoption.is_deterministic:
        runs: tuple[float, ...] = ()
    else:
        count = DEFAULT_STOCHASTIC_RUNS if n_runs is None else int(n_runs)
        runs = tuple(
            config.revenue(
                sample_forest(config.forest(), engine.bundle_wtp, engine.adoption, rng)
            )
            for rng in spawn_rngs(seed, count)
        )
    return EvaluationReport(
        expected_revenue=expected,
        coverage=engine.coverage(expected),
        realized_revenues=runs,
        buyers_per_offer=outcome.buyers_per_offer,
    )
