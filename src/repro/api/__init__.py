"""Public fit/serve API: typed configs, solver facade, persistent solutions.

The one entry point for using the system end to end:

* :class:`EngineConfig` / :class:`AdoptionSpec` — validated, serializable
  engine recipes (model parameters + performance backends);
* :class:`AlgorithmSpec` — a registry algorithm name with
  signature-validated kwargs;
* :class:`BundlingSolver` — ``fit(wtp) -> BundlingSolution``, with
  iteration-boundary checkpointing (``checkpoint_path=``), crash
  recovery via :meth:`BundlingSolver.resume`, and incremental
  :meth:`BundlingSolver.refit` across a :class:`PopulationDelta`
  (warm-started re-pricing with a drift-gated cold fallback,
  returning a :class:`RefitReport`);
* :class:`BundlingSolution` — the durable artifact: configuration,
  provenance, metrics; ``save``/``load`` (bit-exact JSON),
  ``quote(new_user_wtp)`` and ``evaluate(engine)`` for serving;
* :class:`RetryPolicy` — the quote micro-batcher's retry/degradation
  policy (:class:`~repro.serving.server.QuoteServer`'s ``retry``);
  :class:`DegradedExecutionWarning` is the structured warning emitted
  when a scan or a quote batch falls back to a slower path;
* :class:`FitCheckpoint` — the persisted restartable fit state.

See EXPERIMENTS.md and the README "API" section for a worked example.
"""

from repro.api.checkpoint import CHECKPOINT_FORMAT_VERSION, FitCheckpoint
from repro.api.config import (
    ADOPTION_KINDS,
    AdoptionSpec,
    AlgorithmSpec,
    EngineConfig,
)
from repro.api.solution import (
    SOLUTION_FORMAT_VERSION,
    BundlingSolution,
    QuoteResult,
)
from repro.api.solver import DEFAULT_ALGORITHM, BundlingSolver, RefitReport
from repro.core.delta import PopulationDelta
from repro.core.retry import DegradedExecutionWarning, RetryPolicy

__all__ = [
    "ADOPTION_KINDS",
    "AdoptionSpec",
    "AlgorithmSpec",
    "BundlingSolution",
    "BundlingSolver",
    "CHECKPOINT_FORMAT_VERSION",
    "DEFAULT_ALGORITHM",
    "DegradedExecutionWarning",
    "EngineConfig",
    "FitCheckpoint",
    "PopulationDelta",
    "QuoteResult",
    "RefitReport",
    "RetryPolicy",
    "SOLUTION_FORMAT_VERSION",
]
