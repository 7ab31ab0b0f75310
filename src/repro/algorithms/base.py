"""Common interface for bundle-configuration algorithms.

Every algorithm consumes a :class:`~repro.core.revenue.RevenueEngine` and
produces a :class:`BundlingResult` holding the configuration, its evaluated
expected revenue and coverage, a per-iteration trace (the raw material of
the paper's Figure 6), and wall-clock timing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.evaluation import evaluate, revenue_gain
from repro.core.kernels import check_n_workers
from repro.core.revenue import RevenueEngine
from repro.errors import ValidationError
from repro.utils.timer import Timer

PURE = "pure"
MIXED = "mixed"
STRATEGIES = (PURE, MIXED)


def check_strategy(strategy: str) -> str:
    if strategy not in STRATEGIES:
        raise ValidationError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    return strategy


def check_max_size(k: int | None) -> int | None:
    """Validate the k-sized constraint; ``None`` means unbounded (Table 3)."""
    if k is None:
        return None
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive int or None, got {k!r}")
    return k


def check_workers_option(n_workers: int | None) -> int | None:
    """Validate an algorithm-level worker override; ``None`` defers to the engine."""
    if n_workers is None:
        return None
    return check_n_workers(n_workers)


@dataclass(frozen=True)
class IterationRecord:
    """One iteration of an iterative algorithm (one point of Figure 6)."""

    index: int
    revenue: float
    elapsed: float
    n_top_bundles: int
    merges: int


@dataclass
class BundlingResult:
    """Outcome of one algorithm run."""

    algorithm: str
    strategy: str
    configuration: PureConfiguration | MixedConfiguration
    expected_revenue: float
    coverage: float
    trace: list[IterationRecord] = field(default_factory=list)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

    def gain_over(self, components_revenue: float) -> float:
        """Revenue gain versus the Components baseline (Section 6.1.2)."""
        return revenue_gain(self.expected_revenue, components_revenue)

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    def __repr__(self) -> str:
        return (
            f"BundlingResult({self.algorithm}/{self.strategy}, "
            f"revenue={self.expected_revenue:.2f}, coverage={self.coverage:.1%}, "
            f"iterations={self.n_iterations}, time={self.wall_time:.3f}s)"
        )


class BundlingAlgorithm(ABC):
    """Base class: ``fit(engine)`` returns a :class:`BundlingResult`."""

    name: str = "abstract"
    strategy: str = PURE
    #: Optional per-run worker override (``None`` = use the engine's setting).
    n_workers: int | None = None
    #: Checkpointing knobs, armed by :meth:`repro.api.BundlingSolver.fit`
    #: (class-level so registry-validated constructor signatures stay
    #: untouched).  ``checkpoint_path=None`` disables checkpointing.
    checkpoint_path = None
    checkpoint_every: int = 1
    #: A :class:`~repro.api.checkpoint.FitCheckpoint` to restart from,
    #: installed by :meth:`repro.api.BundlingSolver.resume`; consumed (and
    #: cleared) by the next ``fit`` call.
    _resume_from = None
    #: ``(EngineConfig, AlgorithmSpec)`` recorded into checkpoints so a
    #: resumed solution carries provenance identical to an uninterrupted one.
    _checkpoint_provenance = None

    @abstractmethod
    def fit(self, engine: RevenueEngine) -> BundlingResult:
        """Run the algorithm against *engine* and return the result."""

    # --------------------------------------------------------- checkpointing
    def _take_resume(self):
        """Pop the pending resume checkpoint (one restart per install)."""
        resume, self._resume_from = self._resume_from, None
        return resume

    def _emit_checkpoint(
        self, engine: RevenueEngine, iteration: int, trace, state: dict, arrays: dict
    ) -> None:
        """Persist an iteration boundary when checkpointing is armed.

        Honours the ``checkpoint_every`` cadence; a no-op without a
        ``checkpoint_path``, so un-checkpointed fits pay nothing.  Under
        :func:`~repro.api.checkpoint.graceful_sigint`, a pending interrupt
        overrides the cadence — the boundary is flushed unconditionally and
        :class:`~repro.errors.FitInterruptedError` stops the fit with a
        resumable artifact on disk.
        """
        if self.checkpoint_path is None:
            return
        from repro.api.checkpoint import interrupt_requested, write_fit_checkpoint

        interrupted = interrupt_requested()
        if not interrupted and iteration % self.checkpoint_every:
            return
        write_fit_checkpoint(self, engine, iteration, trace, state, arrays)
        if interrupted:
            from repro.errors import FitInterruptedError

            raise FitInterruptedError(iteration, self.checkpoint_path)

    @contextmanager
    def _engine_overrides(self, engine: RevenueEngine):
        """Apply the per-run worker override for one fit."""
        previous_workers = engine.n_workers
        if self.n_workers is not None:
            engine.n_workers = self.n_workers
        try:
            yield
        finally:
            engine.n_workers = previous_workers

    def _finalize(
        self,
        engine: RevenueEngine,
        configuration: PureConfiguration | MixedConfiguration,
        trace: list[IterationRecord],
        timer: Timer,
        extra: dict | None = None,
    ) -> BundlingResult:
        """Evaluate the configuration and assemble the result record."""
        report = evaluate(configuration, engine, n_runs=0)
        return BundlingResult(
            algorithm=self.name,
            strategy=self.strategy,
            configuration=configuration,
            expected_revenue=report.expected_revenue,
            coverage=report.coverage,
            trace=trace,
            wall_time=timer.elapsed,
            extra=extra or {},
        )
