"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class at API
boundaries while still distinguishing failure modes when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ReproError, ValueError):
    """An argument or data structure failed validation.

    Inherits from :class:`ValueError` so idiomatic ``except ValueError``
    call sites keep working.
    """


class DataError(ReproError):
    """A dataset is malformed, empty, or inconsistent."""


class PricingError(ReproError):
    """Pricing could not be carried out (e.g. empty price interval)."""


class ConfigurationError(ReproError):
    """A bundle configuration violates the problem's structural conditions.

    Problem 1 (pure bundling) requires a strict partition of the item set;
    Problem 2 (mixed bundling) requires a laminar family covering the item
    set.  Violations of either raise this error.
    """


class SolverError(ReproError):
    """An exact solver (branch-and-bound, DP) could not complete."""


class InfeasibleError(SolverError):
    """The instance admits no feasible solution under the given constraints."""


class ExecutorError(ReproError):
    """A scan execution backend failed (the thread pool could not start).

    Raised by the streaming kernels when a scan's thread pool is
    unavailable — the signal the scan reacts to by falling back to the
    in-order loop.  Scans are chunk-pure, so the in-order re-run is
    bit-identical to the threaded scan that failed.
    """


class CheckpointError(ReproError):
    """A fit checkpoint could not be written, read, or resumed from.

    Covers malformed checkpoint payloads, missing array sidecars, and
    resuming with a solver whose configuration does not match the one the
    checkpoint was written under.
    """


class FitInterruptedError(ReproError):
    """A checkpointed fit was stopped by SIGINT after flushing a checkpoint.

    Raised at the iteration boundary that observes the interrupt request,
    *after* a final checkpoint has been written regardless of the
    ``checkpoint_every`` cadence — so the run can be restarted with
    ``BundlingSolver.resume`` (CLI: ``--resume``) and finish bit-identical
    to an uninterrupted fit.  The CLI maps it to exit code 130
    (128 + SIGINT), the conventional interrupted-process code.
    """

    def __init__(self, iteration: int, checkpoint_path=None):
        self.iteration = int(iteration)
        self.checkpoint_path = checkpoint_path
        location = f" to {checkpoint_path}" if checkpoint_path else ""
        super().__init__(
            f"fit interrupted; checkpoint flushed{location} at iteration "
            f"{self.iteration} (resume to finish)"
        )


class ServingError(ReproError):
    """A quote-serving request could not be answered.

    Base class of the :mod:`repro.serving` failure modes; the CLI maps the
    family to exit code 7.  Serving errors are *per-request* whenever
    possible — the server sheds or fails one request rather than wedging
    the process — and every one of them maps to a structured HTTP status
    so clients can react without parsing messages.
    """


class QuoteDeadlineError(ServingError):
    """A quote request's wall-clock deadline expired before its answer.

    Raised (and returned as HTTP 504) whether the request was still queued,
    batched but unpriced, or mid-kernel — the response is bounded by the
    deadline no matter where the time went.  A request that *did* get
    priced within its deadline is bit-identical to ``solution.quote()``;
    one that did not gets this error, never a partial or stale price.
    """


class ServerOverloadedError(ServingError):
    """The admission queue is full; the request was shed, not queued.

    Returned as HTTP 429.  Explicit load shedding bounds queueing latency:
    beyond ``queue_depth`` waiting requests the server refuses new work
    immediately instead of growing an unbounded backlog in which every
    request eventually misses its deadline.
    """


class ReloadError(ServingError):
    """A hot solution reload failed; the previous state remains serving.

    Reload is all-or-nothing: the replacement solution is loaded, verified
    (fingerprint check included), and precomputed *before* the atomic
    state swap, so any failure — unreadable file, corrupted payload, an
    injected ``reload`` fault — leaves the server answering from the old
    state with its old fingerprint.
    """


class ReloadConflictError(ReloadError):
    """A reload is already in flight; this one was rejected, not queued.

    Returned as HTTP 409.  Queueing concurrent reloads behind the reload
    lock would re-run each one serially against whatever state the
    previous left — surprising and wasteful.  The error carries the
    in-flight reload's target path so the caller can tell whether its
    request is already being satisfied.
    """

    def __init__(self, in_flight_path):
        self.in_flight_path = None if in_flight_path is None else str(in_flight_path)
        super().__init__(
            f"a reload of {self.in_flight_path!r} is already in flight; "
            "retry once it completes"
        )


class WorkerCrashError(ServingError):
    """No live serving worker could answer within the routing budget.

    Raised by the :class:`~repro.serving.supervisor.ServingSupervisor`
    when every worker in the fleet is dead or respawning for longer than
    the routing budget tolerates (HTTP 503), and at startup when no worker
    ever becomes ready.  A single worker death is *not* this error — the
    supervisor retries the request on a sibling and respawns the dead
    worker with exponential backoff; the CLI maps the family to exit 8.
    """


class CircuitOpenError(ServingError):
    """Every routable worker's circuit breaker is open (HTTP 503).

    A worker that keeps failing requests trips its per-worker breaker
    (closed → open) so traffic sheds to its siblings instead of eating
    deadlines; after a cooldown the breaker goes half-open and admits one
    probe request, closing again on success.  This error means no worker
    currently admits traffic — the fleet is alive but sick.  CLI exit 9.
    """
