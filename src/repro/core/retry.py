"""Retry policy and degradation signals.

:class:`RetryPolicy`
    Bounded attempts with exponential backoff, and whether a caller may
    degrade instead of failing.  The quote micro-batcher
    (:mod:`repro.serving.batching`) retries a faulting batched kernel
    under it and, once attempts are exhausted, degrades to sequential
    pricing.

:class:`DegradedExecutionWarning`
    The structured warning emitted whenever work falls back to a slower
    path: a streamed pair scan whose thread pool cannot start runs in
    order (:mod:`repro.core.kernels`), and a faulting quote batch is
    priced request by request.  It carries what degraded, the path it
    left, the path it landed on, and the triggering error — monitorable
    by ``warnings`` filters without parsing message strings.

Both fallbacks are correctness-neutral: a streamed scan's chunks are pure
and a quote's arithmetic is per-request, so the degraded path returns the
same bits, only slower.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ValidationError

#: Maximum attempts a policy may ask for (a runaway-retry backstop).
MAX_ATTEMPTS_CAP = 16


@dataclass(frozen=True)
class RetryPolicy:
    """Retry and degradation knobs for a retryable operation.

    Parameters
    ----------
    max_attempts:
        Total attempts, including the first (default 3; 1 disables
        retries).
    backoff:
        Seconds slept before the second attempt (default 0.05); each later
        attempt multiplies it by ``backoff_factor``.
    backoff_factor:
        Exponential backoff multiplier (default 2.0).
    degrade:
        Whether the caller may fall back to its degraded path (default
        True).  When off, exhausted retries raise instead of falling
        back, for callers that prefer fail-fast over degraded throughput.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_attempts, bool)
            or not isinstance(self.max_attempts, int)
            or not 1 <= self.max_attempts <= MAX_ATTEMPTS_CAP
        ):
            raise ValidationError(
                f"max_attempts must be an int in [1, {MAX_ATTEMPTS_CAP}], "
                f"got {self.max_attempts!r}"
            )
        backoff = float(self.backoff)
        if not backoff >= 0.0:  # rejects NaN too
            raise ValidationError(f"backoff must be >= 0, got {self.backoff!r}")
        object.__setattr__(self, "backoff", backoff)
        factor = float(self.backoff_factor)
        if not factor >= 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        object.__setattr__(self, "backoff_factor", factor)
        if not isinstance(self.degrade, bool):
            raise ValidationError(f"degrade must be a bool, got {self.degrade!r}")

    def delay(self, attempt: int) -> float:
        """Backoff before retrying after failed attempt number *attempt*."""
        return self.backoff * self.backoff_factor ** max(0, attempt - 1)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
            "backoff_factor": self.backoff_factor,
            "degrade": self.degrade,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RetryPolicy":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"RetryPolicy payload must be a dict, got {type(payload).__name__}"
            )
        known = {"max_attempts", "backoff", "backoff_factor", "degrade"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown RetryPolicy keys: {', '.join(unknown)}; known: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**payload)


def check_retry_policy(retry) -> RetryPolicy:
    """Normalize a policy, a payload dict, or ``None`` (defaults) to a policy."""
    if retry is None:
        return RetryPolicy()
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, dict):
        return RetryPolicy.from_dict(retry)
    raise ValidationError(
        f"retry must be a RetryPolicy, dict, or None, got {type(retry).__name__}"
    )


def record_degradation(scan: str, from_executor: str, to_executor: str) -> None:
    """Count one scan degradation (threads to the in-order loop) for /metrics."""
    obs.counter_inc(
        "repro_scan_degradations_total",
        help="Scans degraded from threads to the in-order loop.",
        labelnames=("scan", "from_executor", "to_executor"),
        scan=scan, from_executor=from_executor, to_executor=to_executor,
    )


class DegradedExecutionWarning(UserWarning):
    """Work fell back to a slower path instead of failing.

    Attributes
    ----------
    scan:
        What degraded (``"pure-scan"`` or ``"mixed-scan"`` for a streamed
        pair scan, ``"quote-batch"`` for the micro-batcher).
    from_executor / to_executor:
        The path left and the path landed on.
    cause:
        The triggering exception.
    """

    def __init__(self, scan: str, from_executor: str, to_executor: str, cause: BaseException):
        self.scan = scan
        self.from_executor = from_executor
        self.to_executor = to_executor
        self.cause = cause
        super().__init__(
            f"{scan}: degraded {from_executor} -> {to_executor} after "
            f"{type(cause).__name__}: {cause}"
        )
