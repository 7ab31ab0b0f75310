"""Bounded admission control: shed load explicitly, never queue unboundedly.

A serving process that accepts every request degrades for *everyone*: an
unbounded backlog turns a throughput shortfall into unbounded latency, and
by the time a request reaches the kernel its deadline is long gone.  The
:class:`AdmissionQueue` makes the overload behaviour explicit instead —
at most ``depth`` requests wait; one more is *shed* immediately with
:class:`~repro.errors.ServerOverloadedError` (HTTP 429), which bounds the
queueing delay any admitted request can experience to roughly
``depth / throughput``.

The queue also owns the serving counters surfaced by ``/healthz``:
admissions, sheds, and the live depth — real state, not heuristics.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.errors import ServerOverloadedError, ValidationError


@dataclass
class QuoteTicket:
    """One admitted quote request riding through the micro-batcher.

    ``prepared`` is the validated row block;
    ``deadline_at`` the absolute ``loop.time()`` instant after which the
    answer no longer matters; ``future`` resolves to a
    :class:`~repro.serving.state.ServedQuote` (or a typed error).
    """

    prepared: Any
    deadline_at: float
    future: asyncio.Future = field(repr=False)

    def expired(self, now: float) -> bool:
        return now >= self.deadline_at

    def resolve(self, quote) -> None:
        if not self.future.done():
            self.future.set_result(quote)

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


class AdmissionQueue:
    """A bounded FIFO of :class:`QuoteTicket` with explicit shedding."""

    def __init__(self, depth: int) -> None:
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise ValidationError(f"queue depth must be a positive int, got {depth!r}")
        self.depth = depth
        self._queue: asyncio.Queue[QuoteTicket] = asyncio.Queue(maxsize=depth)
        self.admitted = 0
        self.shed = 0

    def submit(self, ticket: QuoteTicket) -> None:
        """Admit *ticket* or shed it (raises ``ServerOverloadedError``)."""
        try:
            self._queue.put_nowait(ticket)
        except asyncio.QueueFull:
            self.shed += 1
            obs.counter_inc("repro_admission_shed_total",
                            help="Requests shed by the full admission queue.")
            raise ServerOverloadedError(
                f"admission queue is full ({self.depth} requests waiting); "
                "request shed"
            ) from None
        self.admitted += 1
        obs.counter_inc("repro_admission_admitted_total",
                        help="Requests admitted to the quote queue.")
        obs.gauge_set("repro_admission_queue_depth", self._queue.qsize(),
                      help="Tickets waiting in the admission queue.")

    async def take(self) -> QuoteTicket:
        """The next waiting ticket (FIFO); awaits until one arrives."""
        return await self._queue.get()

    async def take_more(self, timeout: float) -> QuoteTicket | None:
        """The next ticket if one arrives within *timeout* seconds, else None."""
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    @property
    def waiting(self) -> int:
        """Tickets currently queued (the ``/healthz`` queue depth)."""
        return self._queue.qsize()

    @property
    def saturated(self) -> bool:
        return self._queue.full()
