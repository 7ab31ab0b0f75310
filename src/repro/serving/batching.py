"""Micro-batching with deadlines, retries, and batched → sequential fallback.

The :class:`MicroBatcher` is the serving loop between admission and the
kernel: it accumulates admitted tickets for at most ``batch_window``
seconds (or ``max_batch`` requests, whichever comes first), prices the
whole batch with **one** warm kernel call on a dedicated worker thread,
and slices the results back to each ticket's future.  Batching amortizes
per-call overhead without changing a single bit of any answer — the warm
batch kernel is pinned bit-identical to per-request ``solution.quote()``.

Robustness discipline (:mod:`repro.core.retry`):

* **Deadlines.** Tickets whose deadline has already passed are failed with
  :class:`~repro.errors.QuoteDeadlineError` *before* the kernel runs — an
  expired request must not consume kernel time it can no longer use.  The
  HTTP handler additionally bounds its own wait on the future, so even a
  kernel that hangs cannot stall a response past its deadline.
* **Retry, then degrade.** A faulting batch kernel is retried under the
  server's :class:`~repro.core.retry.RetryPolicy` (bounded attempts,
  exponential backoff).  If attempts are exhausted and the policy allows
  degradation, the batch falls back to *sequential* per-request quoting —
  same arithmetic, one request per kernel call — and a structured
  :class:`~repro.core.retry.DegradedExecutionWarning` is emitted; a
  request that fails even sequentially gets a typed per-request error,
  never a wrong price.
* **Reload coherence.** The serving state is captured once per batch; a
  ticket admitted under an older state (a hot reload landed in between) is
  re-prepared against the captured state, so every response in a batch is
  priced and fingerprint-stamped by exactly one solution version.
"""

from __future__ import annotations

import asyncio
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro import obs
from repro.core.retry import DegradedExecutionWarning, RetryPolicy, check_retry_policy
from repro.errors import QuoteDeadlineError, ReproError, ServingError
from repro.serving.admission import AdmissionQueue, QuoteTicket
from repro.serving.state import ServingState


class MicroBatcher:
    """Accumulate → price → resolve, forever (until :meth:`stop`)."""

    def __init__(
        self,
        queue: AdmissionQueue,
        state_of,
        *,
        batch_window: float = 0.002,
        max_batch: int = 64,
        retry: RetryPolicy | dict | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if not isinstance(max_batch, int) or isinstance(max_batch, bool) or max_batch < 1:
            from repro.errors import ValidationError

            raise ValidationError(f"max_batch must be a positive int, got {max_batch!r}")
        self.queue = queue
        #: Zero-argument callable returning the current :class:`ServingState`
        #: — indirection through the server so hot reloads take effect at
        #: the next batch boundary.
        self.state_of = state_of
        self.batch_window = float(batch_window)
        self.max_batch = max_batch
        self.retry = check_retry_policy(retry)
        #: Injectable time source for batch wall-clock measurement (and the
        #: Retry-After EWMA built on it).  ``None`` means the event loop's
        #: clock; tests inject a fake to pin the EWMA fold deterministically.
        self._clock = clock
        # One worker thread keeps kernel calls off the event loop (health
        # endpoints answer during a long batch) and in submission order.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-quote"
        )
        self._task: asyncio.Task | None = None
        self.batches = 0
        self.quotes = 0
        self.expired = 0
        self.degraded_batches = 0
        self.failed = 0
        #: True while the most recent batch had to fall back to sequential
        #: quoting — the ``/healthz`` "degraded" signal; a later batch that
        #: prices batched again clears it (the fallback is self-healing).
        self.last_batch_degraded = False
        #: EWMA of observed wall-clock seconds per priced batch — the basis
        #: of the 429 ``Retry-After`` estimate (None until a batch lands).
        self.observed_batch_seconds: float | None = None
        #: True while a batch is being assembled or priced; with an empty
        #: admission queue, its falling edge is the drain condition.
        self.in_flight = False

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._executor.shutdown(wait=False, cancel_futures=True)

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    # ------------------------------------------------------------------- loop
    async def _run(self) -> None:
        while True:
            ticket = await self.queue.take()
            self.in_flight = True
            batch = [ticket]
            if self.max_batch > 1 and self.batch_window > 0:
                loop = asyncio.get_running_loop()
                window_end = loop.time() + self.batch_window
                while len(batch) < self.max_batch:
                    remaining = window_end - loop.time()
                    if remaining <= 0:
                        break
                    extra = await self.queue.take_more(remaining)
                    if extra is None:
                        break
                    batch.append(extra)
            try:
                await self._price_batch(batch)
            except asyncio.CancelledError:
                for ticket in batch:
                    ticket.fail(ServingError("server shutting down"))
                raise
            except Exception as exc:  # pragma: no cover - defensive backstop
                # The batch loop must survive anything: fail the batch's
                # tickets with a typed error and keep serving.
                for ticket in batch:
                    ticket.fail(ServingError(f"internal serving failure: {exc!r}"))
            finally:
                self.in_flight = False

    def _record_batch_seconds(self, elapsed: float) -> None:
        """Fold one batch's wall clock into the EWMA (20% new, 80% old)."""
        if self.observed_batch_seconds is None:
            self.observed_batch_seconds = elapsed
        else:
            self.observed_batch_seconds += 0.2 * (elapsed - self.observed_batch_seconds)
        obs.observe("repro_batch_seconds", elapsed,
                    help="Wall time per priced batch.")
        obs.gauge_set("repro_batch_ewma_seconds", self.observed_batch_seconds,
                      help="EWMA of batch wall time (the Retry-After basis).")

    async def _price_batch(self, batch: list[QuoteTicket]) -> None:
        loop = asyncio.get_running_loop()
        clock = self._clock or loop.time
        started = clock()
        state = self.state_of()
        self.batches += 1
        live: list[QuoteTicket] = []
        for ticket in batch:
            if ticket.future.done():
                continue
            if ticket.expired(clock()):
                self.expired += 1
                obs.counter_inc("repro_quote_expired_total",
                                help="Tickets expired before pricing.")
                ticket.fail(QuoteDeadlineError("quote deadline expired while queued"))
                continue
            if ticket.prepared.state is not state:
                # A hot reload landed between admission and batching:
                # re-prepare the raw rows against the state this batch is
                # actually priced under, so the batch stays coherent.
                try:
                    ticket = QuoteTicket(
                        prepared=state.prepare_rows(ticket.prepared.raw),
                        deadline_at=ticket.deadline_at,
                        future=ticket.future,
                    )
                except ReproError as exc:
                    ticket.fail(exc)
                    continue
            live.append(ticket)
        if not live:
            return
        obs.counter_inc("repro_batches_total", help="Batches priced.")
        obs.observe("repro_batch_size", len(live), help="Live tickets per batch.",
                    buckets=obs.DEFAULT_SIZE_BUCKETS)
        attempts = 0
        while True:
            attempts += 1
            try:
                with obs.span("serve.batch", tickets=len(live), attempt=attempts):
                    quotes = await loop.run_in_executor(
                        self._executor,
                        state.quote_batch,
                        [ticket.prepared for ticket in live],
                    )
                break
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if attempts < self.retry.max_attempts:
                    await asyncio.sleep(self.retry.delay(attempts))
                    continue
                if not self.retry.degrade:
                    self.failed += len(live)
                    obs.counter_inc("repro_quote_failed_total", len(live),
                                    help="Tickets failed with a typed error.")
                    error = exc if isinstance(exc, ReproError) else ServingError(
                        f"batched quote kernel failed: {exc!r}"
                    )
                    for ticket in live:
                        ticket.fail(error)
                    return
                warnings.warn(
                    DegradedExecutionWarning("quote-batch", "batched", "sequential", exc),
                    stacklevel=2,
                )
                self.degraded_batches += 1
                obs.counter_inc("repro_batch_degraded_total",
                                help="Batches degraded to sequential quoting.")
                self.last_batch_degraded = True
                await self._price_sequential(state, live)
                self._record_batch_seconds(clock() - started)
                return
        self.last_batch_degraded = False
        for ticket, quote in zip(live, quotes):
            self.quotes += 1
            ticket.resolve(quote)
        obs.counter_inc("repro_quotes_total", len(live), help="Quotes resolved.")
        self._record_batch_seconds(clock() - started)

    async def _price_sequential(self, state: ServingState, live: list[QuoteTicket]) -> None:
        """The degraded rung: one request per kernel call, same arithmetic."""
        loop = asyncio.get_running_loop()
        clock = self._clock or loop.time
        for ticket in live:
            if ticket.future.done():
                continue
            if ticket.expired(clock()):
                self.expired += 1
                obs.counter_inc("repro_quote_expired_total",
                                help="Tickets expired before pricing.")
                ticket.fail(QuoteDeadlineError("quote deadline expired while degraded"))
                continue
            try:
                with obs.span("serve.quote_sequential"):
                    quote = await loop.run_in_executor(
                        self._executor, state.quote_single, ticket.prepared
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.failed += 1
                obs.counter_inc("repro_quote_failed_total",
                                help="Tickets failed with a typed error.")
                ticket.fail(
                    exc
                    if isinstance(exc, ReproError)
                    else ServingError(f"sequential quote failed: {exc!r}")
                )
                continue
            self.quotes += 1
            obs.counter_inc("repro_quotes_total", help="Quotes resolved.")
            ticket.resolve(quote)
