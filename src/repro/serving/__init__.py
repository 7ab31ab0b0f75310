"""Hardened quote serving: warm state, micro-batching, admission, reload.

The serving subsystem answers ``solution.quote()``-identical prices from a
persistent process instead of a cold per-call rebuild:

* :class:`~repro.serving.state.ServingState` — the menu precomputed once
  (supports, scales, price vector, adoption model, forest, fingerprint);
* :class:`~repro.serving.admission.AdmissionQueue` — bounded admission
  with explicit load shedding (HTTP 429);
* :class:`~repro.serving.batching.MicroBatcher` — micro-batches admitted
  requests into single warm kernel calls, with deadline drops, bounded
  retries, and a batched → sequential degradation rung;
* :class:`~repro.serving.server.QuoteServer` — the composition root plus
  a stdlib-asyncio HTTP front end with per-request deadlines (504),
  read timeouts (408), health/readiness endpoints, graceful SIGTERM
  drain, and coherent hot reload stamping every response with the
  serving solution's fingerprint;
* :class:`~repro.serving.supervisor.ServingSupervisor` — N supervised
  worker processes (:mod:`repro.serving.worker`) behind one socket, each
  building its state from the saved artifact: crash detection and
  respawn with backoff, per-worker circuit breakers, rolling
  zero-downtime reload, and fleet-wide graceful drain.

The load-bearing invariant, pinned by ``tests/test_serving.py`` /
``tests/test_supervisor.py`` and the ``serving-smoke`` CI job: every
successfully served quote — batched, degraded, post-reload, or routed
through the fleet — is **bit-identical** to calling ``solution.quote()``
on that request's rows alone.
"""

from repro.serving.admission import AdmissionQueue, QuoteTicket
from repro.serving.batching import MicroBatcher
from repro.serving.server import QuoteServer
from repro.serving.state import PreparedRows, ServedQuote, ServingState
from repro.serving.supervisor import CircuitBreaker, ServingSupervisor

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "MicroBatcher",
    "PreparedRows",
    "QuoteServer",
    "QuoteTicket",
    "ServedQuote",
    "ServingState",
    "ServingSupervisor",
]
