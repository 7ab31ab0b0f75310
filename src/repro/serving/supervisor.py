"""The serving fleet: N supervised worker processes behind one socket.

:class:`ServingSupervisor` scales the single-process
:class:`~repro.serving.server.QuoteServer` across processes without giving
up one bit of the serving invariant:

* **One artifact.** The supervisor loads and fingerprints a saved
  solution before any worker sees it; each worker then builds its own
  :class:`~repro.serving.state.ServingState` from that same path.  The
  menu is a few KB, so a private copy per worker costs nothing worth
  sharing, and every fleet response stays bit-identical to cold
  ``solution.quote()``.
* **Crash recovery.** The supervisor owns the listening socket and proxies
  each request to the least-loaded healthy worker.  A worker that dies —
  process exit, heartbeat silence past the timeout, or the
  ``worker_crash`` fault SIGKILLing it mid-batch — is detected by the
  supervision tick, its in-flight requests are retried on a sibling
  (within a route budget, so clients never see the crash), and the slot is
  respawned with exponential backoff.
* **Circuit breaking.** Each worker carries a
  :class:`CircuitBreaker` (closed → open after ``breaker_threshold``
  consecutive routed failures → half-open probe after a cooldown →
  closed on success).  Routing skips open breakers; when every live
  worker's breaker is open, the route fails with
  :class:`~repro.errors.CircuitOpenError` (503) rather than hammering
  known-bad processes.
* **Rolling reload.** ``POST /reload`` rotates workers one at a time:
  load and fingerprint the new artifact, take a worker out of rotation
  (never the last ready one), have it rebuild its state from the new
  path over the pipe, verify the worker's
  ``X-Solution-Fingerprint`` over HTTP before rotating it back in.
  ``/quote`` never answers 503 during a reload, and every response is
  stamped by exactly one of the two valid fingerprints — never a mix
  within one response, and never the old one once rotation completes.
  A concurrent reload answers 409 with the in-flight target.
* **Incremental refit.** ``POST /refit`` (requires the fleet to be
  started with the fitted population) runs
  :meth:`~repro.api.solver.BundlingSolver.refit` off-loop — warm
  incremental re-pricing with a drift-gated cold fallback — saves the
  refitted artifact next to the current one, and rotates it in through
  the exact rolling-reload machinery above, under the same lock (a
  concurrent reload or refit answers 409).  On success the in-memory
  population advances past the delta, so refits compound.
* **Graceful drain.** First SIGTERM: stop accepting, finish in-flight
  proxied requests up to ``drain_timeout``, drain the workers, exit 0.
  Second SIGTERM aborts immediately (exit 143).

Fault sites consulted here: ``route`` (treat the picked worker as failed
without contacting it — deterministic breaker food); the workers consult
``worker_spawn``, ``heartbeat``, and ``worker_crash`` (see
:mod:`repro.serving.worker`).
"""

from __future__ import annotations

import asyncio
import json
import math
import multiprocessing
import os
import signal
import time

from repro import obs
from repro.core import faults
from repro.errors import (
    CircuitOpenError,
    ReloadConflictError,
    ReloadError,
    ServingError,
    ValidationError,
    WorkerCrashError,
)
from repro.serving.server import (
    _HEADER_LIMIT,
    DEFAULT_MAX_BODY,
    _BodyTooLarge,
    _MalformedRequest,
    _status_of,
    read_http_request,
    write_http_response,
)
from repro.serving.state import ServingState
from repro.serving.worker import DEFAULT_HEARTBEAT_INTERVAL, worker_main

#: Consecutive failed spawn attempts before a slot is declared failed.
MAX_SPAWN_ATTEMPTS = 5

#: Base backoff (seconds) between respawns of one slot; doubles per
#: consecutive failure, capped at :data:`MAX_SPAWN_BACKOFF`.
SPAWN_BACKOFF = 0.05
MAX_SPAWN_BACKOFF = 2.0


class CircuitBreaker:
    """Closed → open → half-open, driven by routed-request outcomes only.

    ``threshold`` consecutive failures open the breaker; after
    ``cooldown`` seconds one probe request is allowed through
    (half-open).  The probe's outcome decides: success closes the
    breaker, failure re-opens it for another cooldown.  Timestamps come
    from the caller (the supervisor's loop clock), so the machine is
    deterministic under test.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 0.5) -> None:
        if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold < 1:
            raise ValidationError(
                f"breaker threshold must be a positive int, got {threshold!r}"
            )
        self.threshold = threshold
        self.cooldown = float(cooldown)
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0

    def allow(self, now: float) -> bool:
        """May a request be routed through this breaker right now?

        An open breaker past its cooldown transitions to half-open and
        admits exactly one probe; further calls answer False until the
        probe's outcome is recorded.
        """
        if self.state == "closed":
            return True
        if self.state == "open" and now - self.opened_at >= self.cooldown:
            self.state = "half-open"
            return True
        return False

    def record_success(self) -> None:
        self.state = "closed"
        self.failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == "half-open":
            self.opened_at = now
            self.state = "open"
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self.state = "open"
            self.opened_at = now

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, failures={self.failures})"


class WorkerHandle:
    """Supervisor-side record of one worker slot."""

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.breaker = breaker
        self.process = None
        self.conn = None
        self.port: int | None = None
        self.pid: int | None = None
        self.fingerprint: str | None = None
        #: "starting" | "ready" | "dead" | "failed" (spawn attempts exhausted)
        self.phase = "dead"
        #: False while a rolling reload holds the worker out of rotation.
        self.in_rotation = True
        #: In-flight proxied requests (the least-loaded routing key).
        self.active = 0
        self.last_heartbeat = 0.0
        self.spawn_failures = 0
        #: Lifetime totals for this slot.  ``spawn_failures`` resets once
        #: the worker comes up; these two never do, so ``/healthz`` and
        #: ``/metrics`` can show a slot's full crash history.
        self.spawn_retries = 0
        self.respawns = 0
        #: Last metrics snapshot received on this slot's heartbeat (only
        #: populated when the fleet runs with metrics enabled).
        self.metrics_snapshot: dict | None = None
        #: Future the tick loop resolves with a worker "reloaded" /
        #: "reload_failed" message, awaited by the rolling reload.
        self.reload_reply: asyncio.Future | None = None

    @property
    def routable(self) -> bool:
        return self.phase == "ready" and self.in_rotation

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ServingSupervisor:
    """N supervised quote workers behind one listening socket.

    Parameters mirror :class:`~repro.serving.server.QuoteServer` where
    they configure the per-worker servers; the fleet-level knobs are
    ``workers`` (process count), ``heartbeat_interval`` /
    ``heartbeat_timeout`` (liveness), ``breaker_threshold`` /
    ``breaker_cooldown`` (per-worker circuit breaker), ``route_budget``
    (wall-clock a single request may spend failing over before the
    client sees an error), and ``drain_timeout``.
    """

    def __init__(
        self,
        path,
        *,
        workers: int = 2,
        deadline: float = 1.0,
        queue_depth: int = 256,
        batch_window: float = 0.002,
        max_batch: int = 64,
        read_timeout: float = 5.0,
        max_body_bytes: int = DEFAULT_MAX_BODY,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.5,
        route_budget: float = 15.0,
        drain_timeout: float = 10.0,
        trace_log: str | None = None,
        population=None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise ValidationError(f"workers must be a positive int, got {workers!r}")
        self._path = os.fspath(path)
        #: Fitted-population source for /refit (path / matrix / None);
        #: loaded lazily off-loop on the first refit.
        self._population_source = population
        self._population = None
        #: Refitted artifacts are saved as ``<base>.refit<N>.json`` so the
        #: chain never grows the filename, however many refits land.
        self._refit_base = self._path
        self._refit_seq = 0
        self.workers_wanted = workers
        self.heartbeat_interval = float(heartbeat_interval)
        if heartbeat_timeout is None:
            heartbeat_timeout = max(1.5, 6.0 * self.heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self.route_budget = float(route_budget)
        self.drain_timeout = float(drain_timeout)
        self.max_body_bytes = int(max_body_bytes)
        self.read_timeout = float(read_timeout)
        self._worker_options = {
            "deadline": float(deadline),
            "queue_depth": int(queue_depth),
            "batch_window": float(batch_window),
            "max_batch": int(max_batch),
            "read_timeout": float(read_timeout),
            "heartbeat_interval": self.heartbeat_interval,
            "drain_timeout": self.drain_timeout,
        }
        #: Base path for per-worker JSONL span sinks (workers append a
        #: ``.worker<i>`` suffix); forwarded at spawn time.
        self.trace_log = trace_log
        self._context = multiprocessing.get_context("spawn")
        self.handles: list[WorkerHandle] = [
            WorkerHandle(i, CircuitBreaker(self.breaker_threshold, self.breaker_cooldown))
            for i in range(workers)
        ]
        self.fingerprint: str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._tick_task: asyncio.Task | None = None
        self._respawn_tasks: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        self._reload_lock: asyncio.Lock | None = None
        self._reload_target: str | None = None
        self.draining = False
        self._started_at = time.monotonic()
        self.requests = 0
        self.routed = 0
        self.route_retries = 0
        self.worker_deaths = 0
        self.heartbeat_timeouts = 0
        self.respawns = 0
        self.spawn_retries = 0
        self.reloads = 0
        self.reload_failures = 0
        self.last_reload_error: str | None = None
        self.refits = 0
        self.refit_failures = 0
        self.last_refit_error: str | None = None
        #: In-flight client requests (the drain condition).
        self._in_flight = 0

    # -------------------------------------------------------------------- load
    @staticmethod
    def _load_state(path) -> ServingState:
        """Load and fingerprint *path* before any worker is pointed at it."""
        from repro.api.solution import BundlingSolution

        return ServingState(BundlingSolution.load(path))

    # ------------------------------------------------------------------ spawn
    def _spawn(self, handle: WorkerHandle) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # Observability enablement is read at spawn time, not __init__, so
        # respawned workers always match the supervisor's current state.
        options = dict(self._worker_options)
        options["metrics"] = obs.metrics_enabled()
        options["trace_log"] = self.trace_log
        process = self._context.Process(
            target=worker_main,
            args=(handle.index, self._path, child_conn, options),
            daemon=True,
            name=f"repro-quote-worker-{handle.index}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.port = None
        handle.pid = None
        handle.fingerprint = None
        handle.metrics_snapshot = None
        handle.phase = "starting"
        handle.last_heartbeat = asyncio.get_running_loop().time()

    async def _await_ready(self, handle: WorkerHandle, timeout: float = 30.0) -> bool:
        """Wait for the ``ready`` message (and verify over HTTP)."""
        loop = asyncio.get_running_loop()
        deadline_at = loop.time() + timeout
        while loop.time() < deadline_at:
            while handle.conn is not None and handle.conn.poll():
                try:
                    message = handle.conn.recv()
                except (EOFError, OSError):
                    return False
                if message[0] == "ready":
                    _, _, port, fingerprint, pid = message
                    handle.port = int(port)
                    handle.fingerprint = fingerprint
                    handle.pid = int(pid)
                    handle.last_heartbeat = loop.time()
                    if not await self._verify_worker(handle, fingerprint):
                        return False
                    handle.phase = "ready"
                    handle.spawn_failures = 0
                    handle.breaker.record_success()
                    return True
                if message[0] == "spawn_failed":
                    return False
                if message[0] == "heartbeat":
                    handle.last_heartbeat = loop.time()
                    if len(message) > 2:
                        handle.metrics_snapshot = message[2]
            if not handle.alive():
                return False
            await asyncio.sleep(0.01)
        return False

    async def _verify_worker(self, handle: WorkerHandle, expected: str | None) -> bool:
        """Probe the worker's ``/readyz`` and check its fingerprint header."""
        try:
            status, headers, _body = await asyncio.wait_for(
                self._roundtrip(handle, "GET", "/readyz", {}, b""), 5.0
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            return False
        if status != 200:
            return False
        if expected is not None and headers.get("x-solution-fingerprint") != expected:
            return False
        return True

    def _schedule_respawn(self, handle: WorkerHandle) -> None:
        """Respawn a dead slot after exponential backoff (one task per slot)."""
        if self.draining or handle.phase == "starting":
            return
        handle.phase = "starting"  # claims the slot; cleared on outcome

        async def _respawn() -> None:
            delay = min(
                MAX_SPAWN_BACKOFF, SPAWN_BACKOFF * (2.0 ** handle.spawn_failures)
            )
            await asyncio.sleep(delay)
            if self.draining:
                handle.phase = "dead"
                return
            self._reap(handle)
            self._spawn(handle)
            self.respawns += 1
            handle.respawns += 1
            obs.counter_inc(
                "repro_worker_respawn_total",
                help="Worker processes respawned after a death.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            if await self._await_ready(handle):
                return
            handle.spawn_failures += 1
            handle.spawn_retries += 1
            self.spawn_retries += 1
            obs.counter_inc(
                "repro_spawn_retries_total",
                help="Failed spawn attempts that were retried.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            self._reap(handle, kill=True)
            if handle.spawn_failures >= MAX_SPAWN_ATTEMPTS:
                handle.phase = "failed"
                return
            handle.phase = "dead"
            self._schedule_respawn(handle)

        task = asyncio.ensure_future(_respawn())
        self._respawn_tasks.add(task)
        task.add_done_callback(self._respawn_tasks.discard)

    def _reap(self, handle: WorkerHandle, kill: bool = False) -> None:
        """Join (optionally kill) a slot's dead process and close its pipe."""
        process = handle.process
        if process is not None:
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=5.0)
            handle.process = None
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            handle.conn = None
        if handle.reload_reply is not None and not handle.reload_reply.done():
            handle.reload_reply.set_exception(
                WorkerCrashError(f"worker {handle.index} died mid-reload")
            )
            handle.reload_reply = None

    # ------------------------------------------------------------ supervision
    async def _tick_loop(self) -> None:
        interval = max(0.02, self.heartbeat_interval / 4.0)
        while True:
            self._tick(asyncio.get_running_loop().time())
            await asyncio.sleep(interval)

    def _tick(self, now: float) -> None:
        for handle in self.handles:
            if handle.phase == "starting":
                # The spawn/respawn task owns the pipe until the slot is
                # ready; draining it here would swallow the very "ready"
                # message _await_ready is polling for.
                continue
            self._drain_pipe(handle, now)
            if handle.phase == "ready":
                if not handle.alive():
                    self.worker_deaths += 1
                    self._count_death(handle)
                    handle.phase = "dead"
                    handle.breaker.record_failure(now)
                    self._reap(handle)
                    self._schedule_respawn(handle)
                elif now - handle.last_heartbeat > self.heartbeat_timeout:
                    # Silent worker: the process is technically alive but
                    # not talking — kill it and start over.
                    self.heartbeat_timeouts += 1
                    self.worker_deaths += 1
                    self._count_death(handle)
                    obs.counter_inc(
                        "repro_worker_heartbeat_timeouts_total",
                        help="Workers killed for heartbeat silence.",
                        labelnames=("slot",),
                        slot=str(handle.index),
                    )
                    handle.phase = "dead"
                    handle.breaker.record_failure(now)
                    self._reap(handle, kill=True)
                    self._schedule_respawn(handle)

    def _respawn_crashed(self, handle: WorkerHandle) -> None:
        """Reap a ready worker found dead outside the tick and respawn it now."""
        if handle.phase == "ready":
            self.worker_deaths += 1
            self._count_death(handle)
            handle.phase = "dead"
            self._reap(handle, kill=True)
            self._schedule_respawn(handle)

    @staticmethod
    def _count_death(handle: WorkerHandle) -> None:
        obs.counter_inc(
            "repro_worker_deaths_total",
            help="Worker deaths detected (process exit or silence).",
            labelnames=("slot",),
            slot=str(handle.index),
        )

    def _drain_pipe(self, handle: WorkerHandle, now: float) -> None:
        conn = handle.conn
        if conn is None:
            return
        try:
            while conn.poll():
                message = conn.recv()
                handle.last_heartbeat = now
                kind = message[0]
                if kind == "heartbeat" and len(message) > 2:
                    handle.metrics_snapshot = message[2]
                if kind in ("reloaded", "reload_failed"):
                    reply = handle.reload_reply
                    handle.reload_reply = None
                    if reply is not None and not reply.done():
                        reply.set_result(message)
        except (EOFError, OSError):
            # Pipe gone: the liveness check below this tick handles it.
            pass

    # ---------------------------------------------------------------- control
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Load the menu, spawn the fleet, open the listening socket."""
        self._reload_lock = asyncio.Lock()
        self._started_at = time.monotonic()
        self.draining = False
        loop = asyncio.get_running_loop()
        state = await loop.run_in_executor(None, self._load_state, self._path)
        self.fingerprint = state.fingerprint

        async def _start_slot(handle: WorkerHandle) -> None:
            attempts = 0
            while True:
                self._spawn(handle)
                if await self._await_ready(handle):
                    return
                attempts += 1
                handle.spawn_failures += 1
                handle.spawn_retries += 1
                self.spawn_retries += 1
                obs.counter_inc(
                    "repro_spawn_retries_total",
                    help="Failed spawn attempts that were retried.",
                    labelnames=("slot",),
                    slot=str(handle.index),
                )
                self._reap(handle, kill=True)
                if attempts >= MAX_SPAWN_ATTEMPTS:
                    handle.phase = "failed"
                    raise WorkerCrashError(
                        f"worker {handle.index} failed to start after "
                        f"{attempts} attempts"
                    )
                await asyncio.sleep(
                    min(MAX_SPAWN_BACKOFF, SPAWN_BACKOFF * (2.0 ** attempts))
                )

        try:
            # All slots boot concurrently — interpreter start-up dominates
            # fleet launch, so serializing it would double the latency.
            results = await asyncio.gather(
                *(_start_slot(handle) for handle in self.handles),
                return_exceptions=True,
            )
            for outcome in results:
                if isinstance(outcome, BaseException):
                    raise outcome
        except BaseException:
            await self._shutdown_workers(graceful=False)
            raise
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=_HEADER_LIMIT
        )
        self._tick_task = asyncio.ensure_future(self._tick_loop())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _shutdown_workers(self, graceful: bool) -> None:
        for task in list(self._respawn_tasks):
            task.cancel()
        for task in list(self._respawn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        loop = asyncio.get_running_loop()
        for handle in self.handles:
            process = handle.process
            if process is None or not process.is_alive():
                self._reap(handle)
                continue
            if graceful:
                try:
                    handle.conn.send(("drain",))
                except (BrokenPipeError, OSError, AttributeError):
                    process.terminate()
            else:
                process.terminate()
        if graceful:
            deadline_at = loop.time() + self.drain_timeout + 1.0
            for handle in self.handles:
                process = handle.process
                while (
                    process is not None
                    and process.is_alive()
                    and loop.time() < deadline_at
                ):
                    await asyncio.sleep(0.02)
        for handle in self.handles:
            handle.phase = "dead" if handle.phase != "failed" else "failed"
            self._reap(handle, kill=True)

    async def stop(self, graceful: bool = True) -> None:
        """Stop the fleet: listener, then workers (idempotent)."""
        self.draining = True
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            for writer in list(self._connections):
                try:
                    writer.close()
                except OSError:  # pragma: no cover
                    pass
            await self._server.wait_closed()
            self._server = None
        await self._shutdown_workers(graceful=graceful)

    async def drain(self, timeout: float | None = None) -> bool:
        """Refuse new work, finish in-flight proxied requests, stop."""
        if timeout is None:
            timeout = self.drain_timeout
        self.draining = True
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        deadline_at = loop.time() + float(timeout)
        clean = True
        while self._in_flight > 0:
            if loop.time() >= deadline_at:
                clean = False
                break
            await asyncio.sleep(0.005)
        await self.stop(graceful=True)
        return clean

    async def serve_forever(
        self, host: str, port: int, *, banner=None, drain_timeout: float | None = None
    ) -> int:
        """Run until SIGINT (fast stop) or SIGTERM (drain; second aborts)."""
        if drain_timeout is None:
            drain_timeout = self.drain_timeout
        bound_host, bound_port = await self.start(host, port)
        if banner is not None:
            banner(bound_host, bound_port)
        loop = asyncio.get_running_loop()
        stop = loop.create_future()
        abort = loop.create_future()

        def _request_stop(kind: str) -> None:
            if stop.done():
                if kind == "drain" and not abort.done():
                    abort.set_result(None)
                return
            stop.set_result(kind)

        installed = []
        for sig, kind in ((signal.SIGINT, "stop"), (signal.SIGTERM, "drain")):
            try:
                loop.add_signal_handler(sig, _request_stop, kind)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            kind = await stop
            if kind != "drain":
                await self.stop(graceful=False)
                return 0
            drain_task = asyncio.ensure_future(self.drain(drain_timeout))
            await asyncio.wait(
                {drain_task, abort}, return_when=asyncio.FIRST_COMPLETED
            )
            if not drain_task.done():
                drain_task.cancel()
                try:
                    await drain_task
                except asyncio.CancelledError:
                    pass
                await self.stop(graceful=False)
                return 143
            return 0
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            if not abort.done():
                abort.cancel()
            await self.stop(graceful=False)

    # ---------------------------------------------------------------- routing
    def _pick(self, now: float) -> WorkerHandle | None:
        """The least-loaded routable worker whose breaker admits traffic."""
        best = None
        for handle in self.handles:
            if not handle.routable or not handle.breaker.allow(now):
                continue
            if best is None or handle.active < best.active:
                best = handle
        return best

    async def _roundtrip(
        self, handle: WorkerHandle, method: str, path: str, headers: dict, body: bytes
    ):
        """One proxied HTTP exchange with a worker (fresh connection)."""
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", handle.port, limit=_HEADER_LIMIT
        )
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                "Host: 127.0.0.1",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            if "content-type" in headers:
                head.append(f"Content-Type: {headers['content-type']}")
            writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)
            await writer.drain()
            raw = await reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            reply_headers: dict[str, str] = {}
            for line in lines[1:]:
                if not line:
                    continue
                name, _, value = line.partition(":")
                reply_headers[name.strip().lower()] = value.strip()
            length = int(reply_headers.get("content-length", "0"))
            reply_body = await reader.readexactly(length) if length else b""
            return status, reply_headers, reply_body
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, method: str, path: str, headers: dict, body: bytes):
        """Route one request to a healthy worker, failing over on crashes.

        Retries across siblings (and across respawns) within
        ``route_budget`` seconds; a worker crash is therefore never
        client-visible as long as some worker comes back inside the
        budget.  Raises :class:`CircuitOpenError` when every live worker's
        breaker is open, :class:`WorkerCrashError` when the budget expires
        with no live worker at all.
        """
        loop = asyncio.get_running_loop()
        budget_at = loop.time() + self.route_budget
        self.requests += 1
        obs.counter_inc(
            "repro_fleet_requests_total", help="Client requests routed to the fleet."
        )
        first_attempt = True
        while True:
            now = loop.time()
            if now >= budget_at:
                raise WorkerCrashError(
                    "no worker answered within the "
                    f"{self.route_budget:.1f}s route budget"
                )
            handle = self._pick(now)
            if handle is None:
                if not first_attempt:
                    self.route_retries += 1
                    self._count_route_retry()
                first_attempt = False
                if any(h.routable and h.alive() for h in self.handles):
                    # Live routable workers exist but every breaker is open
                    # and cooling down: shed rather than hammer them.
                    raise CircuitOpenError(
                        "every worker's circuit breaker is open"
                    )
                # Nothing routable (crashed / respawning): wait for a
                # respawn inside the budget.
                await asyncio.sleep(0.02)
                continue
            if not first_attempt:
                self.route_retries += 1
                self._count_route_retry()
            first_attempt = False
            if faults.fire("route") is not None:
                # Injected routing failure: the worker is treated as
                # failed without being contacted.
                handle.breaker.record_failure(loop.time())
                continue
            handle.active += 1
            try:
                attempt_budget = max(0.05, budget_at - loop.time())
                status, reply_headers, reply_body = await asyncio.wait_for(
                    self._roundtrip(handle, method, path, headers, body),
                    attempt_budget,
                )
            except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError, ValueError):
                # Give a just-killed process the beat it needs to turn
                # zombie: its sockets reset a hair before waitpid can see
                # the exit, and without the pause the retry loop would
                # read the crash as an alive-worker refusal.
                await asyncio.sleep(0.005)
                if not handle.alive():
                    # The worker died under us (SIGKILLed mid-batch, say).
                    # That is a crash, not a breaker-worthy refusal: reap
                    # and respawn now instead of waiting for the tick, and
                    # keep the breaker closed so the replacement takes the
                    # failover as soon as it is ready.  Counting instant
                    # connection-refused retries against the breaker would
                    # open it in microseconds and shed load the respawn is
                    # about to absorb.
                    self._respawn_crashed(handle)
                    await asyncio.sleep(0.02)
                    continue
                # Alive but torn/hung/refusing: record and fail over; the
                # tick loop keeps watching its heartbeat.
                handle.breaker.record_failure(loop.time())
                continue
            finally:
                handle.active -= 1
            handle.breaker.record_success()
            self.routed += 1
            obs.counter_inc(
                "repro_fleet_routed_total",
                help="Requests answered by a worker, by slot.",
                labelnames=("slot",),
                slot=str(handle.index),
            )
            return status, reply_headers, reply_body

    @staticmethod
    def _count_route_retry() -> None:
        obs.counter_inc(
            "repro_fleet_route_retries_total",
            help="Failover attempts beyond a request's first routing try.",
        )

    # ----------------------------------------------------------------- reload
    async def reload(self, path) -> tuple[str | None, str]:
        """Rolling zero-downtime reload; returns (old, new) fingerprints."""
        lock = self._reload_lock
        if lock is None:
            self._reload_lock = lock = asyncio.Lock()
        if lock.locked():
            raise ReloadConflictError(self._reload_target)
        async with lock:
            self._reload_target = os.fspath(path)
            try:
                return await self._rolling_reload(os.fspath(path))
            finally:
                self._reload_target = None

    async def _rolling_reload(self, path: str) -> tuple[str | None, str]:
        loop = asyncio.get_running_loop()
        try:
            new_state = await loop.run_in_executor(None, self._load_state, path)
        except Exception as exc:
            self.reload_failures += 1
            self.last_reload_error = str(exc)
            raise ReloadError(
                f"reload failed; previous menu retained: {exc}"
            ) from exc
        old_fingerprint = self.fingerprint
        old_path = self._path
        # Point respawns at the new menu *before* rotating: a worker that
        # crashes mid-rotation comes back already on the new fingerprint
        # (one of the two valid ones), never on a third.
        self._path = path
        self.fingerprint = new_state.fingerprint
        rotated: list[WorkerHandle] = []
        try:
            for handle in list(self.handles):
                if handle.phase != "ready":
                    continue  # dead/starting slots respawn onto the new menu
                if handle.fingerprint == new_state.fingerprint:
                    rotated.append(handle)
                    continue
                await self._rotate_worker(handle, path, new_state.fingerprint)
                rotated.append(handle)
        except BaseException as exc:
            # Roll back: restore the old menu for respawns and rotate the
            # already-swapped workers back (best effort).
            self._path = old_path
            self.fingerprint = old_fingerprint
            for handle in rotated:
                try:
                    await self._rotate_worker(handle, old_path, old_fingerprint)
                except Exception:  # pragma: no cover - double fault
                    pass
            self.reload_failures += 1
            self.last_reload_error = str(exc)
            # Wrap rotation ReloadErrors too: whether a worker killed
            # mid-rotation fails the pipe write or the reply wait is a race,
            # and either way the rollback above has restored the old menu.
            raise ReloadError(
                f"rolling reload failed; previous menu restored: {exc}"
            ) from exc
        self.reloads += 1
        self.last_reload_error = None
        return old_fingerprint, new_state.fingerprint

    # ------------------------------------------------------------------ refit
    def _refit_offline(self, delta, drift_threshold):
        """The blocking half of :meth:`refit` (runs in the executor).

        Loads the population lazily on first use, runs the solver refit,
        saves the refitted artifact next to the base solution, and returns
        ``(report, new_path, new_population)`` for the event loop to
        rotate in.
        """
        from repro.api.solution import BundlingSolution
        from repro.api.solver import BundlingSolver
        from repro.core.delta import PopulationDelta
        from repro.serving.server import QuoteServer

        if self._population is None:
            if self._population_source is None:
                raise ValidationError(
                    "refit requires the fitted population; start the fleet "
                    "with population= (CLI: serve --workers N --wtp "
                    "population.npz)"
                )
            self._population = QuoteServer._coerce_population(
                self._population_source
            )
        if isinstance(delta, dict):
            delta = PopulationDelta.from_dict(delta)
        if not isinstance(delta, PopulationDelta):
            raise ValidationError(
                f"refit delta must be a PopulationDelta or dict, got "
                f"{type(delta).__name__}"
            )
        solution = BundlingSolution.load(self._path)
        solver = BundlingSolver(solution.algorithm_spec, solution.engine_config)
        report = solver.refit(
            solution, self._population, delta, drift_threshold=drift_threshold
        )
        self._refit_seq += 1
        new_path = f"{self._refit_base}.refit{self._refit_seq}.json"
        report.solution.save(new_path)
        return report, new_path, delta.apply(self._population)

    async def refit(self, delta, drift_threshold: float | None = None) -> dict:
        """Warm-refit the fleet's solution and rotate it in without downtime.

        Computes the refit off-loop, persists the refitted artifact, then
        runs the exact :meth:`reload` rotation against it (repoint-before-
        rotate, per-worker fingerprint verification, rollback on failure)
        — all under the reload lock, so reloads and refits serialize and
        the loser answers 409.  The population only advances once the
        rotation fully lands; a failed rotation leaves both the old menu
        and the old population serving.
        """
        lock = self._reload_lock
        if lock is None:
            self._reload_lock = lock = asyncio.Lock()
        if lock.locked():
            raise ReloadConflictError(self._reload_target)
        async with lock:
            self._reload_target = "refit"
            loop = asyncio.get_running_loop()
            started = time.monotonic()
            try:
                try:
                    report, new_path, new_population = await loop.run_in_executor(
                        None, self._refit_offline, delta, drift_threshold
                    )
                    previous, current = await self._rolling_reload(new_path)
                except (ReloadError, ValidationError, ServingError, OSError) as exc:
                    self.refit_failures += 1
                    self.last_refit_error = str(exc)
                    obs.counter_inc(
                        "repro_refit_failures_total",
                        help="Refits that failed before the state swap.",
                    )
                    raise
                self._population = new_population
                self.refits += 1
                self.last_refit_error = None
                obs.counter_inc(
                    "repro_refit_total",
                    help="Refits applied, by warm/cold mode.",
                    labelnames=("mode",),
                    mode=report.mode,
                )
                obs.observe(
                    "repro_refit_duration_seconds",
                    time.monotonic() - started,
                    help="Wall time per refit (warm re-price plus any cold fallback).",
                    buckets=obs.REFIT_DURATION_BUCKETS,
                )
                return {
                    "previous_fingerprint": previous,
                    "fingerprint": current,
                    "mode": report.mode,
                    "drift": (
                        float(report.drift)
                        if math.isfinite(report.drift)
                        else None
                    ),
                    "threshold": report.threshold,
                    "n_added": report.n_added,
                    "n_removed": report.n_removed,
                    "n_users": new_population.n_users,
                    "expected_revenue": report.solution.expected_revenue,
                    "path": new_path,
                }
            finally:
                self._reload_target = None

    async def _rotate_worker(
        self, handle: WorkerHandle, path: str, expected: str
    ) -> None:
        """Swap one worker's state and verify its fingerprint over HTTP."""
        others = [
            h for h in self.handles if h is not handle and h.routable
        ]
        if others:
            # Never rotate the last ready worker out: with siblings
            # covering, /quote keeps answering during the swap.
            handle.in_rotation = False
        try:
            reply = asyncio.get_running_loop().create_future()
            handle.reload_reply = reply
            try:
                handle.conn.send(("reload", path))
            except (BrokenPipeError, OSError, AttributeError) as exc:
                handle.reload_reply = None
                # A broken pipe means the worker is gone.  Retire the slot
                # now: left "ready" until the next tick, it would look whole
                # to anyone checking the fleet right after this reload fails.
                self._respawn_crashed(handle)
                raise ReloadError(
                    f"worker {handle.index} unreachable for reload: {exc}"
                ) from exc
            message = await asyncio.wait_for(reply, 30.0)
            if message[0] == "reload_failed":
                raise ReloadError(
                    f"worker {handle.index} reload failed: {message[2]}"
                )
            handle.fingerprint = message[3]
            if not await self._verify_worker(handle, expected):
                raise ReloadError(
                    f"worker {handle.index} did not verify fingerprint "
                    f"{expected[:12]}... after reload"
                )
        finally:
            handle.in_rotation = True

    # ---------------------------------------------------------------- health
    def health(self) -> dict:
        """The fleet ``/healthz`` payload — per-worker truth, live counters."""
        ready = sum(1 for h in self.handles if h.phase == "ready")
        if self.draining:
            status = "draining"
        elif ready == 0:
            status = "down"
        elif ready < len(self.handles):
            status = "degraded"
        else:
            status = "serving"
        return {
            "status": status,
            "ready": ready > 0 and not self.draining,
            "fingerprint": self.fingerprint,
            "uptime_seconds": time.monotonic() - self._started_at,
            "in_flight": self._in_flight,
            "workers": [
                {
                    "index": h.index,
                    "phase": h.phase,
                    "pid": h.pid,
                    "port": h.port,
                    "in_rotation": h.in_rotation,
                    "active": h.active,
                    "breaker": h.breaker.state,
                    "breaker_failures": h.breaker.failures,
                    "spawn_failures": h.spawn_failures,
                    "spawn_retries": h.spawn_retries,
                    "respawns": h.respawns,
                    "fingerprint": h.fingerprint,
                }
                for h in self.handles
            ],
            "counters": {
                "requests": self.requests,
                "routed": self.routed,
                "route_retries": self.route_retries,
                "worker_deaths": self.worker_deaths,
                "heartbeat_timeouts": self.heartbeat_timeouts,
                "respawns": self.respawns,
                "spawn_retries": self.spawn_retries,
                "reloads": self.reloads,
                "reload_failures": self.reload_failures,
                "refits": self.refits,
                "refit_failures": self.refit_failures,
            },
        }

    # ------------------------------------------------------------- HTTP edge
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_http_request(reader, max_body_bytes=self.max_body_bytes),
                        self.read_timeout,
                    )
                except asyncio.TimeoutError:
                    await self._respond(
                        writer,
                        408,
                        {
                            "error": "RequestReadTimeout",
                            "message": "request not received in time",
                        },
                        keep_alive=False,
                    )
                    return
                except _BodyTooLarge as exc:
                    await self._respond(
                        writer,
                        413,
                        {"error": "PayloadTooLarge", "message": str(exc)},
                        keep_alive=False,
                    )
                    return
                except _MalformedRequest as exc:
                    await self._respond(
                        writer,
                        400,
                        {"error": "MalformedRequest", "message": str(exc)},
                        keep_alive=False,
                    )
                    return
                if request is None:
                    return
                self._in_flight += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                finally:
                    self._in_flight -= 1
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError):
            pass  # pragma: no cover - peer vanished mid-exchange
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                pass

    _METRIC_ROUTES = ("/quote", "/reload", "/refit", "/healthz", "/readyz", "/metrics")
    _BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    def export_gauges(self, registry) -> None:
        """Refresh fleet gauges right before a scrape renders them."""
        obs.gauge_set(
            "repro_fleet_in_flight", self._in_flight,
            help="Client requests currently in flight at the edge.",
        )
        obs.gauge_set(
            "repro_fleet_workers_ready",
            sum(1 for h in self.handles if h.phase == "ready"),
            help="Workers in the ready phase.",
        )
        obs.gauge_set(
            "repro_fleet_draining", 1.0 if self.draining else 0.0,
            help="1 while the fleet is draining.",
        )
        obs.gauge_set(
            "repro_supervisor_uptime_seconds",
            time.monotonic() - self._started_at,
            help="Seconds since the supervisor started.",
        )
        for h in self.handles:
            obs.gauge_set(
                "repro_worker_breaker_state",
                float(self._BREAKER_STATES.get(h.breaker.state, 2)),
                help="Per-slot breaker state (0 closed, 1 half-open, 2 open).",
                labelnames=("slot",),
                slot=str(h.index),
            )
            obs.gauge_set(
                "repro_worker_up", 1.0 if h.phase == "ready" else 0.0,
                help="1 while the slot's worker is ready.",
                labelnames=("slot",),
                slot=str(h.index),
            )
            obs.gauge_set(
                "repro_worker_active_requests", h.active,
                help="Proxied requests in flight per slot.",
                labelnames=("slot",),
                slot=str(h.index),
            )

    async def _handle_metrics(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        registry = obs.metrics_registry()
        if registry is None:
            await self._respond(
                writer,
                404,
                {
                    "error": "MetricsDisabled",
                    "message": "metrics are not enabled; start with --metrics",
                },
                keep_alive=keep_alive,
            )
            return
        self.export_gauges(registry)
        # The supervisor's own families render first, then every live
        # worker's last heartbeat snapshot with an injected worker label —
        # the fleet-wide view behind one scrape endpoint.
        snapshots = [
            (h.metrics_snapshot, {"worker": str(h.index)})
            for h in self.handles
            if h.metrics_snapshot is not None
        ]
        text = obs.render_snapshots(snapshots, registry)
        await write_http_response(
            writer,
            200,
            text.encode("utf-8"),
            keep_alive=keep_alive,
            content_type=obs.EXPOSITION_CONTENT_TYPE,
        )

    async def _dispatch(self, request, writer: asyncio.StreamWriter) -> bool:
        method, path, headers, body = request
        keep_alive = headers.get("connection", "").lower() != "close"
        if obs.metrics_enabled():
            route = path if path in self._METRIC_ROUTES else "other"
            obs.counter_inc(
                "repro_http_requests_total",
                help="HTTP requests by route and method.",
                labelnames=("route", "method"),
                route=route,
                method=method,
            )
        if path == "/metrics" and method == "GET":
            # Served even while draining: scrapes are how a drain is watched.
            await self._handle_metrics(writer, keep_alive)
            return keep_alive
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self.health(), keep_alive=keep_alive)
            return keep_alive
        if path == "/readyz" and method == "GET":
            ready = (
                not self.draining
                and any(h.phase == "ready" for h in self.handles)
            )
            await self._respond(
                writer,
                200 if ready else 503,
                {
                    "ready": ready,
                    "draining": self.draining,
                    "fingerprint": self.fingerprint,
                },
                keep_alive=keep_alive,
            )
            return keep_alive
        if path in ("/quote", "/reload", "/refit") and self.draining:
            await self._respond(
                writer,
                503,
                {
                    "error": "ServerDraining",
                    "message": "fleet is draining; not accepting new work",
                },
                keep_alive=False,
            )
            return False
        if path == "/quote":
            if method != "POST":
                await self._respond(
                    writer,
                    405,
                    {"error": "MethodNotAllowed", "message": "POST /quote"},
                    keep_alive=keep_alive,
                )
                return keep_alive
            try:
                status, reply_headers, reply_body = await self._route(
                    method, path, headers, body
                )
            except (WorkerCrashError, CircuitOpenError) as exc:
                await self._respond(
                    writer,
                    _status_of(exc),
                    {"error": type(exc).__name__, "message": str(exc)},
                    keep_alive=keep_alive,
                )
                return keep_alive
            await self._relay(
                writer, status, reply_headers, reply_body, keep_alive=keep_alive
            )
            return keep_alive
        if path == "/reload":
            if method != "POST":
                await self._respond(
                    writer,
                    405,
                    {"error": "MethodNotAllowed", "message": "POST /reload"},
                    keep_alive=keep_alive,
                )
                return keep_alive
            await self._handle_reload(body, writer, keep_alive)
            return keep_alive
        if path == "/refit":
            if method != "POST":
                await self._respond(
                    writer,
                    405,
                    {"error": "MethodNotAllowed", "message": "POST /refit"},
                    keep_alive=keep_alive,
                )
                return keep_alive
            await self._handle_refit(body, writer, keep_alive)
            return keep_alive
        await self._respond(
            writer,
            404,
            {"error": "NotFound", "message": f"no route for {method} {path}"},
            keep_alive=keep_alive,
        )
        return keep_alive

    async def _handle_reload(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict) or "path" not in payload:
                raise ValidationError('reload body needs a "path" field')
            previous, current = await self.reload(payload["path"])
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer,
                400,
                {"error": "ValidationError", "message": f"bad JSON body: {exc}"},
                keep_alive=keep_alive,
            )
            return
        except ReloadConflictError as exc:
            await self._respond(
                writer,
                409,
                {
                    "error": "ReloadConflictError",
                    "message": str(exc),
                    "in_flight_path": exc.in_flight_path,
                },
                keep_alive=keep_alive,
            )
            return
        except (ReloadError, ValidationError, ServingError) as exc:
            await self._respond(
                writer,
                _status_of(exc) if isinstance(exc, ValidationError) else 500,
                {"error": type(exc).__name__, "message": str(exc)},
                keep_alive=keep_alive,
            )
            return
        await self._respond(
            writer,
            200,
            {"previous_fingerprint": previous, "fingerprint": current},
            keep_alive=keep_alive,
        )

    async def _handle_refit(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict) or "delta" not in payload:
                raise ValidationError('refit body needs a "delta" field')
            result = await self.refit(
                payload["delta"], payload.get("drift_threshold")
            )
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond(
                writer,
                400,
                {"error": "ValidationError", "message": f"bad JSON body: {exc}"},
                keep_alive=keep_alive,
            )
            return
        except ReloadConflictError as exc:
            await self._respond(
                writer,
                409,
                {
                    "error": "ReloadConflictError",
                    "message": str(exc),
                    "in_flight_path": exc.in_flight_path,
                },
                keep_alive=keep_alive,
            )
            return
        except (ReloadError, ValidationError, ServingError) as exc:
            await self._respond(
                writer,
                _status_of(exc) if isinstance(exc, ValidationError) else 500,
                {"error": type(exc).__name__, "message": str(exc)},
                keep_alive=keep_alive,
            )
            return
        await self._respond(writer, 200, result, keep_alive=keep_alive)

    async def _relay(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        reply_headers: dict,
        reply_body: bytes,
        *,
        keep_alive: bool,
    ) -> None:
        """Forward a worker's response verbatim (body bytes untouched)."""
        extra = []
        for name in ("x-solution-fingerprint", "retry-after"):
            if name in reply_headers:
                pretty = "-".join(part.capitalize() for part in name.split("-"))
                extra.append(f"{pretty}: {reply_headers[name]}")
        await write_http_response(
            writer, status, reply_body, keep_alive=keep_alive, extra_headers=extra
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        extra = []
        if self.fingerprint is not None:
            extra.append(f"X-Solution-Fingerprint: {self.fingerprint}")
        await write_http_response(
            writer, status, body, keep_alive=keep_alive, extra_headers=extra
        )

    def __repr__(self) -> str:
        ready = sum(1 for h in self.handles if h.phase == "ready")
        return (
            f"ServingSupervisor({ready}/{len(self.handles)} workers ready, "
            f"fingerprint={(self.fingerprint or '')[:12]}...)"
        )
