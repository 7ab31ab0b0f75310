"""One fleet worker: a warm :class:`QuoteServer` process under supervision.

A worker is spawned by :class:`~repro.serving.supervisor.ServingSupervisor`
with a solution path and its end of a duplex pipe.  It

* loads the solution and builds a :class:`CrashableServingState` (a
  :class:`~repro.serving.state.ServingState` whose batch pricing consults
  the ``worker_crash`` fault site — the fleet's deterministic way to die
  mid-load),
* starts a private :class:`~repro.serving.server.QuoteServer` on an
  ephemeral localhost port and reports ``("ready", index, port,
  fingerprint, pid)`` up the pipe,
* heartbeats up the pipe every ``heartbeat_interval`` seconds (the
  ``heartbeat`` fault site silences them *permanently* once it fires, so
  the supervisor's timeout path is testable),
* executes pipe commands: ``("reload", path)`` swaps the serving
  state (answering ``reloaded`` / ``reload_failed``), ``("stop",)`` exits
  fast, ``("drain",)`` finishes in-flight work first, and
* drains on SIGTERM like the standalone server.

Quotes served by a worker are priced by the same :class:`ServingState`
arithmetic as the single-process server, built from the same saved
artifact, so fleet responses stay bit-identical to cold
``solution.quote()``.

The ``worker_spawn`` fault site fires here, before anything is built: the
process exits with code 1 as if its interpreter had failed to come up,
exercising the supervisor's respawn-with-backoff path.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading

from repro import obs
from repro.core import faults
from repro.serving.server import QuoteServer
from repro.serving.state import ServingState

#: Default seconds between worker → supervisor heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.25


class CrashableServingState(ServingState):
    """A serving state whose batch pricing consults ``worker_crash``.

    When the ``worker_crash`` rule fires (inside a worker process only —
    never the supervisor), the process SIGKILLs itself *before* pricing
    the batch, so no partially priced response can ever escape.  The
    supervisor must then retry the batch's requests on a sibling and
    respawn this worker.
    """

    def quote_batch(self, blocks):
        if faults.in_worker() and faults.fire("worker_crash") is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().quote_batch(blocks)


def _build_state(path) -> CrashableServingState:
    """Load the solution at *path* and precompute its serving state."""
    from repro.api.solution import BundlingSolution

    return CrashableServingState(BundlingSolution.load(path))


def worker_main(index: int, path, conn, options: dict) -> None:
    """Spawn entrypoint (must stay importable as ``repro.serving.worker``).

    *options* carries the server knobs (``deadline``, ``queue_depth``,
    ``batch_window``, ``max_batch``, ``read_timeout``) plus
    ``heartbeat_interval`` and ``drain_timeout``.
    """
    if faults.fire("worker_spawn") is not None:
        # As if the interpreter failed to come up: die before ready.
        os._exit(1)
    if options.get("metrics"):
        # Fresh per-process registry; snapshots ride the heartbeat so the
        # supervisor's /metrics can expose fleet-wide series.
        obs.enable_metrics()
    trace_log = options.get("trace_log")
    if trace_log:
        # One JSONL file per worker — concurrent appends from multiple
        # processes would interleave within a line otherwise.
        obs.enable_tracing(sink_path=f"{trace_log}.worker{index}")
    try:
        state = _build_state(path)
    except BaseException as exc:
        try:
            conn.send(("spawn_failed", index, f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
        os._exit(1)
    code = asyncio.run(_run(index, state, conn, options))
    sys.exit(code)


async def _run(index: int, state: ServingState, conn, options: dict) -> int:
    heartbeat_interval = float(
        options.get("heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL)
    )
    drain_timeout = float(options.get("drain_timeout", 10.0))
    server = QuoteServer(
        state,
        deadline=options.get("deadline", 1.0),
        queue_depth=options.get("queue_depth", 256),
        batch_window=options.get("batch_window", 0.002),
        max_batch=options.get("max_batch", 64),
        read_timeout=options.get("read_timeout", 5.0),
    )
    host, port = await server.start("127.0.0.1", 0)
    loop = asyncio.get_running_loop()
    stop = loop.create_future()

    def _request_stop(kind: str) -> None:
        if not stop.done():
            stop.set_result(kind)

    for sig, kind in ((signal.SIGTERM, "drain"), (signal.SIGINT, "stop")):
        try:
            loop.add_signal_handler(sig, _request_stop, kind)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    # Pipe reads are blocking; a dedicated thread forwards commands onto
    # the loop so the server never stalls on the supervisor.
    commands: asyncio.Queue = asyncio.Queue()

    def _pump() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = ("stop",)
            loop.call_soon_threadsafe(commands.put_nowait, message)
            if message and message[0] == "stop":
                return

    threading.Thread(target=_pump, name="repro-worker-pipe", daemon=True).start()

    silenced = False

    async def _heartbeat() -> None:
        nonlocal silenced
        while True:
            await asyncio.sleep(heartbeat_interval)
            if not silenced and faults.fire("heartbeat") is not None:
                # Permanently silent from here on: one missed beat is
                # below the supervisor's detection threshold.
                silenced = True
            if silenced:
                continue
            registry = obs.metrics_registry()
            if registry is not None:
                # Third element: this worker's metric snapshot.  Old
                # supervisors dispatch on message[0] and ignore the extra
                # field, so the widened tuple stays backward-compatible.
                message = ("heartbeat", index, registry.snapshot())
            else:
                message = ("heartbeat", index)
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                return

    async def _commands() -> None:
        while True:
            message = await commands.get()
            kind = message[0]
            if kind == "reload":
                _, new_path = message
                try:
                    new_state = await loop.run_in_executor(
                        None, _build_state, new_path
                    )
                    previous, current = await server.reload(new_state)
                except BaseException as exc:
                    conn.send(
                        ("reload_failed", index, f"{type(exc).__name__}: {exc}")
                    )
                    continue
                conn.send(("reloaded", index, previous, current))
            elif kind in ("stop", "drain"):
                _request_stop(kind)
                return

    heartbeat_task = asyncio.ensure_future(_heartbeat())
    command_task = asyncio.ensure_future(_commands())
    conn.send(("ready", index, port, server.fingerprint, os.getpid()))
    try:
        kind = await stop
    finally:
        heartbeat_task.cancel()
        command_task.cancel()
        for task in (heartbeat_task, command_task):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
    if kind == "drain":
        await server.drain(drain_timeout)
    else:
        await server.stop()
    return 0
