"""Quote serving over real HTTP: the server process and the load generator.

The server is ``python -m repro serve --metrics`` in a subprocess.  The
load generator is one asyncio client with two
keep-alive connections and pre-encoded request bodies; it runs three
phases:

* **closed** — each connection sends its next request when the previous
  one returns; gives throughput and server CPU per quote;
* **open** — requests fall due at a fixed rate and are timed from their
  due time, so a stall also delays the requests queued behind it;
* **churn** — the open loop again, with a ``POST /refit`` of a fresh 1%
  population delta at regular intervals on the same two connections.

Between closed-loop windows the client also sends refits with no quote
load in flight, so their round trip is the refit alone.

Every response is kept (status, fingerprint header, timings); a sample of
bodies is kept for the bit-identity check against a cold
``solution.quote``.  Per-layer figures come from scraping ``/metrics``
between phases.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Keep the body of every Nth response for the bit-identity check.
SAMPLE_STRIDE = 75


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def quote_request(rows) -> bytes:
    return _request("POST", "/quote", json.dumps({"rows": rows.tolist()}).encode())


def refit_request(delta) -> bytes:
    return _request("POST", "/refit", json.dumps({"delta": delta.to_dict()}).encode())


# ------------------------------------------------------------------ server
class ServerProcess:
    """``repro serve`` in a subprocess, logging to a file in the work dir."""

    def __init__(self, solution: Path, population: Path, log: Path):
        self.log = log
        command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--solution", str(solution),
            "--wtp", str(population),
            "--port", "0",
            "--metrics",
        ]
        self._log_handle = open(log, "w")
        self.proc = subprocess.Popen(
            command, stdout=self._log_handle, stderr=subprocess.STDOUT,
            env=dict(os.environ),
        )
        self.port: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the banner names the port and ``/readyz`` answers 200."""
        deadline = time.monotonic() + timeout
        marker = "http://127.0.0.1:"
        while self.port is None:
            text = self.log.read_text()
            at = text.find(marker)
            if at >= 0 and "\n" in text[at:]:
                self.port = int(text[at + len(marker):].split("\n", 1)[0].strip("/ "))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server failed to start:\n{text}")
            time.sleep(0.01)
        while True:
            try:
                status, _, _ = asyncio.run(_one_shot(self.port, _request("GET", "/readyz")))
            except OSError:
                status = None
            if status == 200:
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server never became ready:\n{self.log.read_text()}")
            time.sleep(0.02)

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it is still running."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_handle.close()


# ------------------------------------------------------------------ client
class Connection:
    """One keep-alive HTTP/1.1 connection with pre-encoded requests."""

    def __init__(self, port: int):
        self.port = port
        self.reader = self.writer = None

    async def request(self, raw: bytes) -> tuple[int, str | None, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length, fingerprint, close = 0, None, False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-solution-fingerprint":
                fingerprint = value.strip()
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, fingerprint, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
            self.reader = self.writer = None


async def _one_shot(port: int, raw: bytes):
    connection = Connection(port)
    try:
        return await connection.request(raw)
    finally:
        await connection.close()


@dataclass
class Sample:
    """One quote request as the client saw it."""

    seq: int
    pool_index: int
    due: float
    sent: float
    done: float
    status: int
    fingerprint: str | None
    body: bytes | None

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class RefitSample:
    index: int
    sent: float
    done: float
    status: int
    payload: dict


@dataclass
class Phase:
    started: float
    ended: float = 0.0
    samples: list[Sample] = field(default_factory=list)
    refits: list[RefitSample] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    #: ``(time, value)`` readings of the phase's probe.
    probes: list[tuple[float, float]] = field(default_factory=list)


class LoadGenerator:
    """Closed, open and churn phases over two keep-alive connections."""

    def __init__(self, port: int, pool: list[bytes]):
        self.pool = pool
        self.connections = [Connection(port), Connection(port)]
        self._seq = 0

    def _next(self) -> tuple[int, int]:
        seq = self._seq
        self._seq += 1
        return seq, seq % len(self.pool)

    async def _send(self, connection, phase: Phase, seq: int, index: int, due: float):
        sent = time.perf_counter()
        try:
            status, fingerprint, body = await connection.request(self.pool[index])
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await connection.close()
            status, fingerprint, body = 0, None, b""
        done = time.perf_counter()
        keep = body if seq % SAMPLE_STRIDE == 0 else None
        phase.samples.append(
            Sample(seq, index, due, sent, done, status, fingerprint, keep)
        )

    async def closed(self, duration: float) -> Phase:
        phase = Phase(time.perf_counter())
        deadline = phase.started + duration

        async def loop(connection):
            while time.perf_counter() < deadline:
                seq, index = self._next()
                await self._send(connection, phase, seq, index, time.perf_counter())

        await asyncio.gather(*(loop(c) for c in self.connections))
        phase.ended = time.perf_counter()
        return phase

    async def open(self, rate: float, n_requests: int, refits=(), probe=None) -> Phase:
        """*n_requests* due at *rate* per second.

        *refits* are ``(number, request bytes)`` pairs sent at even
        intervals across the phase; *probe*, when given, is read when the
        first request falls due and when the last one does.
        """
        free: asyncio.Queue = asyncio.Queue()
        for connection in self.connections:
            free.put_nowait(connection)
        start = time.perf_counter() + 0.01
        phase = Phase(start)

        async def one(seq: int, index: int, due: float):
            connection = await free.get()
            try:
                await self._send(connection, phase, seq, index, due)
            finally:
                free.put_nowait(connection)

        async def refitter():
            interval = n_requests / rate / (len(refits) + 1)
            for slot, (number, raw) in enumerate(refits):
                due = start + interval * (slot + 1)
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                connection = await free.get()
                try:
                    phase.refits.append(await self.refit_one(number, raw, connection))
                finally:
                    free.put_nowait(connection)

        async def prober():
            for due in (start, start + (n_requests - 1) / rate):
                await asyncio.sleep(max(0.0, due - time.perf_counter()))
                phase.probes.append((time.perf_counter(), probe()))

        tasks = [asyncio.ensure_future(refitter())] if refits else []
        if probe is not None:
            tasks.append(asyncio.ensure_future(prober()))
        for k in range(n_requests):
            due = start + k / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lateness.append(time.perf_counter() - due)
            seq, index = self._next()
            tasks.append(asyncio.ensure_future(one(seq, index, due)))
        await asyncio.gather(*tasks)
        phase.ended = time.perf_counter()
        return phase

    async def refit_one(self, number: int, raw: bytes, connection=None) -> RefitSample:
        """One ``POST /refit``; *number* orders it in the delta chain."""
        connection = connection or self.connections[0]
        sent = time.perf_counter()
        try:
            status, _, body = await connection.request(raw)
            payload = json.loads(body) if body else {}
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await connection.close()
            status, payload = 0, {}
        return RefitSample(number, sent, time.perf_counter(), status, payload)

    async def get(self, path: str) -> tuple[int, bytes]:
        status, _, body = await self.connections[0].request(_request("GET", path))
        return status, body

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()


# ------------------------------------------------------------ exposition
def scrape(families: dict, name: str, **labels) -> float:
    """Sum of the samples called *name* whose labels include *labels*."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    total = 0.0
    for family in families.values():
        for key, value in family["samples"].items():
            sample_name, _, label_text = key.partition("{")
            if sample_name == name and all(item in label_text for item in wanted):
                total += value
    return total
