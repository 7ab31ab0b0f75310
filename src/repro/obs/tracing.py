"""Lightweight tracing: spans with wall/CPU time, ring buffer, JSONL sink.

A span is a ``with`` block around a unit of work — a scan, a batch, a
reload — that records one structured event when it exits::

    with span("scan.pure_prices", columns=64, workers=2):
        ...

Events land in an in-memory ring buffer (bounded, oldest dropped) and,
when a sink path is configured, are appended as JSON lines so a crashed
process still leaves its trace behind.  Like metrics, tracing is off by
default: :func:`span` costs one ``None`` check and returns a shared no-op
context manager when no tracer is installed.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import IO

__all__ = [
    "Tracer",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracer",
]


class Tracer:
    """Ring buffer of span events with an optional JSONL sink."""

    def __init__(self, capacity: int = 2048, sink_path: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.sink_path = sink_path
        self._sink: IO[str] | None = None
        if sink_path is not None:
            self._sink = open(sink_path, "a", encoding="utf-8")

    def record(self, event: dict) -> None:
        self._events.append(event)
        sink = self._sink
        if sink is not None:
            line = json.dumps(event, sort_keys=True)
            with self._lock:
                try:
                    sink.write(line + "\n")
                    sink.flush()
                except ValueError:  # closed sink during shutdown races
                    pass

    def events(self) -> list[dict]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def close(self) -> None:
        sink = self._sink
        self._sink = None
        if sink is not None:
            with self._lock:
                sink.close()


class _Span:
    __slots__ = ("_cpu0", "_fields", "_name", "_tracer", "_wall0")

    def __init__(self, tracer: Tracer, name: str, fields: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._wall0 = time.monotonic()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        event = {
            "name": self._name,
            "ts": time.time(),
            "wall_s": time.monotonic() - self._wall0,
            "cpu_s": time.thread_time() - self._cpu0,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self._fields:
            event.update(self._fields)
        self._tracer.record(event)
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_TRACER: Tracer | None = None


def span(name: str, **fields):
    """Context manager timing one unit of work; no-op when tracing is off."""
    active = _TRACER
    if active is None:
        return _NULL_SPAN
    return _Span(active, name, fields)


def enable_tracing(sink_path: str | None = None, capacity: int = 2048) -> Tracer:
    """Install (or replace) the process tracer and return it."""
    global _TRACER
    previous = _TRACER
    _TRACER = Tracer(capacity=capacity, sink_path=sink_path)
    if previous is not None:
        previous.close()
    return _TRACER


def disable_tracing() -> None:
    global _TRACER
    previous = _TRACER
    _TRACER = None
    if previous is not None:
        previous.close()


def tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _TRACER
