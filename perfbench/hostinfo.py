"""Host and process readings from ``/proc``, plus the statistics the
benchmark reports.

Everything here reads; nothing writes.  CPU time and RSS of the server
come from its ``/proc/<pid>`` entries, so the program under test carries
no benchmark code.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np

def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def host_cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies summed over all CPUs since boot."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    ticks = [int(value) for value in fields[:8]]
    # user nice system idle iowait irq softirq steal; guest time is
    # already folded into user/nice.
    return ticks[7], sum(ticks)


class StealMeter:
    """Share of host CPU time stolen by the hypervisor between two reads."""

    def __init__(self) -> None:
        self._start = host_cpu_ticks()

    def share(self) -> float:
        steal, total = host_cpu_ticks()
        elapsed = total - self._start[1]
        return (steal - self._start[0]) / elapsed if elapsed > 0 else 0.0


def reference_seconds(repeats: int = 2) -> float:
    """Best-of-*repeats* time of a fixed job of NumPy and Python work.

    The job does no I/O and never changes, so its time tracks how fast the
    host runs this process right now.
    """
    values = np.random.default_rng(0).random(200_000)
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        np.sort(values)
        np.bincount((values * 1000).astype(np.int64))
        np.cumsum(values)
        json.loads(json.dumps(values[:20_000].tolist()))
        total = 0
        for number in range(100_000):
            total += number * number
        best = min(best, time.perf_counter() - started)
    return best


def process_cpu_seconds(pid: int) -> float:
    """CPU seconds the live threads of process *pid* have run.

    Read from each thread's ``schedstat`` (nanoseconds on a CPU) rather than
    ``stat``'s clock ticks, whose 10 ms steps are coarse next to one quote.
    """
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except OSError:
            continue  # the thread exited between the listing and the read
    return total / 1e9


def _status_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(pid: int) -> float:
    """Resident set size of process *pid*, in MiB."""
    return _status_kib(pid, "VmRSS") / 1024.0


def self_rss_kib() -> int:
    return _status_kib(os.getpid(), "VmRSS")


# ------------------------------------------------------------------ stats
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def relative_spread(values) -> float:
    """Interquartile distance over the median (0 for fewer than 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
