"""Streaming pair-scan kernels: memory-bounded batch pricing.

The O(M·N²) pair scans at the heart of both heuristics (Section 5.3.2)
price up to ~N²/2 candidate bundles per iteration.  Materializing all the
candidates' per-user columns at once costs O(M·N²) memory — ~40 GB at one
million users and a hundred items — long before a single bundle is priced.

This module streams those scans instead: candidate columns are *filled* a
chunk at a time into a reusable ``(M, width)`` buffer whose size is capped
by a configurable ``chunk_elements`` budget, and each chunk runs through
the vectorized pricing kernels of :mod:`repro.core.pricing`.  Because every
pricing kernel is column-independent, chunked results are bit-identical to
the unchunked scan.

Peak working memory of a streamed scan is independent of how many
candidates are scanned.  Both scans cap their chunks at
:data:`SCAN_BLOCK_ELEMENTS` whenever chunking is on, so the fill buffers
and the histogram kernels' work buffers stay cache-sized (a few MB) below
any larger ``chunk_elements``; the budget remains their ceiling.

Parallel execution
------------------
The chunk loop is embarrassingly parallel: chunks touch disjoint output
slices and numpy releases the GIL inside the pricing kernels.  ``n_workers``
alone decides how the *same* chunk schedule runs:

``n_workers == 1``
    One buffer set, chunks in order — the reference execution.
``n_workers > 1``
    The chunks fan out over a ``ThreadPoolExecutor``; every worker owns a
    private fill buffer and processes a strided subset of the serial
    schedule.  Fill callbacks run concurrently; the engine's fills only
    gather from row stacks built before the scan starts and never written
    during it, so they need no lock.  Speedup is capped by the GIL-free
    fraction of the scan (the numpy gathers and kernels release it, the
    Python-level chunk bookkeeping does not).

Because the chunk schedule never depends on ``n_workers``, and every
chunk's pricing is column-independent and internally reduced through
fixed-tree sums, threaded results are bit-identical to the in-order loop
for any worker count and chunk budget.

Resilience
----------
That same chunk purity makes a scan *recoverable*: it may be re-executed
after a failure without changing a bit of the result.  When the thread
pool cannot start (an :class:`~repro.errors.ExecutorError`, e.g. the
process thread limit is exhausted) the scan falls back to the in-order
loop, emitting a :class:`~repro.core.retry.DegradedExecutionWarning`
instead of aborting the fit.  A deterministic exception raised by the fill
or pricing arithmetic would fail identically in order and propagates
immediately.  The fallback is exercised deterministically through the
``thread_pool`` site of :mod:`repro.core.faults`.
"""

from __future__ import annotations

import os
import time
import traceback
import warnings
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import obs
from repro.core import faults
from repro.core.adoption import AdoptionModel
from repro.core.pricing import (
    DEFAULT_CHUNK_ELEMENTS,
    PriceGrid,
    price_mixed_bundle_batch,
    price_pure_batch,
)
from repro.core.retry import DegradedExecutionWarning, record_degradation
from repro.errors import ExecutorError, ValidationError

#: Block cap of both pair scans, in elements of fill buffer per chunk
#: (1 MB of float64): the pure scan's one ``(M, width)`` buffer, or the
#: mixed scan's three together.  The histogram kernels make a few passes
#: over each chunk (fill, division, cast, ``bincount``); a block this size
#: stays in a per-core L2 cache across them, where a
#: ``chunk_elements``-sized block streams every pass through DRAM.
#: Pricing is column-independent, so the cap changes timings and memory,
#: never a bit of the result.
SCAN_BLOCK_ELEMENTS = 1 << 17

#: Per-candidate fill buffers of the mixed scan: one ``(M, width)`` column
#: each for bundle WTP, base score, and base payment.  ``chunk_width``
#: divides the element budget by this count so the *combined* fill
#: allocation — not one buffer of the three — honours ``chunk_elements``.
MIXED_FILL_BUFFERS = 3


def check_chunk_elements(chunk_elements: int | None) -> int | None:
    """Validate a chunk budget; ``None`` disables chunking (unbounded)."""
    if chunk_elements is None:
        return None
    if not isinstance(chunk_elements, (int, np.integer)) or isinstance(
        chunk_elements, bool
    ):
        raise ValidationError(
            f"chunk_elements must be a positive int or None, got {chunk_elements!r}"
        )
    if chunk_elements < 1:
        raise ValidationError(
            f"chunk_elements must be a positive int or None, got {chunk_elements!r}"
        )
    return int(chunk_elements)


def check_n_workers(n_workers: int) -> int:
    """Validate a worker count (a positive int; 1 means serial execution)."""
    if not isinstance(n_workers, (int, np.integer)) or isinstance(n_workers, bool):
        raise ValidationError(
            f"n_workers must be a positive int, got {n_workers!r}"
        )
    if n_workers < 1:
        raise ValidationError(
            f"n_workers must be a positive int, got {n_workers!r}"
        )
    return int(n_workers)


def available_cpus() -> int:
    """CPUs this process may actually schedule on.

    ``os.cpu_count()`` reports the *host's* cores, which overcounts inside
    cpu-limited containers (docker ``--cpus``, taskset); the affinity mask
    is the honest bound on parallel speedup where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count() or 1


def _release_scan_frames(error: BaseException) -> None:
    """Drop fill-buffer references pinned by a failed scan's traceback.

    A worker (or the serial loop) that raises leaves its frames — and the
    ``process``/fill frames below it, whose parameters reference one full
    per-worker buffer set — alive inside ``error.__traceback__`` for as
    long as the caller holds the exception.  At float32-state scale that
    silently doubles RSS across back-to-back scans whose first attempt
    failed.  ``traceback.clear_frames`` clears the locals of every
    *finished* frame in the chain (still-executing frames are skipped),
    keeping the traceback printable while releasing the buffers.
    """
    traceback.clear_frames(error.__traceback__)


def run_chunks(
    chunks: Sequence[tuple[int, int]],
    make_buffers: Callable[[], tuple],
    process: Callable[[tuple, int, int], None],
    n_workers: int,
) -> None:
    """Execute ``process(buffers, start, stop)`` over every chunk.

    Serial when ``n_workers == 1`` (or there is a single chunk); otherwise
    each worker allocates its own buffer set via ``make_buffers`` and walks
    a strided subset of the chunk schedule.  The schedule itself never
    depends on ``n_workers``, and chunks write disjoint output slices, so
    parallel results are bit-identical to serial ones.  Buffer sets are
    released on every exit path — including through a propagating fill
    exception, whose traceback would otherwise pin one buffer set per
    worker (see :func:`_release_scan_frames`).
    """
    n_workers = min(check_n_workers(n_workers), len(chunks))
    if n_workers <= 1:
        buffers = make_buffers()
        try:
            for start, stop in chunks:
                process(buffers, start, stop)
        except BaseException as error:
            _release_scan_frames(error)
            raise
        finally:
            del buffers
        return

    def worker(index: int) -> None:
        buffers = make_buffers()
        try:
            for start, stop in chunks[index::n_workers]:
                process(buffers, start, stop)
        finally:
            del buffers

    if faults.fire("thread_pool") is not None:
        raise ExecutorError(
            "injected thread-pool failure (as if the process thread limit "
            "were exhausted)"
        )
    try:
        pool = ThreadPoolExecutor(max_workers=n_workers)
    except (RuntimeError, OSError) as error:
        # Thread creation can fail under RLIMIT_NPROC / memory pressure;
        # surface it as an ExecutorError so the scan can fall to serial.
        raise ExecutorError(f"thread pool unavailable: {error}") from error
    with pool:
        futures = [pool.submit(worker, index) for index in range(n_workers)]
        errors = [future.exception() for future in futures]
    first_error = next((error for error in errors if error is not None), None)
    if first_error is not None:
        # Every failed worker's exception — not only the one re-raised —
        # pins its frames (and through them one buffer set) while
        # referenced; release them all before propagating.
        for error in errors:
            if error is not None:
                _release_scan_frames(error)
        raise first_error


def _run_chunks_resilient(
    scan: str, chunks, make_buffers, process, n_workers: int
) -> None:
    """:func:`run_chunks` on threads, falling back to the in-order loop when
    the pool cannot start (warned and counted, never silent)."""
    if n_workers > 1:
        try:
            run_chunks(chunks, make_buffers, process, n_workers)
            return
        except ExecutorError as error:
            _release_scan_frames(error)
            record_degradation(scan, "thread", "serial")
            warnings.warn(
                DegradedExecutionWarning(scan, "thread", "serial", error),
                stacklevel=3,
            )
    run_chunks(chunks, make_buffers, process, 1)


def chunk_width(
    n_columns: int, n_users: int, chunk_elements: int | None, n_buffers: int = 1
) -> int:
    """Columns per chunk under the element budget (at least one).

    ``n_buffers`` is how many ``(n_users, width)`` buffers the caller
    allocates per chunk: the budget caps their *combined* footprint, so a
    scan that fills several per-column arrays (the mixed scan fills
    :data:`MIXED_FILL_BUFFERS`) gets proportionally narrower chunks.
    """
    if chunk_elements is None or n_columns == 0:
        return max(1, n_columns)
    return max(1, min(n_columns, chunk_elements // max(1, n_users * n_buffers)))


def _block_budget(chunk_elements: int | None) -> int | None:
    """A scan's per-chunk element budget: *chunk_elements* capped at
    :data:`SCAN_BLOCK_ELEMENTS` (``None`` still means one chunk)."""
    if chunk_elements is None:
        return None
    return min(chunk_elements, SCAN_BLOCK_ELEMENTS)


def iter_chunks(n_columns: int, width: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` column ranges of at most *width* columns."""
    for start in range(0, n_columns, width):
        yield start, min(start + width, n_columns)


def _fill_buffer(n_users: int, width: int) -> np.ndarray:
    """One ``(n_users, width)`` fill buffer, column-major.

    Fortran order makes every candidate column ``block[:, k]`` contiguous,
    so a fill writes each column in one unit-stride pass and the pricing
    kernel reads it the same way.
    """
    return np.empty((n_users, width), dtype=np.float64, order="F")


# -------------------------------------------------------------- pure streaming
def _record_scan(scan: str, n_chunks: int, elapsed: float) -> None:
    """Scan-level metrics: one counter bump and one observation per scan.

    Deliberately not per-chunk — the guard helpers cost two dict lookups
    when metrics are on, which is noise at scan granularity but would be
    measurable inside the chunk loop of a wide scan.
    """
    obs.counter_inc("repro_scan_chunks_total", n_chunks,
                    help="Chunks scheduled by streamed scans.",
                    labelnames=("scan",), scan=scan)
    obs.counter_inc("repro_scans_total", 1.0, help="Streamed scans completed.",
                    labelnames=("scan",), scan=scan)
    obs.observe("repro_scan_seconds", elapsed, help="Wall time per streamed scan.",
                labelnames=("scan",), scan=scan)


def stream_pure_prices(
    fill: Callable[[np.ndarray, int, int], None],
    n_columns: int,
    n_users: int,
    adoption: AdoptionModel,
    grid: PriceGrid,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
    n_workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Streamed :func:`~repro.core.pricing.price_pure_batch` over *n_columns*.

    ``fill(block, start, stop)`` must write the per-user WTP columns for
    candidates ``[start, stop)`` into ``block`` (shape ``(n_users,
    stop-start)``, float64).  ``block`` is column-major (Fortran order),
    so each candidate column ``block[:, k]`` is contiguous and a fill can
    write it in one unit-stride ``out=`` pass.  Buffers are reused across
    chunks, so ``fill`` must overwrite every entry it is handed; with
    ``n_workers > 1`` chunks run concurrently on threads (one private
    buffer per worker), so ``fill`` must also be thread-safe.

    Chunks hold at most ``min(chunk_elements, SCAN_BLOCK_ELEMENTS)``
    elements (at least one column); ``chunk_elements=None`` prices every
    column in one chunk.  The ``scan.pure_prices`` span records the width
    used.  Returns ``(prices, revenues, buyers)`` of length ``n_columns`` —
    bit-identical to pricing one giant stacked array, at bounded memory,
    for any chunk budget and worker count.  A thread pool that cannot
    start degrades the scan to the in-order loop (see the module
    docstring), which is bit-identical too.
    """
    prices = np.zeros(n_columns)
    revenues = np.zeros(n_columns)
    buyers = np.zeros(n_columns)
    if n_columns == 0:
        return prices, revenues, buyers
    width = chunk_width(n_columns, n_users, _block_budget(chunk_elements))
    chunks = list(iter_chunks(n_columns, width))
    n_workers = min(check_n_workers(n_workers), len(chunks))

    def make_buffers() -> tuple:
        return (_fill_buffer(n_users, width),)

    def process(buffers: tuple, start: int, stop: int) -> None:
        block = buffers[0][:, : stop - start]
        fill(block, start, stop)
        p, r, b = price_pure_batch(block, adoption, grid, chunk_elements=chunk_elements)
        prices[start:stop] = p
        revenues[start:stop] = r
        buyers[start:stop] = b

    started = time.monotonic()
    with obs.span("scan.pure_prices", columns=n_columns, users=n_users,
                  chunks=len(chunks), width=width, workers=n_workers):
        _run_chunks_resilient("pure-scan", chunks, make_buffers, process, n_workers)
    _record_scan("pure", len(chunks), time.monotonic() - started)
    return prices, revenues, buyers


# ------------------------------------------------------------- mixed streaming
def stream_mixed_merges(
    fill: Callable[
        [np.ndarray, np.ndarray, np.ndarray, int, int], tuple[np.ndarray, np.ndarray]
    ],
    n_pairs: int,
    n_users: int,
    adoption: AdoptionModel,
    grid: PriceGrid,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
    n_workers: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Streamed mixed-merge pricing over *n_pairs* candidates.

    ``fill(wtp_block, score_block, pay_block, start, stop)`` must write
    the bundle-WTP and base choice-state columns of candidates ``[start,
    stop)`` (each block ``(n_users, stop-start)``, float64) and return
    their Guiltinan intervals as two arrays ``(floors, ceilings)``.  The
    blocks are column-major (Fortran order), so ``block.T`` is a row-major
    ``(stop-start, n_users)`` array a fill can write with one ``out=``
    pass; the kernel then prices the whole block in one pass.  Buffers are
    reused across chunks, so ``fill`` must overwrite every entry it is
    handed; it must also be thread-safe when ``n_workers > 1``.

    Chunks hold at most ``min(chunk_elements, SCAN_BLOCK_ELEMENTS)``
    elements across the three fill buffers (:data:`MIXED_FILL_BUFFERS`
    share the budget; at least one pair per chunk), so only one cache-sized
    block of pair columns is alive per worker: scanning all ~N²/2
    candidate merges needs O(block · n_workers) rather than O(M·N²) memory.
    ``chunk_elements=None`` prices every pair in one chunk.  The
    ``scan.mixed_merges`` span records the width used.

    Each chunk runs :func:`~repro.core.pricing.price_mixed_bundle_batch`,
    whose body the adoption model picks (the step-histogram scan under
    deterministic adoption, the band scan, whose (levels × users × pairs)
    temporaries ``chunk_elements`` bounds, under sigmoid adoption).  The
    chunk schedule never depends on the worker count, and both bodies are
    column-independent, so results are bit-identical for any chunk budget
    and worker count.

    Returns ``(prices, gains, upgraded, feasible)`` of length ``n_pairs``.
    A thread pool that cannot start degrades the scan to the in-order
    loop, exactly as in :func:`stream_pure_prices`.
    """
    prices = np.zeros(n_pairs)
    gains = np.full(n_pairs, -np.inf)
    upgraded = np.zeros(n_pairs)
    feasible = np.zeros(n_pairs, dtype=bool)
    if n_pairs == 0:
        return prices, gains, upgraded, feasible
    width = chunk_width(
        n_pairs, n_users, _block_budget(chunk_elements), MIXED_FILL_BUFFERS
    )
    chunks = list(iter_chunks(n_pairs, width))
    n_workers = min(check_n_workers(n_workers), len(chunks))

    def make_buffers() -> tuple:
        # Bundle WTP, base score, base payment.
        return tuple(_fill_buffer(n_users, width) for _ in range(MIXED_FILL_BUFFERS))

    def process(buffers: tuple, start: int, stop: int) -> None:
        blocks = [buffer[:, : stop - start] for buffer in buffers]
        floors, ceilings = fill(*blocks, start, stop)
        p, g, u, f = price_mixed_bundle_batch(
            *blocks,
            floors,
            ceilings,
            adoption,
            grid,
            chunk_elements=chunk_elements,
        )
        prices[start:stop] = p
        gains[start:stop] = g
        upgraded[start:stop] = u
        feasible[start:stop] = f

    started = time.monotonic()
    with obs.span("scan.mixed_merges", pairs=n_pairs, users=n_users,
                  chunks=len(chunks), width=width, workers=n_workers):
        _run_chunks_resilient("mixed-scan", chunks, make_buffers, process, n_workers)
    _record_scan("mixed", len(chunks), time.monotonic() - started)
    return prices, gains, upgraded, feasible
