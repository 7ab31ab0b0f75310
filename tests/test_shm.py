"""Scan-side resources: per-worker fill buffers and the executor surface.

Pair scans run in order or on threads, each worker filling its own buffer
set; nothing is staged in shared memory.  Two invariants are pinned here:

* **thread buffers are released** — a scan that raises must not leave
  per-worker fill buffers pinned by the propagated exception's traceback
  (back-to-back failed scans at float32-state scale would hold double
  RSS);
* **there is no executor option** — ``n_workers`` alone picks threads or
  the in-order loop, so neither ``RevenueEngine`` nor ``EngineConfig``
  accepts an ``executor`` argument.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.api import EngineConfig
from repro.core.kernels import run_chunks
from repro.core.revenue import RevenueEngine


class TestEngineProcessParity:
    """The engine has one thread-or-serial scan path, picked by ``n_workers``."""

    def test_engine_validates_executor(self, small_wtp):
        with pytest.raises(TypeError, match="executor"):
            RevenueEngine(small_wtp, executor="process")


# -------------------------------------------------------------- config surface
class TestExecutorConfig:
    def test_invalid_executor_rejected(self):
        with pytest.raises(TypeError, match="executor"):
            EngineConfig(executor="threads")


# ----------------------------------------------------- thread buffer lifetime
class TestThreadBufferRelease:
    """Fill buffers must die with the scan, even when the scan dies first."""

    def collect_refs(self, n_workers, fail_from):
        refs = []

        def make_buffers():
            buffer = np.empty((1000, 8))
            refs.append(weakref.ref(buffer))
            return (buffer,)

        def process(buffers, start, stop):
            if start >= fail_from:
                raise RuntimeError("scan failed")

        chunks = [(i, i + 1) for i in range(8)]
        error = None
        try:
            run_chunks(chunks, make_buffers, process, n_workers)
        except RuntimeError as exc:
            error = exc
        return refs, error

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_buffers_released_after_clean_scan(self, n_workers):
        refs, error = self.collect_refs(n_workers, fail_from=99)
        assert error is None and len(refs) == min(n_workers, 8)
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_buffers_released_while_scan_exception_is_held(self, n_workers):
        """The regression: a held exception pinned one buffer set per worker
        through its traceback frames, doubling RSS across back-to-back
        failed scans at float32-state scale."""
        refs, error = self.collect_refs(n_workers, fail_from=2)
        assert error is not None and refs
        gc.collect()
        alive = [ref for ref in refs if ref() is not None]
        assert not alive, f"{len(alive)} buffer sets pinned by the held exception"
        del error
