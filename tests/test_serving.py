"""Serving subsystem: bit-identity, deadlines, shedding, degradation, reload.

The contract under test, end to end: every quote the
:class:`~repro.serving.QuoteServer` successfully answers — micro-batched,
degraded to sequential, or served right after a hot reload — is
**bit-identical** to calling ``solution.quote()`` cold on that request's
rows, and every failure mode is a *typed, bounded* error (504 deadline,
429 shed, 408 stalled read), never a wrong price or a hung request.

No pytest-asyncio: each test drives its own event loop via ``asyncio.run``
so the suite stays stdlib-only.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import BundlingSolver, EngineConfig
from repro.api.solution import BundlingSolution
from repro.core import faults
from repro.core.retry import DegradedExecutionWarning, RetryPolicy
from repro.errors import (
    QuoteDeadlineError,
    ReloadError,
    ServerOverloadedError,
    ServingError,
    ValidationError,
)
from repro.serving import QuoteServer, ServingState

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def mixed_solution(small_wtp):
    return BundlingSolver("mixed_greedy", EngineConfig(theta=0.15)).fit(small_wtp)


@pytest.fixture(scope="module")
def pure_solution(small_wtp):
    return BundlingSolver("components", EngineConfig(theta=0.1)).fit(small_wtp)


@pytest.fixture(scope="module")
def requests_by_size(mixed_solution):
    """Deterministic request row blocks of assorted sizes."""
    rng = np.random.default_rng(3)
    return [
        rng.uniform(0.0, 12.0, size=(size, mixed_solution.n_items))
        for size in (1, 2, 5, 3, 13, 1, 8)
    ]


@pytest.fixture()
def clean_faults(monkeypatch):
    """Arm/disarm fault injection per test without cross-test leakage."""
    yield monkeypatch
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    faults.reset()


def _assert_identical(served, cold):
    __tracebackhide__ = True
    assert np.array_equal(
        np.asarray(served.payments, dtype=np.float64),
        np.asarray(cold.payments, dtype=np.float64),
    )
    assert served.revenue == cold.revenue
    assert served.coverage == cold.coverage


# ============================================================= warm kernel
class TestServingStateBitIdentity:
    """The warm batch kernel against cold ``solution.quote()``, exactly."""

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 7])
    def test_batched_equals_cold_mixed(
        self, mixed_solution, requests_by_size, batch_size
    ):
        state = mixed_solution.serving_state()
        blocks = [state.prepare_rows(rows) for rows in requests_by_size[:batch_size]]
        for quote, rows in zip(state.quote_batch(blocks), requests_by_size):
            _assert_identical(quote, mixed_solution.quote(rows))
            assert quote.batched is True
            assert quote.fingerprint == mixed_solution.fingerprint()

    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_batched_equals_cold_pure(
        self, pure_solution, requests_by_size, batch_size
    ):
        state = pure_solution.serving_state()
        blocks = [state.prepare_rows(rows) for rows in requests_by_size[:batch_size]]
        for quote, rows in zip(state.quote_batch(blocks), requests_by_size):
            _assert_identical(quote, pure_solution.quote(rows))

    def test_sequential_equals_cold(self, mixed_solution, requests_by_size):
        state = mixed_solution.serving_state()
        for rows in requests_by_size:
            quote = state.quote_single(state.prepare_rows(rows))
            _assert_identical(quote, mixed_solution.quote(rows))
            assert quote.batched is False

    def test_batched_equals_cold_fresh_fit(self, small_wtp, requests_by_size):
        solution = BundlingSolver("components", EngineConfig(theta=0.1)).fit(small_wtp)
        state = ServingState(solution)
        blocks = [state.prepare_rows(rows) for rows in requests_by_size]
        for quote, rows in zip(state.quote_batch(blocks), requests_by_size):
            _assert_identical(quote, solution.quote(rows))

    def test_prepare_rejects_bad_rows(self, mixed_solution):
        state = mixed_solution.serving_state()
        n = mixed_solution.n_items
        good = np.ones((2, n))
        for bad in (np.nan, np.inf, -np.inf):
            rows = good.copy()
            rows[1, 0] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                state.prepare_rows(rows)
        with pytest.raises(ValidationError, match="negative"):
            state.prepare_rows(good * -1.0)
        with pytest.raises(ValidationError, match="items"):
            state.prepare_rows(np.ones((2, n + 1)))
        with pytest.raises(ValidationError):
            state.prepare_rows([[1.0, "x"]])

    def test_quote_batch_consults_fault_site(
        self, mixed_solution, requests_by_size, clean_faults
    ):
        state = mixed_solution.serving_state()
        blocks = [state.prepare_rows(requests_by_size[0])]
        clean_faults.setenv(faults.FAULT_ENV, "quote_batch:always")
        with pytest.raises(ServingError, match="injected"):
            state.quote_batch(blocks)
        # The sequential path is the recovery: it must not consult the site.
        quote = state.quote_single(blocks[0])
        _assert_identical(quote, mixed_solution.quote(requests_by_size[0]))


# ============================================================ server paths
class TestQuoteServer:
    def test_concurrent_quotes_bit_identical(self, mixed_solution, requests_by_size):
        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.01, max_batch=16)
            await server.start("127.0.0.1", 0)
            try:
                return await asyncio.gather(
                    *[server.quote(rows) for rows in requests_by_size]
                )
            finally:
                await server.stop()

        quotes = asyncio.run(main())
        for quote, rows in zip(quotes, requests_by_size):
            _assert_identical(quote, mixed_solution.quote(rows))
            assert quote.fingerprint == mixed_solution.fingerprint()

    def test_deadline_expires_when_kernel_never_answers(self, mixed_solution):
        async def main():
            # The batcher is never started: the ticket sits admitted but
            # unpriced, and the handler-side wait must still bound the
            # response by the request deadline.
            server = QuoteServer(mixed_solution, deadline=0.05)
            with pytest.raises(QuoteDeadlineError, match="deadline"):
                await server.quote(np.ones((1, mixed_solution.n_items)))
            assert server.deadline_timeouts == 1
            return server

        asyncio.run(main())

    def test_deadline_expires_while_queued(self, mixed_solution):
        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.2, max_batch=64)
            await server.start("127.0.0.1", 0)
            try:
                rows = np.ones((1, mixed_solution.n_items))
                # Wake the batcher with a long-deadline ticket, then submit
                # one whose deadline lapses inside the accumulation window.
                long = asyncio.create_task(server.quote(rows, deadline=5.0))
                await asyncio.sleep(0.01)
                with pytest.raises(QuoteDeadlineError):
                    await server.quote(rows, deadline=0.02)
                _assert_identical(await long, mixed_solution.quote(rows))
            finally:
                await server.stop()

        asyncio.run(main())

    def test_overload_sheds_with_typed_error(self, mixed_solution):
        async def main():
            server = QuoteServer(mixed_solution, queue_depth=2, deadline=5.0)
            rows = np.ones((1, mixed_solution.n_items))
            # No batcher running: the first two requests fill the queue...
            first = asyncio.create_task(server.quote(rows))
            second = asyncio.create_task(server.quote(rows))
            await asyncio.sleep(0.01)
            # ...and the third is shed immediately, not queued.
            with pytest.raises(ServerOverloadedError, match="shed"):
                await server.quote(rows)
            assert server.admission.shed == 1
            assert server.health()["queue"]["saturated"] is True
            for task in (first, second):
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task

        asyncio.run(main())

    def test_faulted_batch_kernel_degrades_sequentially(
        self, mixed_solution, requests_by_size, clean_faults
    ):
        clean_faults.setenv(faults.FAULT_ENV, "quote_batch:always")

        async def main():
            server = QuoteServer(
                mixed_solution,
                batch_window=0.01,
                retry=RetryPolicy(max_attempts=2, backoff=0.001, degrade=True),
            )
            await server.start("127.0.0.1", 0)
            try:
                return await asyncio.gather(
                    *[server.quote(rows) for rows in requests_by_size]
                ), server.batcher.degraded_batches, server.health()["status"]
            finally:
                await server.stop()

        with pytest.warns(DegradedExecutionWarning) as caught:
            quotes, degraded_batches, status = asyncio.run(main())
        # Same prices, flagged as sequentially served, health says degraded.
        for quote, rows in zip(quotes, requests_by_size):
            _assert_identical(quote, mixed_solution.quote(rows))
            assert quote.batched is False
        assert degraded_batches >= 1
        assert status == "degraded"
        warning = caught[0].message
        assert (warning.scan, warning.from_executor, warning.to_executor) == (
            "quote-batch", "batched", "sequential",
        )

    def test_transient_batch_fault_retries_batched(
        self, mixed_solution, requests_by_size, clean_faults
    ):
        clean_faults.setenv(faults.FAULT_ENV, "quote_batch:once")

        async def main():
            server = QuoteServer(
                mixed_solution,
                batch_window=0.01,
                retry=RetryPolicy(max_attempts=3, backoff=0.001, degrade=True),
            )
            await server.start("127.0.0.1", 0)
            try:
                return await server.quote(requests_by_size[0])
            finally:
                await server.stop()

        quote = asyncio.run(main())
        # One transient fault is absorbed by the retry, still batched.
        _assert_identical(quote, mixed_solution.quote(requests_by_size[0]))
        assert quote.batched is True

    def test_no_degrade_policy_fails_typed(self, mixed_solution, clean_faults):
        clean_faults.setenv(faults.FAULT_ENV, "quote_batch:always")

        async def main():
            server = QuoteServer(
                mixed_solution,
                batch_window=0.001,
                retry=RetryPolicy(max_attempts=1, degrade=False),
            )
            await server.start("127.0.0.1", 0)
            try:
                with pytest.raises(ServingError, match="injected"):
                    await server.quote(np.ones((1, mixed_solution.n_items)))
            finally:
                await server.stop()

        asyncio.run(main())

    def test_hot_reload_is_coherent_mid_flight(
        self, mixed_solution, pure_solution, requests_by_size, tmp_path
    ):
        path = tmp_path / "replacement.json"
        pure_solution.save(path)
        old_fp = mixed_solution.fingerprint()
        new_fp = pure_solution.fingerprint()

        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.05, max_batch=64)
            await server.start("127.0.0.1", 0)
            try:
                # Admit a wave, reload while it is still accumulating, then
                # admit a second wave — all concurrently.
                wave1 = [
                    asyncio.create_task(server.quote(rows))
                    for rows in requests_by_size
                ]
                await asyncio.sleep(0.0)
                previous, current = await server.reload(path)
                wave2 = [
                    asyncio.create_task(server.quote(rows))
                    for rows in requests_by_size
                ]
                return previous, current, await asyncio.gather(*wave1, *wave2)
            finally:
                await server.stop()

        previous, current, quotes = asyncio.run(main())
        assert (previous, current) == (old_fp, new_fp)
        by_fp = {old_fp: mixed_solution, new_fp: pure_solution}
        for quote, rows in zip(quotes, [*requests_by_size, *requests_by_size]):
            # Coherence: whichever state priced the request, the stamped
            # fingerprint names it and the prices are that solution's own.
            _assert_identical(quote, by_fp[quote.fingerprint].quote(rows))
        # The second wave ran entirely after the swap.
        assert all(q.fingerprint == new_fp for q in quotes[len(requests_by_size):])

    def test_failed_reload_keeps_old_state(
        self, mixed_solution, pure_solution, requests_by_size, tmp_path, clean_faults
    ):
        path = tmp_path / "replacement.json"
        pure_solution.save(path)

        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.001)
            await server.start("127.0.0.1", 0)
            try:
                clean_faults.setenv(faults.FAULT_ENV, "reload:always")
                with pytest.raises(ReloadError, match="previous state retained"):
                    await server.reload(path)
                assert server.reload_failures == 1
                with pytest.raises(ReloadError):
                    await server.reload(tmp_path / "missing.json")
                clean_faults.delenv(faults.FAULT_ENV)
                faults.reset()
                assert server.fingerprint == mixed_solution.fingerprint()
                return await server.quote(requests_by_size[0]), server.health()
            finally:
                await server.stop()

        quote, health = asyncio.run(main())
        _assert_identical(quote, mixed_solution.quote(requests_by_size[0]))
        assert health["counters"]["reload_failures"] == 2
        assert health["last_reload_error"]


# ================================================================ HTTP edge
async def _http(reader, writer, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = (await reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
    status = int(status_line[0].split()[1])
    headers = {}
    for line in status_line[1:]:
        if b":" in line:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
    content = await reader.readexactly(int(headers.get("content-length", 0)))
    return status, headers, json.loads(content) if content else None


class TestHTTPFrontEnd:
    def test_quote_roundtrip_hex_identical(self, mixed_solution, requests_by_size):
        rows = requests_by_size[4]

        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.005)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                status, headers, payload = await _http(
                    reader, writer, "POST", "/quote", {"rows": rows.tolist()}
                )
                # Keep-alive: a second request rides the same connection.
                ready = await _http(reader, writer, "GET", "/readyz")
                return status, headers, payload, ready
            finally:
                writer.close()
                await server.stop()

        status, headers, payload, (ready_status, _, ready) = asyncio.run(main())
        cold = mixed_solution.quote(rows)
        assert status == 200
        assert headers["x-solution-fingerprint"] == mixed_solution.fingerprint()
        served = np.array([float.fromhex(h) for h in payload["payments_hex"]])
        assert np.array_equal(served, np.asarray(cold.payments, dtype=np.float64))
        assert float.fromhex(payload["revenue_hex"]) == cold.revenue
        assert payload["fingerprint"] == mixed_solution.fingerprint()
        assert ready_status == 200 and ready["ready"] is True

    def test_error_statuses(self, mixed_solution):
        n = mixed_solution.n_items

        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.001)
            host, port = await server.start("127.0.0.1", 0)
            results = {}
            try:
                for key, method, path, payload in (
                    ("bad_rows", "POST", "/quote", {"rows": [[None] * n]}),
                    ("wrong_items", "POST", "/quote", {"rows": [[1.0] * (n + 3)]}),
                    ("no_rows", "POST", "/quote", {}),
                    ("bad_deadline", "POST", "/quote",
                     {"rows": [[1.0] * n], "deadline": -1}),
                    ("not_found", "GET", "/nope", None),
                    ("bad_method", "GET", "/quote", None),
                ):
                    reader, writer = await asyncio.open_connection(host, port)
                    results[key] = await _http(reader, writer, method, path, payload)
                    writer.close()
                return results
            finally:
                await server.stop()

        results = asyncio.run(main())
        assert results["bad_rows"][0] == 400
        assert results["wrong_items"][0] == 400
        assert results["no_rows"][0] == 400
        assert results["bad_deadline"][0] == 400
        assert results["not_found"][0] == 404
        assert results["bad_method"][0] == 405
        assert results["bad_rows"][2]["error"] == "ValidationError"

    def test_overload_and_deadline_over_http(self, mixed_solution):
        rows = [[1.0] * mixed_solution.n_items]

        async def main():
            server = QuoteServer(mixed_solution, queue_depth=1, deadline=0.15)
            host, port = await server.start("127.0.0.1", 0)
            # Wedge pricing so requests queue: stop the batcher outright.
            await server.batcher.stop()
            try:
                r1, w1 = await asyncio.open_connection(host, port)
                first = asyncio.create_task(
                    _http(r1, w1, "POST", "/quote", {"rows": rows})
                )
                await asyncio.sleep(0.03)
                r2, w2 = await asyncio.open_connection(host, port)
                shed = await _http(r2, w2, "POST", "/quote", {"rows": rows})
                timed_out = await first
                w1.close()
                w2.close()
                return shed, timed_out
            finally:
                await server.stop()

        shed, timed_out = asyncio.run(main())
        assert shed[0] == 429
        assert shed[1]["retry-after"] == "1"
        assert shed[2]["error"] == "ServerOverloadedError"
        assert timed_out[0] == 504
        assert timed_out[2]["error"] == "QuoteDeadlineError"

    def test_slow_client_read_timeout(self, mixed_solution, clean_faults):
        clean_faults.setenv(faults.FAULT_ENV, "slow_client:2")

        async def main():
            server = QuoteServer(mixed_solution, read_timeout=0.05)
            host, port = await server.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                status, _, payload = await _http(
                    reader, writer, "GET", "/healthz"
                )
                eof = await reader.read(1)
                writer.close()
                return status, payload, eof, server.read_timeouts
            finally:
                await server.stop()

        status, payload, eof, read_timeouts = asyncio.run(main())
        assert status == 408
        assert payload["error"] == "RequestReadTimeout"
        assert eof == b""  # the stalled connection is closed, not kept
        assert read_timeouts == 1

    def test_reload_and_health_over_http(
        self, mixed_solution, pure_solution, tmp_path
    ):
        path = tmp_path / "replacement.json"
        pure_solution.save(path)
        rows = [[2.0] * mixed_solution.n_items]

        async def main():
            server = QuoteServer(mixed_solution, batch_window=0.005)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                reloaded = await _http(
                    reader, writer, "POST", "/reload", {"path": str(path)}
                )
                quote = await _http(reader, writer, "POST", "/quote", {"rows": rows})
                health = await _http(reader, writer, "GET", "/healthz")
                missing = await _http(
                    reader, writer, "POST", "/reload",
                    {"path": str(tmp_path / "gone.json")},
                )
                return reloaded, quote, health, missing
            finally:
                writer.close()
                await server.stop()

        reloaded, quote, health, missing = asyncio.run(main())
        new_fp = pure_solution.fingerprint()
        assert reloaded[0] == 200
        assert reloaded[2] == {
            "previous_fingerprint": mixed_solution.fingerprint(),
            "fingerprint": new_fp,
        }
        assert quote[0] == 200 and quote[2]["fingerprint"] == new_fp
        served = np.array([float.fromhex(h) for h in quote[2]["payments_hex"]])
        cold = pure_solution.quote(np.asarray(rows))
        assert np.array_equal(served, np.asarray(cold.payments, dtype=np.float64))
        assert health[2]["status"] == "serving"
        assert health[2]["fingerprint"] == new_fp
        assert health[2]["counters"]["reloads"] == 1
        assert missing[0] == 500 and missing[2]["error"] == "ReloadError"

    def test_unloaded_server_not_ready(self):
        async def main():
            server = QuoteServer(None)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                ready = await _http(reader, writer, "GET", "/readyz")
                quote = await _http(
                    reader, writer, "POST", "/quote", {"rows": [[1.0]]}
                )
                return ready, quote
            finally:
                writer.close()
                await server.stop()

        ready, quote = asyncio.run(main())
        assert ready[0] == 503 and ready[2]["ready"] is False
        assert quote[0] == 500 and quote[2]["error"] == "ServingError"


# ===================================================== persisted fingerprint
class TestSolutionFingerprintVerification:
    def test_save_embeds_and_load_verifies(self, mixed_solution, tmp_path):
        path = tmp_path / "solution.json"
        mixed_solution.save(path)
        payload = json.loads(path.read_text())
        assert payload["fingerprint"] == mixed_solution.fingerprint()
        assert BundlingSolution.load(path).fingerprint() == mixed_solution.fingerprint()

    def test_tampered_artifact_rejected(self, mixed_solution, tmp_path):
        path = tmp_path / "solution.json"
        mixed_solution.save(path)
        payload = json.loads(path.read_text())
        entry = payload["offers"][0]
        entry["price_hex"] = float(float.fromhex(entry["price_hex"]) + 0.25).hex()
        entry["price"] = float.fromhex(entry["price_hex"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="fingerprint mismatch"):
            BundlingSolution.load(path)

    def test_pre_fingerprint_artifact_still_loads(self, mixed_solution, tmp_path):
        path = tmp_path / "solution.json"
        mixed_solution.save(path)
        payload = json.loads(path.read_text())
        del payload["fingerprint"]
        path.write_text(json.dumps(payload))
        loaded = BundlingSolution.load(path)
        assert loaded.fingerprint() == mixed_solution.fingerprint()

    def test_quote_rejects_non_finite_rows(self, mixed_solution):
        rows = np.ones((3, mixed_solution.n_items))
        for bad in (np.nan, np.inf):
            corrupted = rows.copy()
            corrupted[1, 2] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                mixed_solution.quote(corrupted)


# ===================================================== SciPy-free serve path
_SCIPY_FREE_DRIVER = r"""
import sys
import numpy as np
from repro.api import BundlingSolver, EngineConfig
from repro.api.solution import BundlingSolution
from repro.core.delta import PopulationDelta
from repro.serving import ServingState

def check_quotes(solution, rows):
    state = ServingState(solution)
    blocks = [state.prepare_rows(block) for block in rows]
    for served, block in zip(state.quote_batch(blocks), rows):
        cold = solution.quote(block)
        assert np.array_equal(served.payments, cold.payments)
        assert served.revenue == cold.revenue

rng = np.random.default_rng(5)
wtp = rng.uniform(0.0, 10.0, size=(60, 8)).tolist()
solver = BundlingSolver("mixed_greedy", EngineConfig(theta=0.1))
solver.fit(wtp).save(sys.argv[1])
solution = BundlingSolution.load(sys.argv[1])
rows = [wtp[:3], wtp[3:10], wtp[10:11]]
check_quotes(solution, rows)
delta = PopulationDelta(removed=(0, 7), added=[row[::-1] for row in wtp[:4]])
report = solver.refit(solution, wtp, delta)
check_quotes(report.solution, rows)
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert not loaded, loaded
"""


def test_serve_path_never_imports_scipy(tmp_path):
    """Fit, save, load, batch-quote and refit without loading SciPy."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_DRIVER, str(tmp_path / "menu.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


# ========================================================== SIGINT handling
_INTERRUPT_DRIVER = r"""
import os, signal, sys
import repro.api.checkpoint as ckpt
real = ckpt.write_fit_checkpoint
calls = {"n": 0}
def patched(*args, **kwargs):
    real(*args, **kwargs)
    calls["n"] += 1
    if calls["n"] == 1:
        os.kill(os.getpid(), signal.SIGINT)
ckpt.write_fit_checkpoint = patched
from repro.__main__ import main
sys.exit(main([
    "bundle", "--algorithm", "mixed_greedy", "--users", "80", "--items", "12",
    "--checkpoint", "fit.ckpt", "--save-solution", "interrupted.json",
]))
"""


class TestGracefulSigint:
    def test_sigint_flushes_checkpoint_and_resume_matches(self, tmp_path):
        """Ctrl-C mid-fit: exit 130, resumable checkpoint, bit-identical finish."""
        env = {**os.environ, "PYTHONPATH": SRC}
        interrupted = subprocess.run(
            [sys.executable, "-c", _INTERRUPT_DRIVER],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert interrupted.returncode == 130, interrupted.stderr
        assert "checkpoint flushed" in interrupted.stderr
        assert "--resume" in interrupted.stderr
        assert (tmp_path / "fit.ckpt").exists()
        # The interrupted run must not have written a (partial) solution.
        assert not (tmp_path / "interrupted.json").exists()

        common = ["--users", "80", "--items", "12"]
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "bundle", "--checkpoint", "fit.ckpt",
             "--resume", *common, "--save-solution", "resumed.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        uninterrupted = subprocess.run(
            [sys.executable, "-m", "repro", "bundle", "--algorithm", "mixed_greedy",
             *common, "--save-solution", "full.json"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert uninterrupted.returncode == 0, uninterrupted.stderr
        resumed_solution = BundlingSolution.load(tmp_path / "resumed.json")
        full_solution = BundlingSolution.load(tmp_path / "full.json")
        assert resumed_solution.fingerprint() == full_solution.fingerprint()

    def test_second_sigint_aborts_immediately(self):
        from repro.api.checkpoint import graceful_sigint, interrupt_requested

        with graceful_sigint():
            assert not interrupt_requested()
            os.kill(os.getpid(), signal.SIGINT)
            assert interrupt_requested()
            with pytest.raises(KeyboardInterrupt):
                os.kill(os.getpid(), signal.SIGINT)
        # Handler restored and flag cleared on exit.
        assert not interrupt_requested()
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


# ===================================================== computed Retry-After
class TestRetryAfterComputation:
    def test_tracks_queue_depth_and_observed_batch_clock(self, mixed_solution):
        from repro.serving import QuoteTicket
        from repro.serving.server import MAX_RETRY_AFTER

        async def main():
            server = QuoteServer(mixed_solution, queue_depth=64, max_batch=8)
            await server.start("127.0.0.1", 0)
            try:
                # Before any batch has run there is no observed clock.
                assert server.retry_after_seconds() == 1
                await server.batcher.stop()  # wedge: tickets stay queued
                server.batcher.observed_batch_seconds = 2.0
                # An empty queue still means waiting one batch.
                assert server.retry_after_seconds() == 2
                loop = asyncio.get_running_loop()
                for _ in range(20):
                    server.admission.submit(
                        QuoteTicket(
                            prepared=None,
                            deadline_at=loop.time() + 60.0,
                            future=loop.create_future(),
                        )
                    )
                # ceil(20 waiting / 8 per batch) = 3 batches x 2.0s each.
                assert server.retry_after_seconds() == 6
                server.batcher.observed_batch_seconds = 100.0
                assert server.retry_after_seconds() == MAX_RETRY_AFTER
            finally:
                await server.stop()

        asyncio.run(main())

    def test_429_carries_the_computed_header(self, mixed_solution):
        rows = [[1.0] * mixed_solution.n_items]

        async def main():
            server = QuoteServer(mixed_solution, queue_depth=1, deadline=0.15)
            host, port = await server.start("127.0.0.1", 0)
            await server.batcher.stop()  # wedge pricing so the queue fills
            server.batcher.observed_batch_seconds = 7.2
            try:
                r1, w1 = await asyncio.open_connection(host, port)
                first = asyncio.create_task(
                    _http(r1, w1, "POST", "/quote", {"rows": rows})
                )
                await asyncio.sleep(0.03)
                r2, w2 = await asyncio.open_connection(host, port)
                shed = await _http(r2, w2, "POST", "/quote", {"rows": rows})
                timed_out = await first
                w1.close()
                w2.close()
                return shed, timed_out
            finally:
                await server.stop()

        shed, timed_out = asyncio.run(main())
        assert shed[0] == 429
        # One waiting request, one batch ahead: ceil(1/64 batches x 7.2s).
        assert shed[1]["retry-after"] == "8"
        assert timed_out[0] == 504


# ================================================== reload conflict (409)
class TestReloadConflict:
    def test_concurrent_reload_conflicts_with_409(
        self, mixed_solution, pure_solution, monkeypatch, tmp_path
    ):
        import time as time_module

        target = tmp_path / "next.json"
        pure_solution.save(target)
        real_coerce = QuoteServer._coerce_state

        def slow_coerce(source):
            time_module.sleep(0.5)  # runs in the reload executor thread
            return real_coerce(source)

        monkeypatch.setattr(
            QuoteServer, "_coerce_state", staticmethod(slow_coerce)
        )

        async def main():
            server = QuoteServer(mixed_solution)
            host, port = await server.start("127.0.0.1", 0)
            try:
                r1, w1 = await asyncio.open_connection(host, port)
                r2, w2 = await asyncio.open_connection(host, port)
                first = asyncio.create_task(
                    _http(r1, w1, "POST", "/reload", {"path": str(target)})
                )
                await asyncio.sleep(0.1)  # the first reload holds the lock
                conflict = await _http(
                    r2, w2, "POST", "/reload", {"path": str(target)}
                )
                winner = await first
                w1.close()
                w2.close()
                return winner, conflict
            finally:
                await server.stop()

        winner, conflict = asyncio.run(main())
        assert winner[0] == 200
        assert winner[2]["fingerprint"] == pure_solution.fingerprint()
        assert conflict[0] == 409
        assert conflict[2]["error"] == "ReloadConflictError"
        assert conflict[2]["in_flight_path"] == str(target)


# ======================================================== draining status
class TestDrainingStatus:
    def test_draining_visible_while_in_flight_completes(
        self, mixed_solution, requests_by_size
    ):
        """During a drain: health says draining, readyz flips, /quote is
        refused — while the in-flight quote still completes bit-identically
        on its pre-drain connection."""
        rows = requests_by_size[2]

        async def main():
            # A wide batch window holds the admitted quote in flight while
            # the probes run; the checks gate on server state, not sleeps,
            # so CPU contention cannot race the drain past them.
            server = QuoteServer(
                mixed_solution, batch_window=2.0, deadline=10.0
            )
            host, port = await server.start("127.0.0.1", 0)
            # Both connections open before the drain closes the listener.
            pr, pw = await asyncio.open_connection(host, port)
            qr, qw = await asyncio.open_connection(host, port)
            in_flight = asyncio.create_task(
                _http(qr, qw, "POST", "/quote",
                      {"rows": rows.tolist(), "deadline": 10.0})
            )
            for _ in range(500):
                if server.admission.waiting or server.batcher.in_flight:
                    break
                await asyncio.sleep(0.01)
            assert server.admission.waiting or server.batcher.in_flight
            drain = asyncio.create_task(server.drain(30.0))
            await asyncio.sleep(0)  # drain's sync prefix has run: draining set
            assert server.draining
            health = await _http(pr, pw, "GET", "/healthz")
            ready = await _http(pr, pw, "GET", "/readyz")
            refused = await _http(pr, pw, "POST", "/quote",
                                  {"rows": rows.tolist()})
            completed = await in_flight
            clean = await drain
            pw.close()
            qw.close()
            return health, ready, refused, completed, clean

        health, ready, refused, completed, clean = asyncio.run(main())
        assert health[0] == 200
        assert health[2]["status"] == "draining"
        assert ready[0] == 503
        assert ready[2]["draining"] is True
        assert refused[0] == 503
        assert refused[2]["error"] == "ServerDraining"
        assert completed[0] == 200
        served = np.array(
            [float.fromhex(p) for p in completed[2]["payments_hex"]]
        )
        cold = mixed_solution.quote(rows)
        assert np.array_equal(
            served, np.asarray(cold.payments, dtype=np.float64)
        )
        assert clean is True


# ==================================================== SIGTERM drain (CLI)
def _start_serve_subprocess(tmp_path, solution, extra_args=()):
    """``python -m repro serve`` on an ephemeral port; returns (proc, port)."""
    path = tmp_path / "menu.json"
    if not path.exists():
        solution.save(path)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve",
         "--solution", str(path), "--host", "127.0.0.1", "--port", "0",
         *extra_args],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    port = None
    try:
        for _ in range(40):
            line = proc.stdout.readline()
            if "http://" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "serve banner never printed a port"
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, port


class TestGracefulSigterm:
    def test_sigterm_drains_in_flight_then_exits_zero(
        self, mixed_solution, requests_by_size, tmp_path
    ):
        import http.client
        import threading

        rows = requests_by_size[1]
        proc, port = _start_serve_subprocess(
            tmp_path, mixed_solution,
            ("--batch-window", "0.5", "--deadline", "5.0"),
        )
        result = {}

        def quote():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(
                    "POST", "/quote",
                    json.dumps({"rows": rows.tolist(), "deadline": 5.0}),
                    {"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                result["status"] = reply.status
                result["body"] = json.loads(reply.read())
            except OSError as exc:  # pragma: no cover - failure diagnostics
                result["error"] = exc
            finally:
                conn.close()

        try:
            worker = threading.Thread(target=quote)
            worker.start()
            import time as time_module

            time_module.sleep(0.2)  # request admitted, window still open
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=30)
            assert not worker.is_alive()
            returncode = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert result.get("error") is None, result
        # The in-flight quote completed, bit-identically, during the drain.
        assert result["status"] == 200
        cold = mixed_solution.quote(rows)
        served = np.array(
            [float.fromhex(p) for p in result["body"]["payments_hex"]]
        )
        assert np.array_equal(
            served, np.asarray(cold.payments, dtype=np.float64)
        )
        # ...and once drained the listener is gone and the exit is clean.
        assert returncode == 0
        with pytest.raises(OSError):
            import socket

            socket.create_connection(("127.0.0.1", port), timeout=2).close()

    def test_second_sigterm_aborts_with_143(
        self, mixed_solution, requests_by_size, tmp_path
    ):
        import http.client
        import threading
        import time as time_module

        rows = requests_by_size[0]
        proc, port = _start_serve_subprocess(
            tmp_path, mixed_solution,
            ("--batch-window", "5.0", "--deadline", "30.0"),
        )

        def quote():
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request(
                    "POST", "/quote",
                    json.dumps({"rows": rows.tolist(), "deadline": 30.0}),
                    {"Content-Type": "application/json"},
                )
                conn.getresponse()
            except (OSError, http.client.HTTPException):
                pass  # the abort tears this connection down; expected
            finally:
                conn.close()

        try:
            # A 5s batch window keeps the drain busy long enough for the
            # second signal to land while it is still waiting.
            worker = threading.Thread(target=quote)
            worker.start()
            time_module.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            time_module.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
            worker.join(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        assert returncode == 143


# ==================================================== incremental refit HTTP
def _churn_delta(wtp, n_removed=6, n_added=4, seed=11):
    """A small deterministic churn event on *wtp*'s population."""
    from repro.api import PopulationDelta

    rng = np.random.default_rng(seed)
    removed = rng.choice(wtp.n_users, size=n_removed, replace=False)
    donors = rng.choice(wtp.n_users, size=n_added, replace=False)
    added = wtp.values[donors] * rng.uniform(0.85, 1.15, size=(n_added, 1))
    return PopulationDelta(added=added, removed=tuple(int(i) for i in removed))


class TestRefitEndpoint:
    def test_refit_over_http_warm_and_compounding(self, mixed_solution, small_wtp):
        """POST /refit warm-refits the serving menu and advances the
        in-memory population, bit-identically to BundlingSolver.refit."""
        delta = _churn_delta(small_wtp)
        rows = [[2.0] * mixed_solution.n_items, [0.5] * mixed_solution.n_items]

        async def main():
            server = QuoteServer(
                mixed_solution, batch_window=0.005, population=small_wtp
            )
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                refitted = await _http(
                    reader, writer, "POST", "/refit",
                    {"delta": delta.to_dict(), "drift_threshold": 1e6},
                )
                quote = await _http(reader, writer, "POST", "/quote", {"rows": rows})
                health = await _http(reader, writer, "GET", "/healthz")
                return refitted, quote, health
            finally:
                writer.close()
                await server.stop()

        refitted, quote, health = asyncio.run(main())
        # The same refit, cold, through the solver API directly.
        solver = BundlingSolver(
            mixed_solution.algorithm_spec, mixed_solution.engine_config
        )
        report = solver.refit(
            mixed_solution, small_wtp, delta, drift_threshold=1e6
        )
        assert refitted[0] == 200
        assert refitted[2]["mode"] == "warm"
        assert refitted[2]["previous_fingerprint"] == mixed_solution.fingerprint()
        assert refitted[2]["fingerprint"] == report.solution.fingerprint()
        assert refitted[2]["n_users"] == small_wtp.n_users - 6 + 4
        assert refitted[2]["expected_revenue"] == report.solution.expected_revenue
        # Quotes after the swap are stamped with, and priced by, the new menu.
        assert quote[0] == 200
        assert quote[2]["fingerprint"] == report.solution.fingerprint()
        served = np.array([float.fromhex(h) for h in quote[2]["payments_hex"]])
        cold = report.solution.quote(np.asarray(rows))
        assert np.array_equal(served, np.asarray(cold.payments, dtype=np.float64))
        assert health[2]["counters"]["refits"] == 1
        assert health[2]["population"] == {"n_users": small_wtp.n_users - 6 + 4}

    def test_refit_without_population_is_400(self, mixed_solution, small_wtp):
        delta = _churn_delta(small_wtp)

        async def main():
            server = QuoteServer(mixed_solution)  # no population=
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                refused = await _http(
                    reader, writer, "POST", "/refit", {"delta": delta.to_dict()}
                )
                health = await _http(reader, writer, "GET", "/healthz")
                return refused, health
            finally:
                writer.close()
                await server.stop()

        refused, health = asyncio.run(main())
        assert refused[0] == 400
        assert refused[2]["error"] == "ValidationError"
        assert "population" in refused[2]["message"]
        assert health[2]["counters"]["refit_failures"] == 1
        assert "population" in health[2]["last_refit_error"]

    def test_refit_missing_delta_field_is_400(self, mixed_solution, small_wtp):
        async def main():
            server = QuoteServer(mixed_solution, population=small_wtp)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return await _http(reader, writer, "POST", "/refit", {})
            finally:
                writer.close()
                await server.stop()

        refused = asyncio.run(main())
        assert refused[0] == 400
        assert refused[2]["error"] == "ValidationError"
        assert '"delta"' in refused[2]["message"]

    def test_concurrent_refit_conflicts_with_409(
        self, mixed_solution, small_wtp, monkeypatch
    ):
        """A refit holds the reload lock: the loser gets a typed 409, and
        the winner's swap is unaffected."""
        import time as time_module

        delta = _churn_delta(small_wtp)
        real_offline = QuoteServer._refit_offline

        def slow_offline(self, delta, drift_threshold):
            time_module.sleep(0.5)  # runs in the refit executor thread
            return real_offline(self, delta, drift_threshold)

        monkeypatch.setattr(QuoteServer, "_refit_offline", slow_offline)

        async def main():
            server = QuoteServer(mixed_solution, population=small_wtp)
            host, port = await server.start("127.0.0.1", 0)
            try:
                r1, w1 = await asyncio.open_connection(host, port)
                r2, w2 = await asyncio.open_connection(host, port)
                first = asyncio.create_task(
                    _http(
                        r1, w1, "POST", "/refit",
                        {"delta": delta.to_dict(), "drift_threshold": 1e6},
                    )
                )
                await asyncio.sleep(0.1)  # the first refit holds the lock
                conflict = await _http(
                    r2, w2, "POST", "/refit", {"delta": delta.to_dict()}
                )
                winner = await first
                w1.close()
                w2.close()
                return winner, conflict
            finally:
                await server.stop()

        winner, conflict = asyncio.run(main())
        assert winner[0] == 200 and winner[2]["mode"] == "warm"
        assert conflict[0] == 409
        assert conflict[2]["error"] == "ReloadConflictError"
        assert conflict[2]["in_flight_path"] == "refit"
