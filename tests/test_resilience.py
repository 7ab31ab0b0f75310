"""Resilience under injected faults: degradation, checkpoint/resume, input.

The correctness spine of every test here is the chunk-purity property the
streaming kernels were built on: a chunk's result depends only on its
inputs, and merged results go through fixed-tree sums — so *any* recovery
path (thread → serial fallback, resume from a checkpoint) must finish
**bit-identical** to the serial scan.  The suite pins exactly that:

* a thread pool that cannot start degrades the scan to the in-order loop
  with a structured :class:`DegradedExecutionWarning`, for a single scan
  and for a whole mixed fit;
* a fit SIGKILLed after a checkpoint resumes to a solution whose canonical
  JSON is hex-for-hex identical to the uninterrupted fit's (pinned via
  :meth:`BundlingSolution.fingerprint` for all four paper methods);
* malformed WTP input fails fast with :class:`ValidationError` at both
  ``fit`` and ``quote``.

Faults are injected through :mod:`repro.core.faults`
(``REPRO_FAULT_INJECT``); the CI ``chaos`` job runs this file.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.__main__ import _exit_code, main as cli_main
from repro.api import (
    BundlingSolution,
    BundlingSolver,
    DegradedExecutionWarning,
    EngineConfig,
    FitCheckpoint,
    RetryPolicy,
)
from repro.core import faults
from repro.core.revenue import RevenueEngine
from repro.errors import CheckpointError, ExecutorError, ValidationError

from test_kernels import random_wtp

#: Source tree root, for subprocess fits (tests run with PYTHONPATH=src).
_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _clean_fault_injection(monkeypatch):
    """Every test starts and ends with no fault spec armed."""
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def chaos_wtp():
    return random_wtp(np.random.default_rng(42))


@pytest.fixture(scope="module")
def fit_values(tmp_path_factory):
    """A small dense WTP array, also saved to disk for subprocess fits."""
    rng = np.random.default_rng(7)
    values = rng.uniform(0.0, 10.0, size=(40, 10))
    values[rng.uniform(size=values.shape) < 0.5] = 0.0
    path = tmp_path_factory.mktemp("wtp") / "wtp.npy"
    np.save(path, values)
    return values, path


def pure_scan(wtp, **engine_kwargs):
    """A chunked pure-merge gain scan over all singleton pairs."""
    engine = RevenueEngine(wtp, chunk_elements=256, **engine_kwargs)
    singles = engine.price_components()
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    return engine.pure_merge_gains(singles[:6], pairs)


def assert_same_scan(expected, actual):
    gains_a, merged_a = expected
    gains_b, merged_b = actual
    assert np.array_equal(np.asarray(gains_a), np.asarray(gains_b))
    assert list(merged_a) == list(merged_b)


# --------------------------------------------------------------- retry policy
class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.degrade is True

    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": 99},
            {"backoff": -1.0},
            {"backoff": float("nan")},
            {"backoff_factor": 0.0},
            {"backoff_factor": 0.5},
            {"degrade": "yes"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=5, backoff=0.2, degrade=False)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValidationError):
            RetryPolicy.from_dict({"max_attempts": 2, "bogus": 1})
        with pytest.raises(ValidationError, match="scan_timeout"):
            RetryPolicy.from_dict({"scan_timeout": 30.0})


# ------------------------------------------------------------- fault grammar
class TestFaultSpec:
    def test_modes_parse(self):
        rules = faults.parse_fault_spec(
            "worker_crash:0.5,thread_pool:once,slow_client:3,fit_crash:always"
        )
        assert set(rules) == {"worker_crash", "thread_pool", "slow_client", "fit_crash"}

    @pytest.mark.parametrize("spec", ["a:once,a:once", "worker_crash", "x:", ":once"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            faults.parse_fault_spec(spec)

    def test_once_fires_once(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "thread_pool:once")
        faults.reset()
        assert faults.fire("thread_pool") is not None
        assert faults.fire("thread_pool") is None
        assert faults.fire("worker_crash") is None

    def test_value_mode_returns_value(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "slow_client:3")
        faults.reset()
        assert faults.fire("slow_client") == pytest.approx(3.0)
        assert faults.fire("slow_client") == pytest.approx(3.0)


# ------------------------------------------------------- thread-scan faults
class TestThreadScanFallback:
    def test_thread_pool_failure_degrades_to_serial(self, chaos_wtp, monkeypatch):
        serial = pure_scan(chaos_wtp)
        monkeypatch.setenv(faults.FAULT_ENV, "thread_pool:once")
        with pytest.warns(DegradedExecutionWarning) as caught:
            degraded = pure_scan(chaos_wtp, n_workers=2)
        assert_same_scan(serial, degraded)
        assert caught[0].message.to_executor == "serial"


# ----------------------------------------------------------- faulted full fit
class TestFaultedFitParity:
    def test_thread_pool_failure_mixed_fit_matches_serial(
        self, fit_values, monkeypatch
    ):
        """A 4-worker mixed fit whose thread pools never start falls back
        on every pure and mixed scan and lands bit-identical to the serial
        fit — offers, prices, metrics, and per-iteration trace revenues."""
        values, _ = fit_values
        serial = BundlingSolver(
            "mixed_matching", EngineConfig(chunk_elements=256)
        ).fit(values)
        monkeypatch.setenv(faults.FAULT_ENV, "thread_pool:always")
        with pytest.warns(DegradedExecutionWarning) as caught:
            faulted = BundlingSolver(
                "mixed_matching", EngineConfig(n_workers=4, chunk_elements=256)
            ).fit(values)
        assert {w.message.scan for w in caught} == {"pure-scan", "mixed-scan"}
        expected, actual = serial.to_dict(), faulted.to_dict()
        assert actual["offers"] == expected["offers"]
        assert actual["metrics"] == expected["metrics"]
        assert [r["revenue"] for r in actual["trace"]] == [
            r["revenue"] for r in expected["trace"]
        ]


# --------------------------------------------------------- checkpoint/resume
_CRASHING_FIT = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.api import BundlingSolver, EngineConfig
algo, wtp_path, ckpt = sys.argv[1:4]
BundlingSolver(algo, EngineConfig()).fit(
    np.load(wtp_path), checkpoint_path=ckpt, checkpoint_every=1
)
raise SystemExit("fit finished without the injected crash")
""".format(src=_SRC)


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "algo", ["pure_matching", "mixed_matching", "pure_greedy", "mixed_greedy"]
    )
    def test_kill_and_resume_matches_uninterrupted(
        self, algo, fit_values, tmp_path, monkeypatch
    ):
        """Acceptance pin: SIGKILL the fit right after a mid-run checkpoint,
        resume, and the final solution's canonical JSON is hex-for-hex
        identical to the uninterrupted fit's (equal fingerprints)."""
        values, wtp_path = fit_values
        baseline = BundlingSolver(algo, EngineConfig()).fit(values)
        assert baseline.n_iterations >= 1
        threshold = max(1, baseline.n_iterations // 2)

        ckpt = tmp_path / f"{algo}.ckpt.json"
        monkeypatch.setenv(faults.FAULT_ENV, f"fit_crash:{threshold}")
        proc = subprocess.run(
            [sys.executable, "-c", _CRASHING_FIT, algo, str(wtp_path), str(ckpt)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"expected the fit to die by SIGKILL, got rc={proc.returncode}; "
            f"stdout={proc.stdout!r} stderr={proc.stderr!r}"
        )
        monkeypatch.delenv(faults.FAULT_ENV)
        faults.reset()

        checkpoint = FitCheckpoint.load(ckpt)
        assert checkpoint.iteration == threshold
        resumed = BundlingSolver.resume(ckpt, values)
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_checkpoint_cadence(self, fit_values, tmp_path):
        values, _ = fit_values
        ckpt = tmp_path / "every2.json"
        solution = BundlingSolver("mixed_greedy", EngineConfig()).fit(
            values, checkpoint_path=ckpt, checkpoint_every=2
        )
        final = FitCheckpoint.load(ckpt)
        assert final.iteration % 2 == 0
        assert final.iteration == (solution.n_iterations // 2) * 2

    def test_resume_from_final_checkpoint_is_identity(self, fit_values, tmp_path):
        values, _ = fit_values
        ckpt = tmp_path / "final.json"
        baseline = BundlingSolver("mixed_greedy", EngineConfig()).fit(
            values, checkpoint_path=ckpt
        )
        resumed = BundlingSolver.resume(ckpt, values)
        assert resumed.fingerprint() == baseline.fingerprint()

    def test_checkpoint_every_requires_path(self, fit_values):
        values, _ = fit_values
        with pytest.raises(ValidationError):
            BundlingSolver("pure_greedy").fit(values, checkpoint_every=3)

    def test_missing_checkpoint_raises(self, fit_values, tmp_path):
        values, _ = fit_values
        with pytest.raises(CheckpointError):
            BundlingSolver.resume(tmp_path / "absent.json", values)

    def test_population_mismatch_rejected(self, fit_values, tmp_path):
        values, _ = fit_values
        ckpt = tmp_path / "pop.json"
        BundlingSolver("mixed_greedy", EngineConfig()).fit(
            values, checkpoint_path=ckpt
        )
        with pytest.raises(CheckpointError):
            BundlingSolver.resume(ckpt, values[:-5])

    def test_corrupted_sidecar_rejected(self, fit_values, tmp_path):
        values, _ = fit_values
        ckpt = tmp_path / "corrupt.json"
        BundlingSolver("mixed_greedy", EngineConfig()).fit(
            values, checkpoint_path=ckpt
        )
        sidecar = ckpt.with_name(ckpt.name + ".arrays.npz")
        sidecar.write_bytes(sidecar.read_bytes()[:-7])
        with pytest.raises(CheckpointError):
            FitCheckpoint.load(ckpt)

    def test_algorithm_mismatch_rejected(self, fit_values, tmp_path):
        from repro.algorithms.greedy import GreedyMerge

        values, _ = fit_values
        ckpt = tmp_path / "mismatch.json"
        BundlingSolver("mixed_matching", EngineConfig()).fit(
            values, checkpoint_path=ckpt
        )
        with pytest.raises(CheckpointError):
            FitCheckpoint.load(ckpt).check_algorithm(GreedyMerge(strategy="mixed"))


# ----------------------------------------------------------- input hardening
_BAD_WTP = {
    "nan": [[1.0, float("nan")], [2.0, 3.0]],
    "inf": [[1.0, float("inf")], [2.0, 3.0]],
    "negative": [[1.0, -0.5], [2.0, 3.0]],
    "ragged": [[1.0, 2.0], [3.0]],
    "non_numeric": [["a", "b"], ["c", "d"]],
    "one_dimensional": [1.0, 2.0, 3.0],
}


class TestInputHardening:
    @pytest.fixture(scope="class")
    def tiny_solution(self):
        rng = np.random.default_rng(3)
        wtp = rng.uniform(0.0, 5.0, size=(20, 4))
        return BundlingSolver("pure_greedy", EngineConfig()).fit(wtp)

    @pytest.mark.parametrize("case", sorted(_BAD_WTP))
    def test_fit_rejects_malformed_wtp(self, case):
        with pytest.raises(ValidationError):
            BundlingSolver("pure_greedy", EngineConfig()).fit(_BAD_WTP[case])

    @pytest.mark.parametrize("case", sorted(_BAD_WTP))
    def test_quote_rejects_malformed_wtp(self, tiny_solution, case):
        with pytest.raises(ValidationError):
            tiny_solution.quote(_BAD_WTP[case])

    def test_quote_rejects_item_count_mismatch(self, tiny_solution):
        with pytest.raises(ValidationError):
            tiny_solution.quote(np.ones((5, 7)))


# ----------------------------------------------------------------------- CLI
class TestResilienceCLI:
    def test_exit_code_mapping(self):
        assert _exit_code(ExecutorError("x")) == 3
        assert _exit_code(CheckpointError("x")) == 6
        assert _exit_code(ValidationError("x")) == 2

    def test_resume_requires_checkpoint_flag(self, capsys):
        assert cli_main(["bundle", "--users", "40", "--items", "8", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_exit_code(self, tmp_path, capsys):
        code = cli_main([
            "bundle", "--users", "40", "--items", "8",
            "--resume", "--checkpoint", str(tmp_path / "absent.json"),
        ])
        assert code == 6
        assert "error" in capsys.readouterr().err

    def test_checkpointed_fit_and_resume_round_trip(self, tmp_path, capsys):
        """CLI face of checkpoint/resume: re-finishing a completed fit from
        its final checkpoint reproduces the saved solution exactly."""
        ckpt = tmp_path / "fit.ckpt.json"
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main([
            "bundle", "--algorithm", "mixed_greedy", "--users", "80",
            "--items", "12", "--checkpoint", str(ckpt),
            "--save-solution", str(first),
        ]) == 0
        assert cli_main([
            "bundle", "--users", "80", "--items", "12", "--resume",
            "--checkpoint", str(ckpt), "--save-solution", str(second),
        ]) == 0
        capsys.readouterr()
        loaded_first = BundlingSolution.load(first)
        loaded_second = BundlingSolution.load(second)
        assert loaded_second.algorithm == "mixed_greedy"
        assert loaded_second.fingerprint() == loaded_first.fingerprint()
