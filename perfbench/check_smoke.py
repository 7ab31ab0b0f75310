"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

Each run must exit 0, pass its correctness checks and print every metric
``BENCHMARK.json`` declares for its mode, by name and with its unit.  The
file is not named ``test_*.py`` so the repository's own test run does not
collect it; run it explicitly from the root of a checkout::

    python3 -m pytest perfbench/check_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "4",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_metric_prints_and_checks_pass(workload, trace):
    # A different seed per mode: the metric set must not depend on it.
    proc = _run(ROOT, workload, seed=3 + trace, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    report = [line.split() for line in lines[:-1]]
    for entry in declared:
        printed = result["metrics"][entry["name"]]
        assert printed["unit"] == entry["unit"]
        assert isinstance(printed["value"], float)
        assert any(
            words[:1] == [entry["name"]] and entry["unit"] in words for words in report
        ), f"{entry['name']} missing from the readable report"
        if not trace:
            assert printed["value"] > 0, entry["name"]
    if trace:
        assert any(line.startswith("  self times sum to") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], seed=1, trace=0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
