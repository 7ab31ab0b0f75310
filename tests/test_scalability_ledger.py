"""``benchmarks/scalability_json.py --merge-existing``: which cells are retained.

Cells are recorded one per invocation (``ru_maxrss`` is a process
high-water mark), so a merge must tell a cell measured earlier on the same
commit from one carried over from an older commit.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "scalability_json.py"
WORKLOAD = "--base-users 40 --base-items 24 --max-iterations 1 --merge-existing"
RETAINED = "retained_from_previous_record"
OLD = ("pure", "unchunked-float64")
SAME = ("pure", "streaming-float64")
MIXED = ("mixed", "streaming-mixed-sorted")


@pytest.fixture()
def ledger_script():
    spec = importlib.util.spec_from_file_location("scalability_json", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def run_at(ledger_script, monkeypatch, tmp_path):
    """One ``--merge-existing`` invocation into a temp ledger at a commit."""
    output = tmp_path / "ledger.json"

    def run(commit: str, cells: str) -> dict:
        monkeypatch.setattr(ledger_script, "head_commit", lambda: commit)
        argv = [str(SCRIPT), *WORKLOAD.split(), "--output", str(output)]
        monkeypatch.setattr(sys, "argv", argv + cells.split())
        ledger_script.main()
        runs = json.loads(output.read_text())["runs"]
        return {(cell["algorithm"], cell["backend"]): cell for cell in runs}

    return run


def test_merge_flags_only_cells_from_another_commit(run_at):
    first = run_at("0ld0000", "--factors 1 --backends unchunked-float64")
    assert first[OLD]["recorded_at_commit"] == "0ld0000"
    assert RETAINED not in first[OLD]

    second = run_at("abc1234", "--factors 1 --backends streaming-float64")
    assert second[OLD][RETAINED] is True
    assert second[SAME]["recorded_at_commit"] == "abc1234"
    assert RETAINED not in second[SAME]

    mixed_cell = "--mixed-factors 1 --mixed-backends streaming-mixed-sorted"
    third = run_at("abc1234", "--factors " + mixed_cell)
    assert set(third) == {OLD, SAME, MIXED}
    assert third[OLD][RETAINED] is True
    assert RETAINED not in third[SAME]
    assert RETAINED not in third[MIXED]
    assert third[SAME]["wall_seconds"] == second[SAME]["wall_seconds"]


def test_cells_outside_git_are_always_retained(run_at):
    run_at("unknown", "--factors 1 --backends unchunked-float64")
    cells = run_at("unknown", "--factors 1 --backends streaming-float64")
    assert cells[OLD][RETAINED] is True
    assert RETAINED not in cells[SAME]


def test_head_commit_is_a_short_hash_or_unknown(ledger_script):
    commit = ledger_script.head_commit()
    assert commit == "unknown" or set(commit) <= set("0123456789abcdef")
