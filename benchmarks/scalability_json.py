"""Machine-readable scalability benchmark (Section 6.3 at streaming scale).

Clones the Figure 7(a) workload up to one million users and runs the
matching heuristic once per (algorithm × backend × clone factor) cell,
recording wall-clock, Python-level peak memory (``tracemalloc``), and the
process high-water RSS (``resource.getrusage``).  Results land in
``BENCH_scalability.json`` at the repo root so future PRs can diff the
perf trajectory instead of re-reading prose.

Backends
--------
``unchunked-float64``
    ``chunk_elements=None`` — the original behaviour: the whole O(M·N²/2)
    candidate stack is materialized at once.  This is the *before* column.
``streaming-float64``
    The default streaming engine; bit-identical results, bounded buffers.
``streaming-float64-w4``
    The streaming engine with ``n_workers=4``: chunks fan out over a
    thread pool (bit-identical to serial; wall-clock scales with *cores* —
    check ``platform.cpu_count`` in the report before reading the ratio).
``streaming-lean-mixed-sorted`` / ``streaming-lean-mixed-sorted-w4``
    ``state_dtype=float32``: mixed-strategy subtree states at half memory,
    serial and 4-worker.  The workload uses step adoption, so the mixed
    scan runs the O(M + T)-per-pair step-histogram ("sorted") kernel.
``streaming-mixed-sorted``
    The same kernel with float64 subtree states: the twin of
    ``streaming-lean-mixed-sorted`` that measures what ``state_dtype=
    "float32"`` saves (``summary.lean_vs_float64_states``).

Every cell records ``mixed_kernel``, the kernel its adoption model picks
(``None`` for pure cells).  The committed ledger also keeps
``streaming-lean-mixed`` / ``streaming-lean-mixed-w4`` cells, recorded
when the O(T'·M)-per-pair band scan could still run under step adoption;
``summary.mixed_sorted_vs_band`` compares them with their ``-sorted``
twins.  Those backends can no longer be measured, but a merge keeps their
cells.

Every cell records ``cpu_count``; the CI ``perf-smoke`` job gates the
threaded-vs-serial speedup on a real 2+-core runner.

Run from the repo root::

    PYTHONPATH=src python benchmarks/scalability_json.py
    PYTHONPATH=src python benchmarks/scalability_json.py --factors 50 125 250

The committed artifact layers new cells over the retained earlier matrix
(pure cells and the band cells) with ``--merge-existing``, which keeps
previously recorded cells without re-measuring them.  A bare
``--factors`` runs no pure cells::

    PYTHONPATH=src python benchmarks/scalability_json.py \
        --factors --mixed-factors 250 \
        --mixed-backends streaming-lean-mixed-sorted streaming-mixed-sorted \
        --merge-existing
    PYTHONPATH=src python benchmarks/scalability_json.py \
        --factors --mixed-factors 2500 \
        --mixed-backends streaming-lean-mixed-sorted-w4 --merge-existing

``ru_maxrss`` is the process high-water mark, so a cell's RSS includes
every cell run before it in the same invocation; for per-cell RSS, run
one cell per invocation, each with ``--merge-existing`` (the committed
100k and 1M cells were recorded that way).  Every measured cell carries
``recorded_at_commit`` (``git rev-parse --short HEAD``, or ``"unknown"``
outside a git checkout); a merge flags a kept cell
``retained_from_previous_record`` only when it was recorded at another
commit, so cells measured one per invocation on the same commit stay
unflagged.

The matching heuristic is capped at two iterations (one for the 1M mixed
cell): the first iteration's full pair scan is exactly the allocation the
streaming kernels bound, and a fixed cap keeps cells comparable across
factors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import time
import tracemalloc
from pathlib import Path

from repro.api import AlgorithmSpec, EngineConfig
from repro.core.kernels import DEFAULT_CHUNK_ELEMENTS, available_cpus
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scalability.json"

#: Typed engine config per backend column (the former loose-kwargs dicts).
BACKENDS = {
    "unchunked-float64": EngineConfig(chunk_elements=None),
    "streaming-float64": EngineConfig(),
    "streaming-float64-w4": EngineConfig(n_workers=4),
    "streaming-lean-mixed-sorted": EngineConfig(state_dtype="float32"),
    "streaming-lean-mixed-sorted-w4": EngineConfig(state_dtype="float32", n_workers=4),
    "streaming-mixed-sorted": EngineConfig(),
}


def head_commit() -> str:
    """The checkout's short commit hash, or ``"unknown"`` outside git."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return result.stdout.strip() or "unknown"


def measure_cell(
    wtp, config: EngineConfig, strategy: str, max_iterations: int
) -> dict:
    """One (algorithm, backend, factor) cell: fit matching under tracemalloc."""
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    started = time.perf_counter()
    engine = config.build(wtp)
    result = (
        AlgorithmSpec(
            f"{strategy}_matching", {"max_iterations": max_iterations}
        )
        .build()
        .fit(engine)
    )
    wall = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_seconds": round(wall, 4),
        "tracemalloc_peak_mb": round(peak / 2**20, 2),
        "ru_maxrss_mb": round(rss_after / 1024, 2),  # Linux reports KiB
        "ru_maxrss_grew": bool(rss_after > rss_before),
        "expected_revenue": result.expected_revenue,
        "iterations": result.n_iterations,
        "max_iterations": max_iterations,
        # The mixed kernel the adoption model picks (pure cells never
        # touch it).
        "mixed_kernel": (
            ("sorted" if engine.adoption.is_deterministic else "band")
            if strategy == "mixed"
            else None
        ),
        # The cores the scan could actually schedule on (affinity-aware):
        # a "parallel" ratio is only as meaningful as the cpu_count it ran
        # under.
        "cpu_count": available_cpus(),
    }


def summarize(runs: list[dict]) -> dict:
    """Cross-cell ratios: streaming-vs-unchunked and serial-vs-parallel."""
    summary: dict = {}

    def cell(algorithm, backend, factor):
        for run_ in runs:
            if (
                run_["algorithm"] == algorithm
                and run_["backend"] == backend
                and run_["clone_factor"] == factor
            ):
                return run_
        return None

    factors = sorted({r["clone_factor"] for r in runs}, reverse=True)
    for factor in factors:
        before = cell("pure", "unchunked-float64", factor)
        after = cell("pure", "streaming-float64", factor)
        if before and after:
            summary["streaming_vs_unchunked"] = {
                "clone_factor": factor,
                "n_users": after["n_users"],
                "peak_memory_reduction_x": round(
                    before["tracemalloc_peak_mb"]
                    / max(after["tracemalloc_peak_mb"], 1e-9),
                    2,
                ),
                "wall_clock_speedup_x": round(
                    before["wall_seconds"] / max(after["wall_seconds"], 1e-9), 2
                ),
                "revenues_identical": before["expected_revenue"]
                == after["expected_revenue"],
            }
            break
    for factor in factors:
        serial = cell("pure", "streaming-float64", factor)
        threaded = cell("pure", "streaming-float64-w4", factor)
        if serial and threaded:
            summary["parallel_vs_serial"] = {
                "clone_factor": factor,
                "n_users": serial["n_users"],
                "n_workers": 4,
                "serial_wall_seconds": serial["wall_seconds"],
                "parallel_wall_seconds": threaded["wall_seconds"],
                "wall_clock_speedup_x": round(
                    serial["wall_seconds"] / max(threaded["wall_seconds"], 1e-9), 2
                ),
                "revenues_identical": serial["expected_revenue"]
                == threaded["expected_revenue"],
            }
            break
    # Sorted-vs-band mixed kernel, one entry per factor where both kernels
    # have a cell (largest factor first; band cells are retained history).  Cells are paired only when their
    # backends differ solely by the "-sorted" token (same worker count and
    # state dtype), so the ratio measures the kernel and nothing else.
    kernel_entries = []
    for factor in factors:
        mixed_cells = [
            r
            for r in runs
            if r["algorithm"] == "mixed" and r["clone_factor"] == factor
        ]
        by_backend = {r["backend"]: r for r in mixed_cells}
        band = srt = None
        for r in mixed_cells:
            if r.get("mixed_kernel") != "sorted":
                continue
            partner = by_backend.get(r["backend"].replace("-sorted", ""))
            if partner and partner.get("mixed_kernel") == "band":
                band, srt = partner, r
                break
        if band and srt:
            kernel_entries.append(
                {
                    "clone_factor": factor,
                    "n_users": srt["n_users"],
                    "band_backend": band["backend"],
                    "sorted_backend": srt["backend"],
                    "band_wall_seconds": band["wall_seconds"],
                    "sorted_wall_seconds": srt["wall_seconds"],
                    "wall_clock_speedup_x": round(
                        band["wall_seconds"] / max(srt["wall_seconds"], 1e-9), 2
                    ),
                    "revenue_relative_delta": (
                        abs(srt["expected_revenue"] - band["expected_revenue"])
                        / max(abs(band["expected_revenue"]), 1e-9)
                    ),
                }
            )
    if kernel_entries:
        summary["mixed_sorted_vs_band"] = kernel_entries
    # float32 vs float64 subtree states on the sorted kernel, same factor.
    for factor in factors:
        lean = cell("mixed", "streaming-lean-mixed-sorted", factor)
        full = cell("mixed", "streaming-mixed-sorted", factor)
        if lean and full:
            summary["lean_vs_float64_states"] = {
                "clone_factor": factor,
                "n_users": lean["n_users"],
                "float64_wall_seconds": full["wall_seconds"],
                "float32_wall_seconds": lean["wall_seconds"],
                "float64_tracemalloc_peak_mb": full["tracemalloc_peak_mb"],
                "float32_tracemalloc_peak_mb": lean["tracemalloc_peak_mb"],
                "float64_ru_maxrss_mb": full["ru_maxrss_mb"],
                "float32_ru_maxrss_mb": lean["ru_maxrss_mb"],
                "revenue_relative_delta": (
                    abs(lean["expected_revenue"] - full["expected_revenue"])
                    / max(abs(full["expected_revenue"]), 1e-9)
                ),
            }
            break
    million = [r for r in runs if r["n_users"] >= 1_000_000]
    if million:
        summary["million_user_runs"] = [
            {
                "algorithm": r["algorithm"],
                "backend": r["backend"],
                "mixed_kernel": r.get("mixed_kernel"),
                "n_users": r["n_users"],
                "wall_seconds": r["wall_seconds"],
                "ru_maxrss_mb": r["ru_maxrss_mb"],
                "iterations": r["iterations"],
                "completed": True,
            }
            for r in million
        ]
    return summary


def run(args) -> dict:
    dataset = amazon_books_like(
        n_users=args.base_users, n_items=args.base_items, seed=args.seed
    )
    base_wtp = wtp_from_ratings(dataset, conversion=1.25)
    plan: dict[int, list[tuple[str, str, int]]] = {}
    for factor in args.factors:
        plan.setdefault(factor, []).extend(
            ("pure", backend, args.max_iterations) for backend in args.backends
        )
    for factor in args.mixed_factors:
        plan.setdefault(factor, []).extend(
            ("mixed", backend, args.mixed_max_iterations)
            for backend in args.mixed_backends
        )

    head = head_commit()
    runs = []
    for factor in sorted(plan):
        wtp = base_wtp.clone_users(factor) if factor > 1 else base_wtp
        for strategy, backend, max_iterations in plan[factor]:
            cell = measure_cell(wtp, BACKENDS[backend], strategy, max_iterations)
            cell.update(
                algorithm=strategy,
                backend=backend,
                clone_factor=factor,
                n_users=wtp.n_users,
                n_items=wtp.n_items,
                recorded_at_commit=head,
            )
            runs.append(cell)
            print(
                f"factor={factor:>4} users={wtp.n_users:>8} {strategy:<5} "
                f"{backend:<28} wall={cell['wall_seconds']:>8.2f}s "
                f"peak={cell['tracemalloc_peak_mb']:>9.1f}MB "
                f"revenue={cell['expected_revenue']:.2f}",
                flush=True,
            )
        del wtp

    # A merge also keeps the sections other scripts layer into the record
    # (the churn cell of benchmarks/churn.py); this run's keys replace theirs.
    carried: dict = {}
    if args.merge_existing and args.output.exists():
        # Retain previously recorded cells this invocation did not re-run
        # (keyed by algorithm × backend × factor), so multi-minute history —
        # e.g. the 1M-user band-kernel mixed cell — survives re-recording.
        # Only cells from the *same base workload* are comparable: a record
        # produced under a different seed or base shape is skipped outright
        # rather than merged into ratios it cannot support.
        previous = json.loads(args.output.read_text())
        base = {
            "n_users": args.base_users,
            "n_items": args.base_items,
            "seed": args.seed,
        }
        if previous.get("base") != base:
            print(
                f"warning: not merging {args.output} — its base workload "
                f"{previous.get('base')} differs from this run's {base}"
            )
        else:
            fresh = {(r["algorithm"], r["backend"], r["clone_factor"]) for r in runs}
            retained = [
                r
                for r in previous.get("runs", [])
                if (r["algorithm"], r["backend"], r["clone_factor"]) not in fresh
            ]
            for r in retained:
                # Cells recorded before kernel selection existed ran the
                # only mixed kernel of their era: the band scan.
                if r["algorithm"] == "mixed" and "mixed_kernel" not in r:
                    r["mixed_kernel"] = "band"
                # A cell measured at this commit (an earlier one-cell
                # invocation) is as fresh as this run's; a flag a cell
                # already carries stays.
                if head == "unknown" or r.get("recorded_at_commit") != head:
                    r.setdefault("retained_from_previous_record", True)
            runs = retained + runs
            runs.sort(key=lambda r: (r["clone_factor"], r["algorithm"], r["backend"]))
            carried = previous

    return {
        **carried,
        "benchmark": "scalability (Figure 7a workload, matching, capped iterations)",
        "base": {
            "n_users": args.base_users,
            "n_items": args.base_items,
            "seed": args.seed,
        },
        "chunk_elements": DEFAULT_CHUNK_ELEMENTS,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            # Thread speedups are bounded by this: on a 1-CPU container the
            # 4-worker columns measure overhead, not parallelism.
            "cpu_count": os.cpu_count(),
        },
        "summary": summarize(runs),
        "runs": runs,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factors",
        type=int,
        nargs="*",
        default=[50, 125, 250],
        help="clone factors for the pure matching cells (pass the bare flag "
        "to run no pure cells, e.g. for a mixed-only --merge-existing update)",
    )
    parser.add_argument("--base-users", type=int, default=400)
    parser.add_argument("--base-items", type=int, default=60)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--max-iterations", type=int, default=2)
    parser.add_argument(
        "--backends",
        nargs="+",
        choices=sorted(BACKENDS),
        default=["unchunked-float64", "streaming-float64"],
        help="backends for the pure matching cells",
    )
    parser.add_argument(
        "--mixed-factors",
        type=int,
        nargs="*",
        default=[],
        help="clone factors at which to run mixed matching cells",
    )
    parser.add_argument(
        "--mixed-backends",
        nargs="+",
        choices=sorted(BACKENDS),
        default=["streaming-lean-mixed-sorted-w4"],
        help="backends for the mixed matching cells",
    )
    parser.add_argument(
        "--mixed-max-iterations",
        type=int,
        default=1,
        help="iteration cap for mixed cells (the scan per iteration is ~20x "
        "a pure one at 1M users)",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--merge-existing",
        action="store_true",
        help="keep cells already recorded in --output that this invocation "
        "does not re-run (summaries recompute over the merged set)",
    )
    args = parser.parse_args()
    report = run(args)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.output}")
    if report["summary"]:
        print(json.dumps(report["summary"], indent=1))


if __name__ == "__main__":
    main()
