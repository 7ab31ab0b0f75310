"""CI churn-smoke gate: incremental refit must be warm, exact, and fast.

A serving population churns: users leave, new users arrive, the fitted
menu stays.  ``BundlingSolver.refit`` re-prices the retained menu across
a :class:`~repro.api.PopulationDelta` in O(M) per bundle
instead of re-running the O(M·N²) bundling fit.  This script measures 1%
churn on the cloned Figure-7a workload (``--factor 250`` = 100k users)
and gates the two contracts the refit layer promises:

* **warm bit-identity** — the warm-refit menu's prices, revenues, buyer
  counts, and expected revenue are *exactly* (``==`` on float64) what
  cold re-pricing the same bundles on the post-delta population
  produces;
* **cold-fallback fingerprint identity** — a drift-forced refit
  (``drift_threshold=0``) reproduces ``fit(new_wtp)`` hex-for-hex
  (solution fingerprint equality);
* **speedup** — the warm refit beats the full cold fit by at least
  ``--min-speedup`` (default 3×).

The identity gates are deterministic and run everywhere.  The speedup
gate needs believable wall-clock, so with fewer than two available cores
it is skipped with a notice recorded as ``"skipped"`` in the report —
visible in the artifact, not silent — and the identity gates still
decide the exit code.

``--merge-existing`` additionally layers the measured cell under a
``"churn"`` key in ``BENCH_scalability.json`` (preserving every other
recorded cell), so the perf trajectory of incremental refit is diffable
next to the scan benchmarks.

Run from the repo root::

    PYTHONPATH=src python benchmarks/churn.py --factor 250
    PYTHONPATH=src python benchmarks/churn.py --factor 25 --merge-existing
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.api import AlgorithmSpec, BundlingSolver, EngineConfig, PopulationDelta
from repro.core.kernels import available_cpus
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "churn_smoke.json"
DEFAULT_BENCH_JSON = REPO_ROOT / "BENCH_scalability.json"

#: A threshold no churn of this size can cross: forces the warm path so
#: the gate measures the incremental machinery, not the fallback.
WARM_THRESHOLD = 1e6


def make_delta(wtp, churn: float, seed: int) -> PopulationDelta:
    """A symmetric ``churn`` fraction: drop N users, add N new rows.

    Arrivals are existing rows rescaled by a deterministic ±10% factor —
    plausible newcomers on the same WTP scale, not exact copies of
    existing rows.
    """
    rng = np.random.default_rng(seed)
    n_churn = max(1, int(round(wtp.n_users * churn)))
    removed = np.sort(rng.choice(wtp.n_users, size=n_churn, replace=False))
    donors = rng.choice(wtp.n_users, size=n_churn, replace=False)
    scales = rng.uniform(0.9, 1.1, size=(n_churn, 1))
    added = wtp.values[donors] * scales
    return PopulationDelta(added=added, removed=tuple(int(i) for i in removed))


def check_warm_identity(warm_solution, engine_new) -> list[dict]:
    """Offer-level divergences between the warm menu and a cold re-price.

    Every comparison is exact float64 equality: the contract is
    bit-identity, not tolerance.
    """
    divergences = []
    for index, offer in enumerate(warm_solution.configuration.offers):
        cold = engine_new.price_bundle(offer.bundle)
        if (
            offer.price != cold.price
            or offer.revenue != cold.revenue
            or offer.buyers != cold.buyers
        ):
            divergences.append(
                {
                    "offer_index": index,
                    "warm": [offer.price, offer.revenue, offer.buyers],
                    "cold": [cold.price, cold.revenue, cold.buyers],
                }
            )
    return divergences


def build_report(args) -> tuple[dict, int]:
    """The churn-smoke report plus the process exit code."""
    cpu_count = available_cpus()
    report = {
        "benchmark": "churn-smoke (incremental refit vs full cold fit)",
        "base": {"n_users": 400, "n_items": 60, "seed": 2},
        "clone_factor": args.factor,
        "churn": args.churn,
        "algorithm": args.algorithm,
        "min_speedup": args.min_speedup,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
    }

    dataset = amazon_books_like(n_users=400, n_items=60, seed=2)
    wtp = wtp_from_ratings(dataset, conversion=1.25).clone_users(args.factor)
    report["n_users"] = wtp.n_users
    delta = make_delta(wtp, args.churn, seed=7)
    report["n_removed"] = delta.n_removed
    report["n_added"] = delta.n_added
    new_wtp = delta.apply(wtp)

    config = EngineConfig(drift_threshold=WARM_THRESHOLD)
    spec = AlgorithmSpec(args.algorithm, {"max_iterations": args.max_iterations})
    solver = BundlingSolver(spec, config)

    print(f"fitting {args.algorithm} on {wtp.n_users} users ...", flush=True)
    solution = solver.fit(wtp)

    # --- cold baseline: the full fit on the post-delta population -------
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    started = time.perf_counter()
    cold = solver.fit(new_wtp)
    cold_wall = time.perf_counter() - started

    # --- warm refit across the delta ------------------------------------
    tracemalloc.start()
    started = time.perf_counter()
    warm = solver.refit(solution, wtp, delta)
    warm_wall = time.perf_counter() - started
    _, warm_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # --- gate (a): warm bit-identity vs a cold re-price of the menu -----
    engine_new = config.build(new_wtp)
    divergences = check_warm_identity(warm.solution, engine_new)
    warm_identical = warm.mode == "warm" and not divergences
    if divergences:
        report["divergences"] = divergences[:10]

    # --- gate (b): drift-forced refit reproduces fit(new_wtp) ----------
    forced = solver.refit(solution, wtp, delta, drift_threshold=0.0)
    cold_identical = (
        forced.mode == "cold"
        and forced.solution.fingerprint() == cold.fingerprint()
    )

    speedup = cold_wall / max(warm_wall, 1e-9)
    revenue_drift = abs(
        warm.solution.expected_revenue - solution.expected_revenue
    ) / max(abs(solution.expected_revenue), 1e-9)

    report["cells"] = {
        "cold_fit_wall_seconds": round(cold_wall, 4),
        "warm_refit_wall_seconds": round(warm_wall, 4),
        "warm_tracemalloc_peak_mb": round(warm_peak / 2**20, 2),
        "ru_maxrss_mb": round(rss_after / 1024, 2),  # Linux reports KiB
        "ru_maxrss_grew": bool(rss_after > rss_before),
    }

    identity_passed = warm_identical and cold_identical
    if cpu_count < 2:
        report["skipped"] = (
            f"only {cpu_count} CPU available - wall-clock on a contended "
            "single core is noise, so the speedup gate is advisory here; "
            "the bit-identity gates still ran and still decide the exit code"
        )
        print(f"SKIP (speedup gate): {report['skipped']}")
        passed = identity_passed
        gate = "warm and cold-fallback bit-identity (speedup skipped: 1 CPU)"
    else:
        passed = identity_passed and speedup >= args.min_speedup
        gate = (
            f"warm/cold bit-identity and warm refit >= {args.min_speedup}x "
            "faster than cold fit"
        )

    report["summary"] = {
        "warm_mode": warm.mode,
        "warm_bit_identical": warm_identical,
        "cold_fallback_fingerprint_identical": cold_identical,
        "speedup_x": round(speedup, 2),
        "revenue_drift": revenue_drift,
        # Infinite drift (structural: the Kupfer ratio appeared or
        # vanished) is not valid JSON; record it as None.
        "measured_drift": warm.drift if np.isfinite(warm.drift) else None,
        "gate": gate,
        "passed": passed,
    }
    print(json.dumps(report["summary"], indent=1))
    if not warm_identical:
        print("FAIL: warm refit diverges from a cold re-price", file=sys.stderr)
    if not cold_identical:
        print(
            "FAIL: drift-forced refit does not reproduce fit(new_wtp)",
            file=sys.stderr,
        )
    if identity_passed and not passed:
        print(
            f"FAIL: warm refit speedup {speedup:.2f}x is below the "
            f"{args.min_speedup}x gate",
            file=sys.stderr,
        )
    return report, 0 if passed else 1


def merge_into_bench(report: dict, bench_path: Path) -> None:
    """Layer the churn cell under ``"churn"`` in the scalability record.

    Everything else in the document — cells, summaries, platform — is
    preserved verbatim; re-running only replaces the churn section.
    """
    if not bench_path.exists():
        print(f"warning: {bench_path} does not exist - skipping merge")
        return
    bench = json.loads(bench_path.read_text())
    bench["churn"] = {
        "base": report["base"],
        "clone_factor": report["clone_factor"],
        "n_users": report["n_users"],
        "churn": report["churn"],
        "n_removed": report["n_removed"],
        "n_added": report["n_added"],
        "algorithm": report["algorithm"],
        "platform": report["platform"],
        "cells": report["cells"],
        "summary": report["summary"],
    }
    bench_path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"merged churn cell into {bench_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=int,
        default=250,
        help="clone factor for the Figure-7a base workload (250 = 100k users)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="fraction of users removed (and the same count added)",
    )
    parser.add_argument(
        "--algorithm",
        default="pure_matching",
        help="registry algorithm fitted before the churn (default: the "
        "scalability benchmark's pure matching heuristic)",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=2,
        help="iteration cap, matching the scalability cells",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required warm-refit-vs-cold-fit wall-clock speedup",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--merge-existing",
        action="store_true",
        help="also record the cell under the 'churn' key of --bench-json, "
        "keeping every other recorded cell",
    )
    parser.add_argument("--bench-json", type=Path, default=DEFAULT_BENCH_JSON)
    args = parser.parse_args()
    report, code = build_report(args)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    if args.merge_existing:
        merge_into_bench(report, args.bench_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
