"""The measured fit and refit, run in a child process.

The parent saves the fit population and launches this file as a script.
The child loads the population, notes its resident set, then repeats
``BundlingSolver.fit`` until its time budget is spent, so the high-water
mark it reports belongs to the fit and not to data generation.  After the
fits it runs warm in-process refits, each across a fresh 1% delta of the
same base population, and checks every one against a cold re-price.

With ``--trace 1`` the child first fits untraced, then fits again with
the layer wrappers of :mod:`spans` installed; the difference of the two
medians is the tracing overhead.

Usage (the parent builds this command)::

    python3 perfbench/fitbench.py --input POP.npy --algorithm pure_matching \
        --budget 8 --min-fits 3 --refits 4 --seed 1 --trace 0 --output OUT.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _fit_loop(solver, wtp, budget: float, min_fits: int, recorder=None) -> list[dict]:
    from hostinfo import reference_seconds

    fits = []
    deadline = time.perf_counter() + budget
    while len(fits) < min_fits or time.perf_counter() < deadline:
        reference = reference_seconds()
        if recorder is not None:
            recorder.clear()
        started = time.perf_counter()
        solution = solver.fit(wtp)
        wall = time.perf_counter() - started
        record = {
            "reference_s": reference,
            "wall_s": wall,
            "fingerprint": solution.fingerprint(),
            "coverage": solution.coverage,
            "iterations": len(solution.trace),
        }
        if recorder is not None:
            record["layers"] = recorder.layers()
            record["counts"] = dict(recorder.counts)
        fits.append(record)
    return fits


def _refits(solver, solution, wtp, n_refits: int, seed: int, recorder=None) -> list[dict]:
    from workloads import CHURN, churn_helpers, cold_identical

    make_delta, check_warm_identity = churn_helpers()
    refits = []
    for index in range(n_refits):
        delta = make_delta(wtp, CHURN, seed=seed + index)
        if recorder is not None:
            recorder.clear()
        started = time.perf_counter()
        report = solver.refit(solution, wtp, delta)
        wall = time.perf_counter() - started
        record = {"wall_s": wall, "warm_s": report.warm_elapsed, "mode": report.mode}
        if recorder is not None:
            record["layers"] = recorder.layers()
        record["identical"] = cold_identical(
            report.solution, delta.apply(wtp), check_warm_identity
        )
        refits.append(record)
    return refits


def child_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measured fit (child process)")
    parser.add_argument("--input", required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--min-fits", type=int, required=True)
    parser.add_argument("--refits", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    from hostinfo import self_rss_kib
    from repro.api import BundlingSolver, EngineConfig
    from repro.core.wtp import WTPMatrix
    from workloads import THETA

    wtp = WTPMatrix(np.load(args.input))
    solver = BundlingSolver(args.algorithm, EngineConfig(theta=THETA))
    baseline_kib = self_rss_kib()
    result = {"baseline_rss_kib": baseline_kib}
    if args.trace:
        from spans import SpanRecorder, installed

        half = args.budget / 2
        result["fits"] = _fit_loop(solver, wtp, half, args.min_fits)
        recorder = SpanRecorder()
        with installed(recorder):
            result["traced_fits"] = _fit_loop(solver, wtp, half, args.min_fits, recorder)
    else:
        result["fits"] = _fit_loop(solver, wtp, args.budget, args.min_fits)
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    solution = solver.fit(wtp)
    if args.trace:
        with installed(recorder):
            result["refits"] = _refits(
                solver, solution, wtp, args.refits, args.seed, recorder
            )
    else:
        result["refits"] = _refits(solver, solution, wtp, args.refits, args.seed)
    Path(args.output).write_text(json.dumps(result))
    return 0


def run_child(
    population: np.ndarray,
    work_dir: Path,
    *,
    algorithm: str,
    budget: float,
    min_fits: int,
    refits: int,
    seed: int,
    trace: bool,
    timeout: float,
) -> dict:
    """Run the measured fit in a child process and return its record."""
    input_path = work_dir / "fit_population.npy"
    output_path = work_dir / "fit_result.json"
    np.save(input_path, population)
    command = [
        sys.executable,
        str(HERE / "fitbench.py"),
        "--input", str(input_path),
        "--algorithm", algorithm,
        "--budget", repr(budget),
        "--min-fits", str(min_fits),
        "--refits", str(refits),
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--output", str(output_path),
    ]
    subprocess.run(command, check=True, timeout=timeout, env=dict(os.environ))
    return json.loads(output_path.read_text())


if __name__ == "__main__":
    sys.exit(child_main())
