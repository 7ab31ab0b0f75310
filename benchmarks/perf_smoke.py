"""CI perf-smoke gates: threaded pair scans, blossom matching and the
compiled offer forest must be fast.

The committed ``BENCH_scalability.json`` was recorded on a 1-CPU container,
where every "parallel" ratio measures overhead rather than parallelism
(``summary.parallel_vs_serial`` is 1.03×).  GitHub-hosted runners have
multiple cores, so CI is where a genuine multi-core speedup can be
*measured and gated*.  This script runs the two O(M·N²) pair scans — one
pure, one mixed — once in order (``n_workers=1``) and once on
``n_workers=W`` threads on a cloned Figure-7a workload, then:

* asserts the scans' results are **bit-identical** (every gain, price,
  upgrade count, and feasibility flag — stricter than comparing revenue);
* asserts the combined wall-clock speedup is at least ``--min-speedup``
  (default 1.2×; 2 threads on 2 CPUs measured 1.40–1.66× at the default
  100k users);
* writes a JSON report (uploaded as a CI artifact) either way.

With fewer than two available cores the gate cannot mean anything, so the
script prints a skip notice, records ``"skipped"`` in the report, and
exits 0 — the skip is visible in the artifact, not silent.

A second gate needs one core and always runs: on a seeded 120-vertex,
~97%-dense graph with lognormal weights (the shape of a wide mixed fit's
first matching round), ``solve_matching`` must find a matching of the same
weight as ``networkx.max_weight_matching`` and run at least
``MATCHING_MIN_SPEEDUP`` times faster, both timed on the same runner.  Its
figures go under ``"matching"`` in the report.

A third gate also needs one core and always runs: on a seeded ~115-offer
``mixed_matching`` menu (the served menu's recipe: 2,000 users × 60 items,
θ = 0.1), 1-row and 16-row quotes through the compiled
:class:`~repro.core.choice.ForestPlan` must equal the per-node recursion
of ``tests/forest_oracles.py`` bit for bit (payments, and buyers per offer)
and run at least ``FOREST_MIN_SPEEDUP`` times faster.  Its figures go
under ``"forest"``.  Its pure twin fits ``pure_matching`` on the same
recipe: a pure menu is a forest of roots, and the same quotes through its
plan (payments and buyers, as a pure menu is served) must equal the
per-offer loop of ``tests/forest_oracles.py`` bit for bit (payments,
buyers per offer, and the revenue summed as price · buyers) and run at
least ``FOREST_MIN_SPEEDUP`` times faster, under ``"forest"``/``"pure"``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py --n-workers 2
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import BundlingSolver, EngineConfig
from repro.core.choice import ChoiceOutcome
from repro.core.kernels import available_cpus
from repro.data.synthetic import amazon_books_like
from repro.core.wtp import WTPMatrix
from repro.data.wtp_mapping import wtp_from_ratings
from repro.matching import solve_matching

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "perf_smoke.json"

#: Required networkx ÷ blossom wall-time ratio on the dense matching graph.
MATCHING_MIN_SPEEDUP = 6.0
#: The matching gate's graph, shaped like a wide mixed fit's first round.
MATCHING_GRAPH = {"n_vertices": 120, "density": 0.97, "seed": 0}
#: Required recursion ÷ plan wall-time ratio per quote on the forest menu.
FOREST_MIN_SPEEDUP = 3.0
#: The forest gate's menu: ``mixed_matching`` on the first ``fit_users``
#: rows of a seeded Books-like population; later rows are quoted.
FOREST_MENU = {"fit_users": 2000, "n_items": 60, "seed": 2, "theta": 0.1}
#: Quotes timed per request size, and the request sizes.
FOREST_REQUESTS = 60
FOREST_ROWS = (1, 16)


def dense_gain_graph(n_vertices: int, density: float, seed: int) -> list:
    """A seeded near-complete graph with lognormal "gain" edge weights."""
    rng = np.random.default_rng(seed)
    return [
        (i, j, float(rng.lognormal(mean=0.0, sigma=1.5)))
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < density
    ]


def _best_of(repeats: int, solve, edges) -> tuple[float, set]:
    """The fastest of *repeats* wall times of ``solve(edges)``, and its result."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        pairs = solve(edges)
        best = min(best, time.perf_counter() - started)
    return best, pairs


def _networkx_matching(edges) -> set:
    import networkx as nx

    graph = nx.Graph()
    graph.add_weighted_edges_from(edges)
    return nx.max_weight_matching(graph, maxcardinality=False)


def matching_cell(repeats: int = 3) -> dict:
    """Blossom against networkx on one dense graph: same weight, and speed."""
    edges = dense_gain_graph(**MATCHING_GRAPH)
    weight = {(min(u, v), max(u, v)): w for (u, v, w) in edges}
    blossom_s, ours = _best_of(repeats, solve_matching, edges)
    networkx_s, theirs = _best_of(repeats, _networkx_matching, edges)
    ours_weight = sum(weight[pair] for pair in ours)
    theirs_weight = sum(weight[(min(u, v), max(u, v))] for (u, v) in theirs)
    same_weight = abs(ours_weight - theirs_weight) <= 1e-9 * abs(theirs_weight)
    speedup = networkx_s / max(blossom_s, 1e-9)
    return {
        "graph": {**MATCHING_GRAPH, "n_edges": len(edges)},
        "blossom_seconds": round(blossom_s, 4),
        "networkx_seconds": round(networkx_s, 4),
        "speedup_x": round(speedup, 2),
        "matched_pairs": len(ours),
        "blossom_weight": ours_weight,
        "networkx_weight": theirs_weight,
        "same_weight": same_weight,
        "gate": f"same weight and networkx / blossom >= {MATCHING_MIN_SPEEDUP}x",
        "passed": same_weight and speedup >= MATCHING_MIN_SPEEDUP,
    }


def _forest_oracles():
    """``tests/forest_oracles.py``, loaded by path (it is not a package)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "forest_oracles.py"
    spec = importlib.util.spec_from_file_location("repro_forest_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_choice(outcome, expected) -> bool:
    """Payments byte for byte, and buyers per offer to the last bit."""
    buyers = [
        {bundle: float(n).hex() for bundle, n in result.buyers_per_offer.items()}
        for result in (outcome, expected)
    ]
    same_payments = outcome.payments.tobytes() == expected.payments.tobytes()
    return same_payments and buyers[0] == buyers[1]


def _plan_against_oracle(
    requests_by_rows: dict, quote, oracle, same, repeats: int
) -> dict:
    """Per request size: ``quote`` (the plan) equals ``oracle`` on every
    request by ``same``, and the oracle's wall time over the plan's."""
    cells = {}
    for n_rows, requests in requests_by_rows.items():
        identical = all(same(rows, quote(rows), oracle(rows)) for rows in requests)
        plan_s, _ = _best_of(repeats, lambda rs: [quote(r) for r in rs], requests)
        oracle_s, _ = _best_of(repeats, lambda rs: [oracle(r) for r in rs], requests)
        cells[f"rows_{n_rows}"] = {
            "plan_ms_per_quote": round(1e3 * plan_s / FOREST_REQUESTS, 4),
            "oracle_ms_per_quote": round(1e3 * oracle_s / FOREST_REQUESTS, 4),
            "speedup_x": round(oracle_s / max(plan_s, 1e-9), 2),
            "bit_identical": identical,
        }
    bit_identical = all(cell["bit_identical"] for cell in cells.values())
    speedup = min(cell["speedup_x"] for cell in cells.values())
    return {
        **cells,
        "bit_identical": bit_identical,
        "speedup_x": speedup,
        "passed": bit_identical and speedup >= FOREST_MIN_SPEEDUP,
    }


def forest_cell(repeats: int = 3) -> dict:
    """Quotes through the compiled forest against the per-node recursion,
    and a pure menu's plan against the per-offer loop."""
    oracles = _forest_oracles()
    n_fit = FOREST_MENU["fit_users"]
    theta = FOREST_MENU["theta"]
    dataset = amazon_books_like(
        n_users=n_fit + FOREST_REQUESTS * max(FOREST_ROWS),
        n_items=FOREST_MENU["n_items"],
        seed=FOREST_MENU["seed"],
    )
    values = wtp_from_ratings(dataset, conversion=1.25).values
    held_out = values[n_fit:]
    requests_by_rows = {
        n_rows: [
            WTPMatrix(held_out[k * n_rows : (k + 1) * n_rows])
            for k in range(FOREST_REQUESTS)
        ]
        for n_rows in FOREST_ROWS
    }
    config = EngineConfig(theta=theta)
    adoption = config.adoption.build()
    fit_wtp = WTPMatrix(values[:n_fit])
    mixed = BundlingSolver("mixed_matching", config).fit(fit_wtp).configuration
    forest, plan = mixed.forest(), mixed.plan()

    def recursion(rows):
        wtp_of = oracles.engine_wtp_of(rows, theta)
        return oracles.recursive_evaluate_forest(forest, wtp_of, adoption)

    def same_mixed(rows, payments, expected) -> bool:
        same_payments = payments.tobytes() == expected.payments.tobytes()
        outcome = plan.evaluate(rows, theta, adoption)
        return same_payments and _same_choice(outcome, expected)

    cell = _plan_against_oracle(
        requests_by_rows,
        lambda rows: plan.payments(rows, theta, adoption),
        recursion,
        same_mixed,
        repeats,
    )

    # The pure twin: a pure menu is a forest of roots, and serving it runs
    # the plan with buyers (its revenue is the sum of price · buyers).
    pure = BundlingSolver("pure_matching", config).fit(fit_wtp).configuration
    pure_plan = pure.plan()

    def per_offer_loop(rows):
        return oracles.pure_menu_outcome(pure.offers, rows, theta, adoption)

    def same_pure(rows, outcome, expected) -> bool:
        payments, buyers, revenue = expected
        same = _same_choice(outcome, ChoiceOutcome(payments, buyers))
        return same and pure.revenue(outcome) == revenue

    pure_cell = _plan_against_oracle(
        requests_by_rows,
        lambda rows: pure_plan.evaluate(rows, theta, adoption),
        per_offer_loop,
        same_pure,
        repeats,
    )
    return {
        "menu": {
            **FOREST_MENU,
            "offers": len(plan.nodes),
            "heights": len(plan.levels),
            "bundle_sizes": len(plan.size_groups),
        },
        "requests_per_size": FOREST_REQUESTS,
        **cell,
        "gate": f"bit-identical and recursion / plan >= {FOREST_MIN_SPEEDUP}x",
        "pure": {
            "menu": {
                "algorithm": "pure_matching",
                "offers": len(pure_plan.nodes),
                "bundle_sizes": len(pure_plan.size_groups),
            },
            **pure_cell,
            "gate": f"bit-identical and loop / plan >= {FOREST_MIN_SPEEDUP}x",
        },
    }


def run_scans(config: EngineConfig, wtp) -> dict:
    """Time one pure and one mixed pair scan under *config*.

    Engine construction, singleton pricing, co-support pruning, and state
    building are untimed prep: the gate measures the scans the threads
    actually parallelize.  Returns wall times plus the full per-pair
    results for bit-identity checks.
    """
    engine = config.build(wtp)
    singles = engine.price_components()
    pairs = engine.co_supported_pairs([offer.bundle for offer in singles])

    started = time.perf_counter()
    gains, merged = engine.pure_merge_gains(singles, pairs)
    pure_wall = time.perf_counter() - started

    states = engine.offer_states(singles)
    started = time.perf_counter()
    merges = engine.mixed_merge_gains(singles, states, pairs)
    mixed_wall = time.perf_counter() - started

    return {
        "n_workers": config.n_workers,
        "n_pairs": len(pairs),
        "pure_wall_seconds": round(pure_wall, 4),
        "mixed_wall_seconds": round(mixed_wall, 4),
        "total_wall_seconds": round(pure_wall + mixed_wall, 4),
        "pure_results": [
            (float(gain), offer.price, offer.revenue, offer.buyers)
            for gain, offer in zip(gains, merged)
        ],
        "mixed_results": [
            (merge.price, merge.gain, merge.upgraded, merge.feasible)
            for merge in merges
        ],
    }


def build_report(args) -> tuple[dict, int]:
    """The perf-smoke report plus the process exit code."""
    cpu_count = available_cpus()
    matching = matching_cell()
    print(json.dumps({"matching": matching}, indent=1))
    if not matching["passed"]:
        print(
            f"FAIL: blossom matching is {matching['speedup_x']}x networkx "
            f"(gate {MATCHING_MIN_SPEEDUP}x), same weight: {matching['same_weight']}",
            file=sys.stderr,
        )
    forest = forest_cell()
    print(json.dumps({"forest": forest}, indent=1))
    if not forest["passed"]:
        print(
            f"FAIL: the compiled forest is {forest['speedup_x']}x the recursion "
            f"(gate {FOREST_MIN_SPEEDUP}x), bit-identical: {forest['bit_identical']}",
            file=sys.stderr,
        )
    pure = forest["pure"]
    if not pure["passed"]:
        print(
            f"FAIL: the pure-menu plan is {pure['speedup_x']}x the per-offer loop "
            f"(gate {FOREST_MIN_SPEEDUP}x), bit-identical: {pure['bit_identical']}",
            file=sys.stderr,
        )
    one_core_passed = matching["passed"] and forest["passed"] and pure["passed"]
    one_core_code = 0 if one_core_passed else 1
    report = {
        "benchmark": (
            "perf-smoke (threaded vs serial pair scans; blossom vs networkx; "
            "compiled forest vs recursion)"
        ),
        "matching": matching,
        "forest": forest,
        "base": {"n_users": 400, "n_items": 60, "seed": 2},
        "clone_factor": args.factor,
        "n_workers": args.n_workers,
        "min_speedup": args.min_speedup,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": cpu_count,
        },
    }
    if cpu_count < 2:
        report["skipped"] = (
            f"only {cpu_count} CPU available - a threaded-vs-serial speedup "
            "gate is meaningless without a second core"
        )
        print(f"SKIP: {report['skipped']}")
        return report, one_core_code

    dataset = amazon_books_like(n_users=400, n_items=60, seed=2)
    wtp = wtp_from_ratings(dataset, conversion=1.25).clone_users(args.factor)
    report["n_users"] = wtp.n_users

    serial = run_scans(EngineConfig(), wtp)
    threaded = run_scans(EngineConfig(n_workers=args.n_workers), wtp)

    identical = (
        serial["pure_results"] == threaded["pure_results"]
        and serial["mixed_results"] == threaded["mixed_results"]
    )
    if not identical:
        # Keep evidence in the artifact: the first diverging pairs per
        # workload (the full vectors are dropped below to keep it small).
        report["divergences"] = {
            workload: [
                {"pair_index": k, "serial": s, "threaded": t}
                for k, (s, t) in enumerate(
                    zip(serial[f"{workload}_results"], threaded[f"{workload}_results"])
                )
                if s != t
            ][:10]
            for workload in ("pure", "mixed")
        }
    speedup = {
        "pure": serial["pure_wall_seconds"]
        / max(threaded["pure_wall_seconds"], 1e-9),
        "mixed": serial["mixed_wall_seconds"]
        / max(threaded["mixed_wall_seconds"], 1e-9),
        "combined": serial["total_wall_seconds"]
        / max(threaded["total_wall_seconds"], 1e-9),
    }
    passed = identical and speedup["combined"] >= args.min_speedup

    for cell in (serial, threaded):
        # The full result vectors verified above are too bulky for the
        # artifact; keep a compact revenue checksum per cell instead.
        cell["pure_revenue_sum"] = sum(r[2] for r in cell.pop("pure_results"))
        cell["mixed_gain_sum"] = sum(r[1] for r in cell.pop("mixed_results") if r[3])
    report["cells"] = [serial, threaded]
    report["summary"] = {
        "results_bit_identical": identical,
        "pure_speedup_x": round(speedup["pure"], 2),
        "mixed_speedup_x": round(speedup["mixed"], 2),
        "combined_speedup_x": round(speedup["combined"], 2),
        "gate": f"combined >= {args.min_speedup}x and bit-identical results",
        "passed": passed,
    }
    print(json.dumps(report["summary"], indent=1))
    if not identical:
        print("FAIL: threaded results differ from serial", file=sys.stderr)
    elif not passed:
        print(
            f"FAIL: combined speedup {speedup['combined']:.2f}x is below the "
            f"{args.min_speedup}x gate",
            file=sys.stderr,
        )
    return report, 0 if passed and not one_core_code else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--factor",
        type=int,
        default=250,
        help="clone factor for the Figure-7a base workload (250 = 100k users)",
    )
    parser.add_argument(
        "--n-workers",
        type=int,
        default=2,
        help="scan thread count (default 2: the minimum that can "
        "demonstrate parallelism)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.2,
        help="required combined wall-clock speedup over serial",
    )
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()
    report, code = build_report(args)
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return code


if __name__ == "__main__":
    sys.exit(main())
