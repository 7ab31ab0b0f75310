"""Ablation — matching solver (our blossom vs networkx).

Both solvers are exact, so the resulting configurations' revenues must be
identical; the bench reports the speed difference on the paper's matching
workload (dense positive-gain graphs from iteration 1 of Algorithm 1).
The library always runs blossom; networkx is called directly here and
swapped into the heuristic for the comparison fit.
"""

from unittest import mock

import networkx as nx
import numpy as np

from repro.algorithms import matching_iterative
from repro.algorithms.matching_iterative import IterativeMatching
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings
from repro.experiments import render_table
from repro.experiments.defaults import default_engine
from repro.matching import solve_matching
from repro.utils.rng import ensure_rng
from repro.utils.timer import Timer


def _networkx_matching(edges) -> set[tuple[int, int]]:
    graph = nx.Graph()
    graph.add_weighted_edges_from(edges)
    return {(min(u, v), max(u, v)) for (u, v) in nx.max_weight_matching(graph)}


SOLVERS = {"blossom": solve_matching, "networkx": _networkx_matching}


def _run():
    dataset = amazon_books_like(n_users=500, n_items=80, seed=0)
    wtp = wtp_from_ratings(dataset)
    rows = []
    revenues = {}
    for backend, solve in SOLVERS.items():
        engine = default_engine(wtp)
        with Timer() as timer, mock.patch.object(
            matching_iterative, "solve_matching", solve
        ):
            result = IterativeMatching(strategy="mixed").fit(engine)
        revenues[backend] = result.expected_revenue
        rows.append([backend, round(result.expected_revenue, 2), round(timer.elapsed, 3)])

    # Raw matching speed on random dense graphs (same graphs per backend).
    rng = ensure_rng(7)
    graphs = []
    for _trial in range(3):
        n = 120
        graphs.append(
            [
                (i, j, float(rng.integers(1, 1000)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
        )
    weights = {}
    for backend, solve in SOLVERS.items():
        with Timer() as timer:
            total = 0.0
            for edges in graphs:
                matching = solve(edges)
                lookup = {(min(u, v), max(u, v)): w for u, v, w in edges}
                total += sum(lookup[pair] for pair in matching)
        weights[backend] = total
        rows.append([f"{backend} (raw graphs)", round(total, 1), round(timer.elapsed, 3)])
    return rows, revenues, weights


def test_ablation_backends(benchmark, archive):
    rows, revenues, weights = benchmark.pedantic(_run, rounds=1, iterations=1)
    archive(
        "ablation_backends",
        render_table(
            ["backend", "revenue / matching weight", "seconds"],
            rows,
            title="=== Ablation: matching backends (both exact) ===",
        ),
    )
    # Identical optimal matching weight; configurations may differ slightly
    # when multiple optimal matchings exist, so revenue gets a small band.
    assert np.isclose(weights["blossom"], weights["networkx"], rtol=1e-9)
    assert np.isclose(revenues["blossom"], revenues["networkx"], rtol=0.01)
