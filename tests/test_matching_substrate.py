"""Tests for the graph-matching substrate (blossom against exact oracles)."""

import sys

import numpy as np
import pytest
from matching_oracles import brute_force_matching, networkx_matching, pairs_weight

from repro.errors import ValidationError
from repro.matching.blossom import (
    matching_pairs,
    matching_weight,
    max_weight_matching,
    solve_matching,
)


class TestBlossomKnownCases:
    def test_single_edge(self):
        mate = max_weight_matching([(0, 1, 5.0)])
        assert mate == [1, 0]

    def test_negative_edge_left_unmatched(self):
        mate = max_weight_matching([(0, 1, -2.0)])
        assert mate == [-1, -1]

    def test_path_picks_heavier_edge(self):
        # Path 0-1-2: only one of the two edges can be matched.
        mate = max_weight_matching([(0, 1, 3.0), (1, 2, 5.0)])
        assert mate[1] == 2 and mate[0] == -1

    def test_path_picks_two_disjoint(self):
        mate = max_weight_matching([(0, 1, 3.0), (1, 2, 5.0), (2, 3, 3.0)])
        # total 6 from the two outer edges beats 5 from the middle.
        assert mate[0] == 1 and mate[2] == 3

    def test_triangle(self):
        mate = max_weight_matching([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)])
        assert matching_weight([(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)], mate) == 4.0

    def test_blossom_structure_is_handled(self):
        # Classic 5-cycle forcing a blossom, plus pendant edges.
        edges = [
            (0, 1, 8.0), (1, 2, 9.0), (2, 3, 10.0), (3, 4, 7.0), (4, 0, 8.0),
            (1, 5, 5.0), (3, 6, 4.0),
        ]
        mate = max_weight_matching(edges)
        weight = matching_weight(edges, mate)
        assert weight == pytest.approx(pairs_weight(edges, brute_force_matching(edges)))

    def test_maxcardinality_variant(self):
        # With maxcardinality, vertex 2 must be matched even at a loss.
        edges = [(0, 1, 10.0), (1, 2, 1.0)]
        plain = max_weight_matching(edges)
        full = max_weight_matching(edges, maxcardinality=True)
        assert plain[0] == 1
        assert full.count(-1) <= plain.count(-1)

    def test_fractional_weights(self):
        edges = [(0, 1, 2.5), (1, 2, 2.6), (0, 2, 0.1)]
        mate = max_weight_matching(edges)
        assert matching_weight(edges, mate) == pytest.approx(2.6)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            max_weight_matching([(1, 1, 3.0)])

    def test_empty_edges(self):
        assert max_weight_matching([]) == []

    def test_matching_pairs_helper(self):
        mate = max_weight_matching([(0, 1, 5.0), (2, 3, 4.0)])
        assert matching_pairs(mate) == {(0, 1), (2, 3)}


class TestBlossomRandomized:
    def test_agrees_with_brute_force(self, rng):
        for _trial in range(60):
            n = int(rng.integers(2, 8))
            edges = []
            seen = set()
            for _ in range(int(rng.integers(1, 15))):
                u, v = rng.choice(n, size=2, replace=False)
                key = (min(u, v), max(u, v))
                if key in seen:
                    continue
                seen.add(key)
                edges.append((int(key[0]), int(key[1]), float(rng.uniform(-3, 12))))
            if not edges or len(edges) > 20:
                continue
            mate = max_weight_matching(edges)
            ours = matching_weight(edges, mate)
            brute = pairs_weight(edges, brute_force_matching(edges))
            assert ours == pytest.approx(brute), edges

    def test_agrees_with_networkx_on_larger_graphs(self, rng):
        for _trial in range(10):
            n = int(rng.integers(12, 40))
            edges = []
            seen = set()
            for _ in range(n * 2):
                u, v = rng.choice(n, size=2, replace=False)
                key = (min(u, v), max(u, v))
                if key in seen:
                    continue
                seen.add(key)
                edges.append((int(key[0]), int(key[1]), float(rng.integers(1, 100))))
            mate = max_weight_matching(edges)
            ours = matching_weight(edges, mate)
            theirs = pairs_weight(edges, networkx_matching(edges))
            assert ours == pytest.approx(theirs)

    def test_matching_is_valid(self, rng):
        for _trial in range(20):
            n = int(rng.integers(4, 20))
            edges = [
                (i, j, float(rng.uniform(0, 10)))
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            if not edges:
                continue
            mate = max_weight_matching(edges)
            edge_set = {(min(u, v), max(u, v)) for u, v, _ in edges}
            for u in range(len(mate)):
                if mate[u] >= 0:
                    assert mate[mate[u]] == u  # symmetric
                    assert (min(u, mate[u]), max(u, mate[u])) in edge_set


class TestBackends:
    """``solve_matching`` (always blossom) against the two test oracles."""

    def test_all_backends_same_weight(self, rng):
        edges = [
            (i, j, float(rng.integers(1, 30)))
            for i in range(8)
            for j in range(i + 1, 8)
            if rng.random() < 0.6
        ]
        weights = [
            pairs_weight(edges, solve(edges))
            for solve in (solve_matching, networkx_matching, brute_force_matching)
        ]
        assert len({round(w, 9) for w in weights}) == 1, weights

    def test_unknown_backend(self):
        """Blossom is the only solver: there is no backend to choose."""
        with pytest.raises(TypeError):
            solve_matching([(0, 1, 1.0)], backend="networkx")

    def test_empty_edges(self):
        assert solve_matching([]) == set()

    def test_brute_force_edge_limit(self):
        edges = [(i, i + 1, 1.0) for i in range(30)]
        with pytest.raises(ValueError):
            brute_force_matching(edges)


def _dense_graph(rng, n_vertices: int, density: float = 0.97) -> list:
    """A near-complete graph with lognormal "gain" weights, like a first
    matching round of a wide mixed fit."""
    return [
        (i, j, float(rng.lognormal(mean=0.0, sigma=1.5)))
        for i in range(n_vertices)
        for j in range(i + 1, n_vertices)
        if rng.random() < density
    ]


def _on_grid(edges, step: float = 0.25) -> list:
    """The same graph with weights rounded to a coarse grid: many ties."""
    return [(u, v, step * max(1.0, round(w / step))) for (u, v, w) in edges]


def _assert_optimal(edges, maxcardinality: bool) -> list[int]:
    mate = max_weight_matching(edges, maxcardinality=maxcardinality)
    present = {(min(u, v), max(u, v)) for (u, v, _w) in edges}
    for u, partner in enumerate(mate):
        if partner >= 0:
            assert mate[partner] == u
            assert (min(u, partner), max(u, partner)) in present
    reference = networkx_matching(edges, maxcardinality=maxcardinality)
    assert matching_weight(edges, mate) == pytest.approx(
        pairs_weight(edges, reference), rel=1e-9
    )
    if maxcardinality:
        assert len(matching_pairs(mate)) == len(reference)
    return mate


def _expansions(edges) -> int:
    """How many times the dual step expanded a T-blossom (delta4)."""
    seen = []

    def hook(frame, event, _arg):
        if (
            event == "call"
            and frame.f_code.co_name == "expand_blossom"
            and not frame.f_locals["endstage"]
        ):
            seen.append(frame.f_locals["b"])

    sys.setprofile(hook)
    try:
        max_weight_matching(edges)
    finally:
        sys.setprofile(None)
    return len(seen)


#: Graphs that relabel a blossom as T and expand it in a dual step, from
#: van Rantwijk's test set for the reference implementation.
EXPANDING_GRAPHS = {
    "s_blossom_relabel_expand": [
        (1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25),
        (4, 8, 14), (5, 7, 13),
    ],
    "nested_s_blossom_relabel_expand": [
        (1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18),
        (4, 5, 13), (4, 7, 7), (5, 6, 7),
    ],
    "relabel_t_more_than_one_way": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
        (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5),
    ],
    "expand_to_new_least_slack_edge": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
        (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5),
    ],
    "inner_blossom_on_augmenting_path": [
        (1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
        (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
        (11, 12, 5),
    ],
}


class TestDenseGraphs:
    """Near-complete graphs of the size a wide fit's first round produces."""

    @pytest.mark.parametrize("maxcardinality", [False, True])
    @pytest.mark.parametrize("n_vertices", [60, 90, 120])
    def test_lognormal_gains(self, n_vertices, maxcardinality):
        rng = np.random.default_rng(n_vertices)
        _assert_optimal(_dense_graph(rng, n_vertices), maxcardinality)

    @pytest.mark.parametrize("maxcardinality", [False, True])
    @pytest.mark.parametrize("n_vertices", [60, 90, 120])
    def test_tie_heavy_grid_weights(self, n_vertices, maxcardinality):
        rng = np.random.default_rng(n_vertices)
        edges = _on_grid(_dense_graph(rng, n_vertices))
        assert len({w for (_u, _v, w) in edges}) < len(edges) // 8
        _assert_optimal(edges, maxcardinality)

    @pytest.mark.parametrize("maxcardinality", [False, True])
    @pytest.mark.parametrize("name", sorted(EXPANDING_GRAPHS))
    def test_blossom_expansion(self, name, maxcardinality):
        edges = [(u, v, float(w)) for (u, v, w) in EXPANDING_GRAPHS[name]]
        assert _expansions(edges) > 0
        _assert_optimal(edges, maxcardinality)
