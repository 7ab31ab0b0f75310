"""Independent maximum-weight-matching oracles for the blossom tests.

Neither is used by the library: ``networkx_matching`` is a second,
independently written Edmonds implementation, and ``brute_force_matching``
enumerates every matching of a small graph.
"""

from __future__ import annotations


def networkx_matching(edges, maxcardinality: bool = False) -> set[tuple[int, int]]:
    """networkx's maximum-weight matching, as ``(u, v)`` pairs with ``u < v``."""
    import networkx as nx

    graph = nx.Graph()
    for (u, v, weight) in edges:
        graph.add_edge(u, v, weight=weight)
    result = nx.max_weight_matching(graph, maxcardinality=maxcardinality)
    return {(min(u, v), max(u, v)) for (u, v) in result}


def brute_force_matching(edges) -> set[tuple[int, int]]:
    """Exhaustive matching search; O(2^edges), so at most 24 edges."""
    if len(edges) > 24:
        raise ValueError("brute-force matching is limited to 24 edges")
    best_weight = 0.0
    best: set[tuple[int, int]] = set()

    def recurse(index: int, used: set[int], chosen: list, weight: float) -> None:
        nonlocal best_weight, best
        if weight > best_weight:
            best_weight = weight
            best = {(min(u, v), max(u, v)) for (u, v, _w) in chosen}
        if index == len(edges):
            return
        recurse(index + 1, used, chosen, weight)
        (u, v, w) = edges[index]
        if u not in used and v not in used:
            chosen.append(edges[index])
            recurse(index + 1, used | {u, v}, chosen, weight + w)
            chosen.pop()

    recurse(0, set(), [], 0.0)
    return best


def pairs_weight(edges, pairs) -> float:
    """Total weight of the matched ``(u, v)`` pairs."""
    lookup = {(min(u, v), max(u, v)): w for (u, v, w) in edges}
    return sum(lookup[(min(u, v), max(u, v))] for (u, v) in pairs)
