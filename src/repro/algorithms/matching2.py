"""Optimal 2-sized bundling via maximum-weight matching (Section 5.1).

Each item is a vertex; a candidate size-2 bundle is an edge weighted by its
revenue *gain* over its two components (equivalently, the paper weights
edges by absolute revenue and adds self-loops for singletons — the two
formulations have identical maximizers because singleton revenue is a
constant offset).  A maximum-weight matching then yields the provably
optimal configuration among all bundle configurations with bundles of at
most two items.

For mixed bundling, the edge weight is the *additional* expected revenue
from offering the bundle alongside its two components under the
incremental pricing policy, and the matching constraint enforces that each
component joins at most one bundle (Problem 2's laminarity).
"""

from __future__ import annotations

from repro.algorithms.base import (
    PURE,
    BundlingAlgorithm,
    BundlingResult,
    IterationRecord,
    check_strategy,
)
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.pricing import PricedBundle
from repro.core.revenue import RevenueEngine
from repro.matching.blossom import solve_matching
from repro.utils.timer import Timer


class Optimal2Bundling(BundlingAlgorithm):
    """Exact solver for the 2-sized bundle configuration problem.

    No candidate pruning is applied (Section 5.1 presents this as the
    *optimal* algorithm; co-support pruning is only safe for θ ≤ 0 and
    belongs to the heuristics of Section 5.3).
    """

    strategy = PURE

    def __init__(self, strategy: str = PURE) -> None:
        self.strategy = check_strategy(strategy)
        self.name = f"{self.strategy}_matching2"

    def fit(self, engine: RevenueEngine) -> BundlingResult:
        with Timer() as timer:
            singles = engine.price_components()
            n = engine.n_items
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            gain_of: dict[tuple[int, int], float] = {}
            if self.strategy == PURE:
                gains, merged = engine.pure_merge_gains(singles, pairs)
                payload = {}
                edges = []
                for index, pair in enumerate(pairs):
                    if gains[index] > 0:
                        payload[pair] = merged[index]
                        gain_of[pair] = float(gains[index])
                        edges.append((pair[0], pair[1], gains[index]))
            else:
                states = engine.offer_states(singles)
                merges = engine.mixed_merge_gains(singles, states, pairs)
                payload = {}
                edges = []
                for pair, merge in zip(pairs, merges):
                    if merge.feasible and merge.gain > 0:
                        payload[pair] = merge
                        gain_of[pair] = merge.gain
                        edges.append((pair[0], pair[1], merge.gain))
            matched = solve_matching(edges)

            if self.strategy == PURE:
                taken = {index for pair in matched for index in pair}
                offers = [singles[i] for i in range(n) if i not in taken]
                offers += [payload[pair] for pair in sorted(matched)]
                configuration = PureConfiguration(offers, n)
            else:
                offers = list(singles)
                for pair in sorted(matched):
                    merge = payload[pair]
                    subtree_revenue = (
                        singles[pair[0]].revenue + singles[pair[1]].revenue + merge.gain
                    )
                    offers.append(
                        PricedBundle(merge.bundle, merge.price, subtree_revenue, merge.upgraded)
                    )
                configuration = MixedConfiguration(offers, n)

        trace = [
            IterationRecord(
                index=1,
                revenue=sum(o.revenue for o in singles) + sum(gain_of[pair] for pair in matched),
                elapsed=timer.elapsed,
                n_top_bundles=n - len(matched),
                merges=len(matched),
            )
        ]
        return self._finalize(engine, configuration, trace, timer)
