"""Algorithm 1: the matching-based heuristic for k-sized bundling.

Each iteration treats the current bundles as vertices, weighs candidate
merges by revenue gain, finds a maximum-weight matching, and collapses
every matched pair into a new bundle.  Iterations continue until no
positive-gain merge is selected or every bundle has reached the size cap.

Two pruning rules from Section 5.3.1 are applied (and can be disabled for
ablation):

* **co-support pruning** (iteration 1): only pairs with at least one
  consumer valuing both sides are candidates;
* **new-vertex pruning** (iterations ≥ 2): only edges touching a bundle
  formed in the previous iteration are introduced — edges the matching
  rejected once are never revisited.

Pure and mixed variants differ only in how a merge is priced (standalone
re-pricing versus the incremental mixed policy) and in that the mixed
variant retains replaced bundles as live offers (the paper's ``X'_I``).
"""

from __future__ import annotations

from repro.algorithms.base import (
    PURE,
    BundlingAlgorithm,
    BundlingResult,
    IterationRecord,
    check_max_size,
    check_strategy,
    check_workers_option,
)
from repro.core.choice import SubtreeState
from repro.core.configuration import MixedConfiguration, PureConfiguration
from repro.core.pricing import PricedBundle
from repro.core.revenue import RevenueEngine
from repro.matching.blossom import solve_matching
from repro.utils.timer import Timer


class IterativeMatching(BundlingAlgorithm):
    """The paper's matching-based heuristic (Algorithm 1).

    Parameters
    ----------
    strategy:
        ``"pure"`` or ``"mixed"``.
    k:
        Maximum bundle size (``None`` = unbounded, the Table 3 default).
    co_support_pruning, new_vertex_pruning:
        The two pruning rules; on by default, switchable for ablations.
    max_iterations:
        Optional hard iteration cap (useful for revenue-vs-time traces).
    n_workers:
        Worker threads for the streaming pair scans (overrides the
        engine's setting for this run; ``None`` defers to the engine).
    """

    def __init__(
        self,
        strategy: str = PURE,
        k: int | None = None,
        co_support_pruning: bool = True,
        new_vertex_pruning: bool = True,
        max_iterations: int | None = None,
        n_workers: int | None = None,
    ) -> None:
        self.strategy = check_strategy(strategy)
        self.k = check_max_size(k)
        self.co_support_pruning = co_support_pruning
        self.new_vertex_pruning = new_vertex_pruning
        self.max_iterations = max_iterations
        self.n_workers = check_workers_option(n_workers)
        self.name = f"{self.strategy}_matching"

    def fit(self, engine: RevenueEngine) -> BundlingResult:
        with Timer() as timer, self._engine_overrides(engine):
            mixed = self.strategy != PURE
            resume = self._take_resume()
            if resume is None:
                current: list[PricedBundle] = list(engine.price_components())
                is_new = [True] * len(current)
                states = engine.offer_states(current) if mixed else None
                retained: list[PricedBundle] = []
                revenue_estimate = sum(offer.revenue for offer in current)
                trace: list[IterationRecord] = []
                iteration = 0
            else:
                (
                    current,
                    is_new,
                    states,
                    retained,
                    revenue_estimate,
                    trace,
                    iteration,
                ) = self._restore(engine, resume)

            while True:
                iteration += 1
                if self.max_iterations is not None and iteration > self.max_iterations:
                    break
                pairs = self._candidate_pairs(engine, current, is_new, iteration)
                if not pairs:
                    break

                gain_of: dict[tuple[int, int], float] = {}
                offer_of: dict[tuple[int, int], PricedBundle] = {}
                edges = []
                if self.strategy == PURE:
                    gains, merged = engine.pure_merge_gains(current, pairs)
                    for index, pair in enumerate(pairs):
                        if gains[index] > 0:
                            gain_of[pair] = float(gains[index])
                            offer_of[pair] = merged[index]
                            edges.append((pair[0], pair[1], gains[index]))
                else:
                    merges = engine.mixed_merge_gains(current, states, pairs)
                    merge_of = dict(zip(pairs, merges))
                    for pair, merge in zip(pairs, merges):
                        if merge.feasible and merge.gain > 0:
                            gain_of[pair] = merge.gain
                            subtree = (
                                current[pair[0]].revenue
                                + current[pair[1]].revenue
                                + merge.gain
                            )
                            offer_of[pair] = PricedBundle(
                                merge.bundle, merge.price, subtree, merge.upgraded
                            )
                            edges.append((pair[0], pair[1], merge.gain))
                if not edges:
                    break

                matched = solve_matching(edges)
                total_gain = sum(gain_of[pair] for pair in matched)
                if not matched or total_gain <= 0:
                    break

                taken = {index for pair in matched for index in pair}
                kept = [index for index in range(len(current)) if index not in taken]
                next_current = [current[index] for index in kept]
                next_new = [False] * len(kept)
                merged_states: list[SubtreeState] = []
                for pair in sorted(matched):
                    next_current.append(offer_of[pair])
                    next_new.append(True)
                    if mixed:
                        retained.append(current[pair[0]])
                        retained.append(current[pair[1]])
                        base = states[pair[0]] + states[pair[1]]
                        merged_states.append(
                            engine.merged_mixed_state(merge_of[pair], base)
                        )

                revenue_estimate += total_gain
                current = next_current
                is_new = next_new
                if mixed:
                    states = _carry_states(states, kept, merged_states)
                trace.append(
                    IterationRecord(
                        index=iteration,
                        revenue=revenue_estimate,
                        elapsed=timer.lap(),
                        n_top_bundles=len(current),
                        merges=len(matched),
                    )
                )
                self._emit_checkpoint(
                    engine,
                    iteration,
                    trace,
                    *self._checkpoint_state(
                        current, is_new, states, retained, revenue_estimate
                    ),
                )

            if self.strategy == PURE:
                configuration = PureConfiguration(current, engine.n_items)
            else:
                configuration = MixedConfiguration(current + retained, engine.n_items)
        return self._finalize(engine, configuration, trace, timer)

    def _candidate_pairs(
        self,
        engine: RevenueEngine,
        current: list[PricedBundle],
        is_new: list[bool],
        iteration: int,
    ) -> list[tuple[int, int]]:
        """Candidate merge pairs after size cap and the two pruning rules."""
        bundles = [offer.bundle for offer in current]
        if self.co_support_pruning:
            pairs = engine.co_supported_pairs(bundles)
        else:
            pairs = [
                (i, j) for i in range(len(bundles)) for j in range(i + 1, len(bundles))
            ]
        if self.k is not None:
            pairs = [
                (i, j) for (i, j) in pairs if bundles[i].size + bundles[j].size <= self.k
            ]
        if self.new_vertex_pruning and iteration > 1:
            pairs = [(i, j) for (i, j) in pairs if is_new[i] or is_new[j]]
        return pairs

    # --------------------------------------------------------- checkpointing
    def _checkpoint_state(
        self, current, is_new, states, retained, revenue_estimate
    ) -> tuple[dict, dict]:
        """The restartable state at an iteration boundary (scalars, arrays).

        Unlike the greedy heap, matching keeps no cross-iteration priority
        state — candidate pairs and the matching are recomputed from the
        vertex list every iteration — so the vertex list (with its is-new
        flags), the mixed subtree states, and the retained offers are the
        whole story.
        """
        from repro.api.checkpoint import _float_fields, _offer_entry

        entries = []
        for index, offer in enumerate(current):
            entry = _offer_entry(offer)
            entry["is_new"] = bool(is_new[index])
            entries.append(entry)
        state = {
            "current": entries,
            "retained": [_offer_entry(offer) for offer in retained],
        }
        state.update(_float_fields(revenue_estimate, "revenue_estimate"))
        arrays = {}
        if states is not None:
            for index in range(len(current)):
                arrays[f"score_{index}"] = states.score[index]
                arrays[f"pay_{index}"] = states.pay[index]
        return state, arrays

    def _restore(self, engine: RevenueEngine, checkpoint):
        """Rebuild the vertex list from a checkpoint (inverse of
        :meth:`_checkpoint_state`)."""
        from repro.api.checkpoint import _read_float, _read_offer
        from repro.errors import CheckpointError

        checkpoint.check_algorithm(self)
        checkpoint.check_population(engine.n_users)
        try:
            current = [_read_offer(entry) for entry in checkpoint.state["current"]]
            is_new = [bool(entry["is_new"]) for entry in checkpoint.state["current"]]
            retained = [_read_offer(entry) for entry in checkpoint.state["retained"]]
            revenue_estimate = _read_float(checkpoint.state, "revenue_estimate")
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(
                f"malformed matching checkpoint state: {exc!r}"
            ) from exc
        states = None
        if self.strategy != PURE:
            rows = []
            for index in range(len(current)):
                try:
                    rows.append(
                        SubtreeState(
                            checkpoint.arrays[f"score_{index}"],
                            checkpoint.arrays[f"pay_{index}"],
                        )
                    )
                except KeyError as exc:
                    raise CheckpointError(
                        f"checkpoint is missing the subtree state for vertex {index}"
                    ) from exc
            states = SubtreeState.stack(rows)
        return (
            current,
            is_new,
            states,
            retained,
            revenue_estimate,
            checkpoint.read_trace(),
            checkpoint.iteration,
        )


def _carry_states(
    states: SubtreeState, kept: list[int], merged: list[SubtreeState]
) -> SubtreeState:
    """The next iteration's state stack: rows *kept*, then the *merged* rows.

    Written in place over *states* (ascending *kept* rows move up, never
    over a row still to be read), so the stack never grows and no second
    stack is allocated; the result is a leading slice of the same arrays.
    """
    for stack, tail in (
        (states.score, [state.score for state in merged]),
        (states.pay, [state.pay for state in merged]),
    ):
        for offset, row in enumerate(kept):
            stack[offset] = stack[row]
        for offset, row in enumerate(tail, start=len(kept)):
            stack[offset] = row
    return states[: len(kept) + len(merged)]
