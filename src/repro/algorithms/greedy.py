"""Algorithm 2: the greedy merge heuristic for k-sized bundling.

Where Algorithm 1 optimizes globally per iteration, the greedy algorithm
performs one merge per iteration: the pair of current bundles with the
highest absolute revenue gain.  The freshly merged bundle immediately
competes in the next iteration.  The run stops at the paper's natural
stopping condition — no remaining positive-gain merge.

Candidate gains live in a lazy max-heap: entries referencing replaced
bundles are discarded on pop, so each merge costs O(B log B) heap work
plus O(B) new gain evaluations (B = live bundles), matching the
O(M·N² + N² log N) analysis of Section 5.3.2.

Checkpoint/resume
-----------------
With checkpointing armed (see :class:`~repro.algorithms.base.
BundlingAlgorithm`), the live-bundle table — offers, creation batches,
mixed subtree states, retained offers — is persisted at each iteration
boundary.  The heap itself is *not* persisted: on resume it is rebuilt
canonically (:meth:`GreedyMerge._rebuild_heap`) by re-evaluating every
live candidate pair with the same chunk-pure scans and re-pushing in the
original insertion order, so gain ties break identically and the resumed
run replays the uninterrupted run's merges bit for bit.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

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
from repro.utils.timer import Timer


class GreedyMerge(BundlingAlgorithm):
    """The paper's greedy heuristic (Algorithm 2)."""

    def __init__(
        self,
        strategy: str = PURE,
        k: int | None = None,
        co_support_pruning: bool = True,
        n_workers: int | None = None,
    ) -> None:
        self.strategy = check_strategy(strategy)
        self.k = check_max_size(k)
        self.co_support_pruning = co_support_pruning
        self.n_workers = check_workers_option(n_workers)
        self.name = f"{self.strategy}_greedy"

    def fit(self, engine: RevenueEngine) -> BundlingResult:
        with Timer() as timer, self._engine_overrides(engine):
            mixed = self.strategy != PURE
            heap: list[tuple[float, int, int, int, object]] = []
            sequence = itertools.count()
            resume = self._take_resume()
            if resume is None:
                singles = engine.price_components()
                live: dict[int, PricedBundle] = dict(enumerate(singles))
                states: dict[int, object] = (
                    {index: engine.offer_state(offer) for index, offer in live.items()}
                    if mixed
                    else {}
                )
                # Creation batch per live id (0 = singleton, m = the merge
                # of iteration m) — the key that lets a resumed run rebuild
                # the heap in original insertion order.
                created_at: dict[int, int] = {index: 0 for index in live}
                next_id_start = len(singles)
                retained: list[PricedBundle] = []
                revenue_estimate = sum(offer.revenue for offer in singles)
                trace: list[IterationRecord] = []
                iteration = 0
            else:
                (
                    live,
                    states,
                    created_at,
                    next_id_start,
                    retained,
                    revenue_estimate,
                    trace,
                    iteration,
                ) = self._restore(engine, resume)
            # Bit-packed support words: merge-time co-support tests are a
            # word-AND over M/8 bytes instead of an O(M) boolean scan.
            support = {
                index: engine.support_bits(offer.bundle) for index, offer in live.items()
            }
            next_id = itertools.count(next_id_start)

            if resume is None:
                initial_pairs = self._initial_pairs(engine, list(live.values()))
                self._push_gains(
                    engine, heap, sequence, live, states, [(i, j) for i, j in initial_pairs]
                )
            else:
                self._rebuild_heap(
                    engine, heap, sequence, live, states, created_at, support
                )

            while heap:
                neg_gain, _seq, id1, id2, payload = heapq.heappop(heap)
                if id1 not in live or id2 not in live:
                    continue  # stale entry referencing a replaced bundle
                gain = -neg_gain
                if gain <= 0:
                    break
                iteration += 1
                first, second = live.pop(id1), live.pop(id2)
                if self.strategy == PURE:
                    offer: PricedBundle = payload  # the re-priced merged bundle
                else:
                    merge = payload
                    offer = PricedBundle(
                        merge.bundle,
                        merge.price,
                        first.revenue + second.revenue + merge.gain,
                        merge.upgraded,
                    )
                    retained.append(first)
                    retained.append(second)
                new_id = next(next_id)
                live[new_id] = offer
                created_at[new_id] = iteration
                if mixed:
                    base = states.pop(id1) + states.pop(id2)
                    states[new_id] = engine.merged_mixed_state(merge, base)
                new_support = support.pop(id1) | support.pop(id2)
                support[new_id] = new_support
                revenue_estimate += gain
                trace.append(
                    IterationRecord(
                        index=iteration,
                        revenue=revenue_estimate,
                        elapsed=timer.lap(),
                        n_top_bundles=len(live),
                        merges=1,
                    )
                )

                # New candidate pairs: the fresh bundle against every live one.
                partners = []
                for other_id, other in live.items():
                    if other_id == new_id:
                        continue
                    if self.k is not None and offer.size + other.size > self.k:
                        continue
                    if self.co_support_pruning and not np.any(
                        new_support & support[other_id]
                    ):
                        continue
                    partners.append(other_id)
                self._push_gains(
                    engine, heap, sequence, live, states, [(new_id, oid) for oid in partners]
                )
                self._emit_checkpoint(
                    engine,
                    iteration,
                    trace,
                    *self._checkpoint_state(
                        live, states, created_at, retained, revenue_estimate
                    ),
                )

            offers = list(live.values())
            if self.strategy == PURE:
                configuration = PureConfiguration(offers, engine.n_items)
            else:
                configuration = MixedConfiguration(offers + retained, engine.n_items)
        return self._finalize(engine, configuration, trace, timer)

    # ------------------------------------------------------------------ util
    def _initial_pairs(self, engine: RevenueEngine, singles) -> list[tuple[int, int]]:
        bundles = [offer.bundle for offer in singles]
        if self.co_support_pruning:
            pairs = engine.co_supported_pairs(bundles)
        else:
            pairs = [
                (i, j) for i in range(len(bundles)) for j in range(i + 1, len(bundles))
            ]
        if self.k is not None:
            pairs = [(i, j) for (i, j) in pairs if bundles[i].size + bundles[j].size <= self.k]
        return pairs

    def _push_gains(self, engine, heap, sequence, live, states, id_pairs) -> None:
        """Evaluate gains for bundle-id pairs and push positive ones."""
        if not id_pairs:
            return
        ids = sorted({identifier for pair in id_pairs for identifier in pair})
        position = {identifier: pos for pos, identifier in enumerate(ids)}
        priced = [live[identifier] for identifier in ids]
        index_pairs = [(position[a], position[b]) for a, b in id_pairs]
        if self.strategy == PURE:
            gains, merged = engine.pure_merge_gains(priced, index_pairs)
            for (id1, id2), gain, offer in zip(id_pairs, gains, merged):
                if gain > 0:
                    heapq.heappush(heap, (-float(gain), next(sequence), id1, id2, offer))
        else:
            pair_states = SubtreeState.stack([states[identifier] for identifier in ids])
            merges = engine.mixed_merge_gains(priced, pair_states, index_pairs)
            for (id1, id2), merge in zip(id_pairs, merges):
                if merge.feasible and merge.gain > 0:
                    heapq.heappush(heap, (-merge.gain, next(sequence), id1, id2, merge))

    # --------------------------------------------------------- checkpointing
    def _checkpoint_state(
        self, live, states, created_at, retained, revenue_estimate
    ) -> tuple[dict, dict]:
        """The restartable state at an iteration boundary (scalars, arrays)."""
        from repro.api.checkpoint import _float_fields, _offer_entry

        entries = []
        for identifier, offer in live.items():
            entry = _offer_entry(offer)
            entry["id"] = identifier
            entry["created_at"] = created_at[identifier]
            entries.append(entry)
        state = {
            "live": entries,
            "retained": [_offer_entry(offer) for offer in retained],
        }
        state.update(_float_fields(revenue_estimate, "revenue_estimate"))
        arrays = {}
        for identifier, subtree in states.items():
            arrays[f"score_{identifier}"] = subtree.score
            arrays[f"pay_{identifier}"] = subtree.pay
        return state, arrays

    def _restore(self, engine: RevenueEngine, checkpoint):
        """Rebuild the live-bundle table from a checkpoint (inverse of
        :meth:`_checkpoint_state`); the heap is rebuilt separately."""
        from repro.api.checkpoint import _read_float, _read_offer
        from repro.errors import CheckpointError

        checkpoint.check_algorithm(self)
        checkpoint.check_population(engine.n_users)
        try:
            live = {}
            created_at = {}
            for entry in checkpoint.state["live"]:
                identifier = int(entry["id"])
                live[identifier] = _read_offer(entry)
                created_at[identifier] = int(entry["created_at"])
            retained = [_read_offer(entry) for entry in checkpoint.state["retained"]]
            revenue_estimate = _read_float(checkpoint.state, "revenue_estimate")
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"malformed greedy checkpoint state: {exc!r}") from exc
        states: dict[int, object] = {}
        if self.strategy != PURE:
            for identifier in live:
                try:
                    states[identifier] = SubtreeState(
                        checkpoint.arrays[f"score_{identifier}"],
                        checkpoint.arrays[f"pay_{identifier}"],
                    )
                except KeyError as exc:
                    raise CheckpointError(
                        f"checkpoint is missing the subtree state for live "
                        f"bundle {identifier}"
                    ) from exc
        next_id_start = max(live) + 1 if live else engine.n_items
        return (
            live,
            states,
            created_at,
            next_id_start,
            retained,
            revenue_estimate,
            checkpoint.read_trace(),
            checkpoint.iteration,
        )

    def _rebuild_heap(
        self, engine, heap, sequence, live, states, created_at, support
    ) -> None:
        """Re-push every live candidate pair in original insertion order.

        The heap breaks gain ties by insertion sequence, so replaying the
        uninterrupted run exactly requires re-pushing in the order the
        original pushes happened: iteration-0 pairs first (upper-triangle
        order — how :meth:`_initial_pairs` emits them), then each later
        batch's pairs by ascending partner id (how the partner loop walks
        ``live``, whose insertion order is ascending id).  Every live pair
        belongs to exactly one batch — the creation batch of its newer
        endpoint — and gains are re-evaluated by the same chunk-pure scans,
        so values and tie-breaks replay identically.
        """
        ids = sorted(live)
        ordered: list[tuple[tuple, int, int]] = []
        for position, id1 in enumerate(ids):
            for id2 in ids[position + 1 :]:
                if (
                    self.k is not None
                    and live[id1].bundle.size + live[id2].bundle.size > self.k
                ):
                    continue
                if self.co_support_pruning and not np.any(
                    support[id1] & support[id2]
                ):
                    continue
                batch = max(created_at[id1], created_at[id2])
                if batch == 0:
                    key = (0, id1, id2)
                    pair = (id1, id2)
                else:
                    # Batch-m pushes were (new_id, partner); replay the
                    # orientation too — it sets the retained-offer append
                    # order of mixed merges, which the solution records.
                    newer, partner = (
                        (id1, id2) if created_at[id1] == batch else (id2, id1)
                    )
                    key = (batch, partner, -1)
                    pair = (newer, partner)
                ordered.append((key, pair[0], pair[1]))
        ordered.sort(key=lambda item: item[0])
        self._push_gains(
            engine, heap, sequence, live, states, [(a, b) for _, a, b in ordered]
        )
