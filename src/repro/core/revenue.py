"""The revenue engine: Equations 1, 2 and 5 behind one object.

:class:`RevenueEngine` binds together the WTP matrix, the bundling
coefficient θ, the adoption model, and the price grid, and exposes every
revenue computation the configuration algorithms need:

* pricing a single bundle offered on its own (pure bundling);
* batched pricing of many candidate bundles at once (the O(M·N²) pair scans
  of Algorithms 1 and 2, vectorized);
* mixed-merge pricing under the incremental policy of Section 4.2;
* the co-support pruning rule of Section 5.3.1 ("only consider pairs of
  items for which at least one customer has non-zero willingness to pay for
  both");
* operation counters used by the complexity experiments (Section 6.3).

Memory discipline
-----------------
The pair scans are *streamed* through :mod:`repro.core.kernels`: candidate
columns are materialized at most ``chunk_elements`` values at a time (the
pure scan at most a cache-sized block of them), so a scan over ~N²/2
candidates runs in O(chunk) rather than O(M·N²) memory.  Each scan holds
its parents' raw WTP as rows of one row-major ``(n_parents, M)`` stack, and
a block of merged candidates, ``raw(b1) + raw(b2)``, is one row gather and
a broadcast add per run of equal first parents, never a per-candidate
gather of item columns.  Between scans the engine keeps only that stack:
the next scan leaves the rows of parents it shares in place (a greedy
merge changes one parent, so one row is summed per scan) and overwrites
the rest, so raw-WTP memory is one stack as tall as the most parents a
scan has had.  Co-support pruning runs on bit-packed masks
(:mod:`repro.core.support`) — 8× smaller than boolean stacks, with
word-AND intersection tests.

Results of single-bundle pricing are cached by bundle, since both heuristics
revisit surviving bundles across iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.core.adoption import AdoptionModel, StepAdoption, decision_tolerance
from repro.core.kernels import (
    DEFAULT_CHUNK_ELEMENTS,
    check_chunk_elements,
    check_n_workers,
    stream_mixed_merges,
    stream_pure_prices,
)
from repro.core.pricing import (
    MixedMerge,
    PriceGrid,
    PricedBundle,
)
from repro.core.support import (
    bundle_support_bits,
    co_supported_pairs_packed,
    item_support_bits,
)
from repro.core.bundle import Bundle
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError
from repro.utils.validation import check_fraction


#: Default relative drift at which a warm refit gives up and re-optimizes
#: from scratch: the larger of the expected-revenue delta and the
#: bundle-vs-separate-ratio delta of the warm menu, relative to the
#: solution it warm-started from (see ``BundlingSolver.refit``).
DEFAULT_DRIFT_THRESHOLD = 0.05


def check_state_dtype(state_dtype) -> np.dtype:
    """Validate a mixed subtree-state dtype: float64 (``None``) or float32."""
    error = ValidationError(
        f"state_dtype must be float64 or float32, got {state_dtype!r}"
    )
    try:
        resolved = np.dtype(np.float64 if state_dtype is None else state_dtype)
    except TypeError:
        raise error from None
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise error
    return resolved


def check_drift_threshold(drift_threshold: float) -> float:
    """Validate a refit drift threshold (finite, non-negative)."""
    try:
        value = float(drift_threshold)
    except (TypeError, ValueError):
        raise ValidationError(
            f"drift_threshold must be a non-negative float, got {drift_threshold!r}"
        ) from None
    if not np.isfinite(value) or value < 0:
        raise ValidationError(
            f"drift_threshold must be a non-negative float, got {drift_threshold!r}"
        )
    return value


@dataclass
class EngineStats:
    """Operation counters for the efficiency experiments."""

    pure_pricings: int = 0
    mixed_pricings: int = 0
    batch_calls: int = 0
    deltas_applied: int = 0

    def reset(self) -> None:
        self.pure_pricings = 0
        self.mixed_pricings = 0
        self.batch_calls = 0
        self.deltas_applied = 0


@dataclass(frozen=True)
class Objective:
    """Generalized seller objective ``α·profit + (1−α)·surplus`` (Section 1).

    The paper's experiments use α=1 with zero variable cost, i.e. revenue
    maximization; this extension supports the full utility function.
    ``variable_costs`` holds one per-unit cost per item (bundle cost is the
    sum over its items).
    """

    profit_weight: float = 1.0
    variable_costs: np.ndarray | None = None

    def __post_init__(self) -> None:
        check_fraction(self.profit_weight, "profit_weight")
        if self.variable_costs is not None:
            costs = np.asarray(self.variable_costs, dtype=np.float64)
            if costs.ndim != 1 or np.any(costs < 0) or not np.all(np.isfinite(costs)):
                raise ValidationError("variable_costs must be a 1-D non-negative array")
            object.__setattr__(self, "variable_costs", costs)

    def bundle_cost(self, bundle: Bundle) -> float:
        if self.variable_costs is None:
            return 0.0
        return float(self.variable_costs[list(bundle.items)].sum())

    @property
    def is_pure_revenue(self) -> bool:
        return self.profit_weight == 1.0 and self.variable_costs is None


def _runs(first: np.ndarray) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of each run of equal values in *first*."""
    if len(first) == 1:  # every block of a scan over many users
        return [(0, 1)]
    bounds = [0, *(np.flatnonzero(np.diff(first)) + 1).tolist(), len(first)]
    return list(zip(bounds, bounds[1:]))


def _sum_rows(
    out: np.ndarray,
    stack: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
    runs: list[tuple[int, int]],
) -> None:
    """``stack[first] + stack[second]`` into the float64 column-major block
    *out* (row *k* of ``out.T`` is candidate *k*), added in float64
    (float32 stacks are widened before the addition).

    Pair lists come grouped by their first parent (upper-triangle scans,
    and a greedy merge's new bundle against every partner), so the block
    is filled one of the :func:`_runs` of *first* at a time: the run's
    first row is broadcast against its second rows.  A one-pair run —
    every block of a scan over many users — adds two rows in place; a
    longer one gathers its second rows, straight into the block when the
    stack is float64.
    """
    rows = out.T
    for lo, hi in runs:
        row = stack[first[lo]]
        if hi - lo == 1:
            np.add(row, stack[second[lo]], out=rows[lo], dtype=np.float64)
        elif stack.dtype == rows.dtype:
            # "clip" skips the copy np.take makes for out= in "raise" mode;
            # the indices are always in range.
            np.take(stack, second[lo:hi], axis=0, out=rows[lo:hi], mode="clip")
            np.add(row, rows[lo:hi], out=rows[lo:hi])
        else:
            gathered = np.take(stack, second[lo:hi], axis=0)
            np.add(row, gathered, out=rows[lo:hi], dtype=np.float64)


class RevenueEngine:
    """Prices bundles and measures revenue against one WTP matrix.

    Parameters
    ----------
    wtp:
        The M×N willingness-to-pay matrix (or anything
        :class:`~repro.core.wtp.WTPMatrix` accepts; SciPy sparse input is
        densified).
    theta:
        Bundling coefficient θ of Equation 1 (default 0 — independent items,
        the conventional setting; Table 3).
    adoption:
        Adoption model (default: the deterministic step function, the exact
        limit of the paper's γ=1e6 setting).
    grid:
        Price grid (default: 100 equi-spaced levels; Section 4.2).
    objective:
        Optional generalized objective; ``None`` means revenue maximization.
    chunk_elements:
        Element ceiling for the streaming pair-scan buffers, whatever the
        number of candidates scanned.  Both scans run in cache-sized blocks
        of at most :data:`~repro.core.kernels.SCAN_BLOCK_ELEMENTS` and
        narrower ones only when this budget is smaller; the sigmoid mixed
        scan's per-chunk temporaries stay bounded by the budget itself.  It
        is part of the fingerprinted provenance, though no value changes a bit of the prices.  ``None``
        disables chunking (the original unbounded behaviour — O(M·N²) at
        scale).
    n_workers:
        Worker threads for the streaming pair scans (default 1, in
        order).  Chunks fan out over a thread pool with one private fill
        buffer per worker; numpy releases the GIL inside the pricing
        kernels, so on multi-core hardware the scans scale with cores while
        results stay bit-identical to the serial scan.  A pool that cannot
        start falls back to the in-order loop with a
        :class:`~repro.core.retry.DegradedExecutionWarning`.
    state_dtype:
        Storage dtype for mixed-strategy subtree states (``"float64"``
        default, or ``"float32"`` to halve the O(N·M) resident state so
        mixed runs fit at 1M+ users; kernels widen on the fly, so pricing
        differs only by float32 rounding of the base choice state).
    drift_threshold:
        Relative revenue drift at which a warm ``refit`` falls back to a
        cold fit (see :meth:`repro.api.BundlingSolver.refit`).  Carried on
        the engine so :meth:`repro.api.EngineConfig.from_engine` captures
        it like every other config field; :meth:`apply_delta` itself never
        consults it.
    """

    def __init__(
        self,
        wtp,
        theta: float = 0.0,
        adoption: AdoptionModel | None = None,
        grid: PriceGrid | None = None,
        objective: Objective | None = None,
        chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
        n_workers: int = 1,
        state_dtype: str | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> None:
        if not isinstance(wtp, WTPMatrix):
            wtp = WTPMatrix(wtp)
        if theta <= -1.0:
            raise ValidationError(f"theta must be > -1, got {theta}")
        self.wtp = wtp
        self.theta = float(theta)
        self.adoption = adoption or StepAdoption()
        self.grid = grid or PriceGrid()
        self.objective = objective
        self.chunk_elements = check_chunk_elements(chunk_elements)
        self.n_workers = check_n_workers(n_workers)
        self.state_dtype = check_state_dtype(state_dtype)
        self.drift_threshold = check_drift_threshold(drift_threshold)
        self.stats = EngineStats()
        self._price_cache: dict[Bundle, PricedBundle] = {}
        # The raw-WTP stack of the previous scan's parents: row of each
        # bundle, and the rows (see _stacked_raw).
        self._rows: tuple[dict[Bundle, int], np.ndarray] = ({}, np.empty((0, 0)))
        self._item_bits: np.ndarray | None = None

    # ------------------------------------------------------------ dimensions
    @property
    def n_users(self) -> int:
        return self.wtp.n_users

    @property
    def n_items(self) -> int:
        return self.wtp.n_items

    @property
    def total_wtp(self) -> float:
        """Denominator of the revenue-coverage metric."""
        return self.wtp.total

    def coverage(self, revenue: float) -> float:
        """Revenue coverage = revenue / total willingness to pay."""
        total = self.total_wtp
        if total <= 0:
            return 0.0
        return revenue / total

    # ------------------------------------------------------------------- WTP
    def _scale(self, size: int) -> float:
        """Equation 1's interaction factor; singletons are unscaled."""
        return 1.0 + self.theta if size >= 2 else 1.0

    def raw_wtp(self, bundle: Bundle) -> np.ndarray:
        """Σ_{i∈b} w_{u,i} without the θ factor (a fresh array)."""
        return self.wtp.raw_sum(bundle.items)

    def bundle_wtp(self, bundle: Bundle) -> np.ndarray:
        """Per-user willingness to pay for *bundle* (Equation 1)."""
        return self.raw_wtp(bundle) * self._scale(bundle.size)

    def _stacked_raw(self, bundles: Sequence[Bundle]) -> tuple[np.ndarray, np.ndarray]:
        """The engine's row-major raw-WTP stack holding every bundle in
        *bundles*, and the row of each.

        Rows the previous scan stacked stay in place; rows of bundles this
        scan does not use are overwritten by its new bundles, summed from
        the item columns.  Only a scan with more parents than the stack
        has rows allocates a new stack, copying the kept rows one at a
        time (a peak of two stacks).
        """
        row_of, rows = self._rows
        kept = {bundle: row_of[bundle] for bundle in bundles if bundle in row_of}
        missing = [bundle for bundle in dict.fromkeys(bundles) if bundle not in kept]
        if len(kept) + len(missing) > len(rows):
            grown = np.empty((len(kept) + len(missing), self.n_users))
            for k, row in enumerate(kept.values()):
                grown[k] = rows[row]
            kept, rows = {bundle: k for k, bundle in enumerate(kept)}, grown
        free = sorted(set(range(len(rows))) - set(kept.values()))
        for bundle, row in zip(missing, free):
            rows[row] = self.raw_wtp(bundle)
            kept[bundle] = row
        self._rows = (kept, rows)
        return rows, np.array([kept[bundle] for bundle in bundles], dtype=np.intp)

    def _pair_rows(
        self, priced: Sequence[PricedBundle], pairs: Sequence[tuple[int, int]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw-WTP stack holding the parents in *pairs*, and each
        pair's two row indices into it."""
        parents, pair_parents = np.unique(
            np.asarray(pairs, dtype=np.intp).ravel(), return_inverse=True
        )
        rows, parent_rows = self._stacked_raw([priced[p].bundle for p in parents])
        pair_rows = parent_rows[pair_parents].reshape(-1, 2)
        return rows, pair_rows[:, 0], pair_rows[:, 1]

    def _fill_merged(
        self,
        out: np.ndarray,
        rows: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        runs: list[tuple[int, int]],
    ) -> None:
        """Write ``(rows[first] + rows[second]) · (1+θ)`` into the
        column-major block *out*, one candidate per column."""
        _sum_rows(out, rows, first, second, runs)
        scale = self._scale(2)
        if scale != 1.0:
            out *= scale

    # ------------------------------------------------------- population churn
    def apply_delta(self, delta) -> None:
        """Advance the engine to the post-delta population in place.

        Swaps in the new WTP matrix and invalidates every cache the
        population touches.  Optimal prices are population-dependent (any
        user can move a bundle's grid top), so the price cache is cleared;
        the packed item-support words are rebuilt lazily; the previous
        scan's raw-WTP stack is dropped, so the next scan re-sums its
        parents on the new population.  Subtree states
        (:meth:`offer_state`, :meth:`merged_mixed_state`) are the caller's
        and are not touched.
        """
        from repro.core.delta import PopulationDelta

        if not isinstance(delta, PopulationDelta):
            raise ValidationError(
                f"apply_delta expects a PopulationDelta, got {type(delta).__name__}"
            )
        delta.check(self.n_users, self.n_items)
        self.wtp = self.wtp.apply_delta(
            delta.removed, delta.added if delta.n_added else None
        )
        self._price_cache.clear()
        self._rows = ({}, np.empty((0, 0)))
        self._item_bits = None
        self.stats.deltas_applied += 1
        obs.counter_inc(
            "repro_engine_deltas_total",
            help="Population deltas applied to a revenue engine.",
        )

    # ---------------------------------------------------------- pure pricing
    def price_bundle(self, bundle: Bundle) -> PricedBundle:
        """Revenue-maximizing standalone price for *bundle* (cached).

        A one-bundle :meth:`price_bundles`, so the answer has the same bits
        whichever of the two priced the bundle first.
        """
        return self.price_bundles([bundle])[0]

    def _price_streamed(self, missing: Sequence[Bundle], fill) -> None:
        """Price *missing* bundles through the streaming kernel and cache them."""
        prices, revenues, buyers = stream_pure_prices(
            fill,
            len(missing),
            self.n_users,
            self.adoption,
            self.grid,
            self.chunk_elements,
            n_workers=self.n_workers,
        )
        self.stats.pure_pricings += len(missing)
        self.stats.batch_calls += 1
        for j, bundle in enumerate(missing):
            self._price_cache[bundle] = PricedBundle(
                bundle, float(prices[j]), float(revenues[j]), float(buyers[j])
            )

    def price_bundles(self, bundles: Sequence[Bundle]) -> list[PricedBundle]:
        """Batch :meth:`price_bundle`; streams uncached bundles in chunks."""
        missing = [b for b in bundles if b not in self._price_cache]
        if missing:
            if self.objective is not None and not self.objective.is_pure_revenue:
                self.stats.pure_pricings += len(missing)
                for bundle in missing:
                    self._price_cache[bundle] = self._price_with_objective(bundle)
            else:

                def fill(block: np.ndarray, start: int, stop: int) -> None:
                    for offset, bundle in enumerate(missing[start:stop]):
                        block[:, offset] = self.bundle_wtp(bundle)

                self._price_streamed(missing, fill)
        return [self._price_cache[b] for b in bundles]

    def price_components(self) -> list[PricedBundle]:
        """Price every item individually — the Components baseline."""
        return self.price_bundles([Bundle.singleton(i) for i in range(self.n_items)])

    def pure_merge_gains(
        self, priced: Sequence[PricedBundle], pairs: Sequence[tuple[int, int]]
    ) -> tuple[np.ndarray, list[PricedBundle]]:
        """Gain ``r(b1∪b2) − r(b1) − r(b2)`` for each candidate pair.

        Candidate columns are built incrementally — ``raw(b1) + raw(b2)``
        gathered from the stacked parent rows, never a per-candidate gather
        of item columns — and streamed through the chunked pricing kernel,
        so the scan's working memory is bounded by ``chunk_elements``
        however many pairs it covers.  Returns the gains and the priced
        merged bundles (which are also cached, so applying a selected merge
        costs nothing extra).
        """
        if not pairs:
            return np.empty(0), []
        merged_bundles = [priced[i].bundle | priced[j].bundle for i, j in pairs]
        if self.objective is not None and not self.objective.is_pure_revenue:
            merged_priced = self.price_bundles(merged_bundles)
        else:
            missing: list[Bundle] = []
            missing_pairs: list[tuple[int, int]] = []
            seen: set[Bundle] = set()
            for k, bundle in enumerate(merged_bundles):
                if bundle in self._price_cache or bundle in seen:
                    continue
                seen.add(bundle)
                missing.append(bundle)
                missing_pairs.append(pairs[k])
            if missing:
                rows, first, second = self._pair_rows(priced, missing_pairs)

                def fill(block: np.ndarray, start: int, stop: int) -> None:
                    parent = first[start:stop]
                    self._fill_merged(
                        block, rows, parent, second[start:stop], _runs(parent)
                    )

                self._price_streamed(missing, fill)
            merged_priced = [self._price_cache[b] for b in merged_bundles]
        gains = np.array(
            [
                merged_priced[k].revenue - priced[i].revenue - priced[j].revenue
                for k, (i, j) in enumerate(pairs)
            ]
        )
        return gains, merged_priced

    # --------------------------------------------------------- mixed pricing
    def offer_state(self, offer: PricedBundle) -> "SubtreeState":
        """Per-consumer choice state of a standalone offer (no sub-offers).

        Stored in ``state_dtype`` (the computation itself runs in float64).
        """
        from repro.core.choice import singleton_state

        state = singleton_state(self.bundle_wtp(offer.bundle), offer.price, self.adoption)
        return state.astype(self.state_dtype)

    def offer_states(self, offers: Sequence[PricedBundle]) -> "SubtreeState":
        """:meth:`offer_state` of each offer, stacked row by row — the
        ``states`` argument of :meth:`mixed_merge_gains`.  Each row is
        written as it is computed, so the peak is the stack plus one row."""
        from repro.core.choice import SubtreeState

        score = np.empty((len(offers), self.n_users), dtype=self.state_dtype)
        pay = np.empty_like(score)
        for k, offer in enumerate(offers):
            state = self.offer_state(offer)
            score[k], pay[k] = state.score, state.pay
        return SubtreeState(score, pay)

    def mixed_merge_gains(
        self,
        priced: Sequence[PricedBundle],
        states: "SubtreeState",
        pairs: Sequence[tuple[int, int]],
    ) -> list[MixedMerge]:
        """Incremental mixed pricing for each candidate pair (streamed).

        For pair (b1, b2) the merged bundle is priced inside the Guiltinan
        interval ``(max(p1, p2), p1 + p2)`` and its *additional* expected
        revenue over the two subtrees' current offers is returned
        (Section 4.2's upgrade semantics, exact for arbitrarily nested
        offers via the subtree-state recursion).  *states* stacks the
        subtree state of every offer in *priced*: ``score`` and ``pay`` are
        ``(len(priced), M)`` arrays in ``state_dtype`` (see
        :meth:`offer_states` and :meth:`~repro.core.choice.SubtreeState.
        stack`).  Per-pair columns are gathered from those rows and the
        stacked raw WTP one chunk at a time, never the full (M, P) stack.
        """
        if not pairs:
            return []
        self.stats.mixed_pricings += len(pairs)
        self.stats.batch_calls += 1
        rows, first, second = self._pair_rows(priced, pairs)
        merged_bundles = [priced[i].bundle | priced[j].bundle for i, j in pairs]
        if self.grid.mode != "linspace":
            from repro.core.pricing import price_mixed_bundle

            results = []
            for k, (i, j) in enumerate(pairs):
                base = states[i] + states[j]
                results.append(
                    price_mixed_bundle(
                        (rows[first[k]] + rows[second[k]]) * self._scale(2),
                        base.score,
                        base.pay,
                        max(priced[i].price, priced[j].price),
                        priced[i].price + priced[j].price,
                        self.adoption,
                        self.grid,
                        bundle=merged_bundles[k],
                    )
                )
            return results

        left, right = np.asarray(pairs, dtype=np.intp).T
        parent_prices = np.array([offer.price for offer in priced])

        def fill(
            wtp_block: np.ndarray,
            score_block: np.ndarray,
            pay_block: np.ndarray,
            start: int,
            stop: int,
        ) -> tuple[np.ndarray, np.ndarray]:
            i, j = left[start:stop], right[start:stop]
            # Runs of one offer index are runs of one raw-WTP row too.
            runs = _runs(i)
            self._fill_merged(
                wtp_block, rows, first[start:stop], second[start:stop], runs
            )
            _sum_rows(score_block, states.score, i, j, runs)
            _sum_rows(pay_block, states.pay, i, j, runs)
            p1, p2 = parent_prices[i], parent_prices[j]
            return np.maximum(p1, p2), p1 + p2

        prices, gains, upgraded, feasible = stream_mixed_merges(
            fill,
            len(pairs),
            self.n_users,
            self.adoption,
            self.grid,
            self.chunk_elements,
            n_workers=self.n_workers,
        )
        return [
            MixedMerge(
                bundle=merged_bundles[k],
                price=float(prices[k]),
                gain=float(gains[k]) if feasible[k] else 0.0,
                upgraded=float(upgraded[k]),
                feasible=bool(feasible[k]),
            )
            for k in range(len(pairs))
        ]

    def mixed_merge(
        self,
        first: PricedBundle,
        second: PricedBundle,
        state_first: "SubtreeState | None" = None,
        state_second: "SubtreeState | None" = None,
    ) -> MixedMerge:
        """Single-pair convenience wrapper over :meth:`mixed_merge_gains`.

        Subtree states default to standalone-offer states (correct when the
        two offers have no sub-offers of their own).
        """
        from repro.core.choice import SubtreeState

        states = SubtreeState.stack(
            [
                state_first if state_first is not None else self.offer_state(first),
                state_second if state_second is not None else self.offer_state(second),
            ]
        )
        return self.mixed_merge_gains([first, second], states, [(0, 1)])[0]

    def merged_mixed_state(
        self,
        merge: MixedMerge,
        base: "SubtreeState",
    ) -> "SubtreeState":
        """Choice state of the subtree created by applying *merge* on *base*."""
        from repro.core.choice import merged_state

        utility = self.adoption.utility(self.bundle_wtp(merge.bundle), merge.price)
        return merged_state(base, utility, merge.price, self.adoption).astype(
            self.state_dtype
        )

    def mixed_bundle_gain(self, bundle: Bundle, components: Sequence[PricedBundle]) -> MixedMerge:
        """Mixed pricing of *bundle* offered alongside arbitrary components.

        The components must partition the bundle's items (checked).  Used
        by the frequent-itemset baseline, whose candidate itemsets are
        offered next to all their singleton components.
        """
        from repro.core.pricing import price_mixed_bundle

        covered: set[int] = set()
        for component in components:
            covered.update(component.bundle.items)
        if covered != set(bundle.items):
            raise ValidationError("components must exactly partition the bundle's items")
        self.stats.mixed_pricings += 1
        base = self.offer_state(components[0])
        for component in components[1:]:
            base = base + self.offer_state(component)
        return price_mixed_bundle(
            self.bundle_wtp(bundle),
            base.score,
            base.pay,
            max(component.price for component in components),
            sum(component.price for component in components),
            self.adoption,
            self.grid,
            bundle=bundle,
        )

    # -------------------------------------------------------------- pruning
    def support_bits(self, bundle: Bundle) -> np.ndarray:
        """Packed (uint8-word) mask of users with positive WTP for *bundle*.

        Exactly the bit-packing of ``raw_wtp(bundle) > 0`` — a sum of
        non-negative values is positive iff one addend is — at 1/8th the
        memory of a boolean mask and none of the O(M) float work.
        """
        if self._item_bits is None:
            self._item_bits = item_support_bits(self.wtp)
        return bundle_support_bits(self._item_bits, bundle.items)

    def co_supported_pairs(self, bundles: Sequence[Bundle]) -> list[tuple[int, int]]:
        """Pairs with at least one consumer valuing both sides positively.

        This is pruning strategy 1 of Section 5.3.1: a consumer who wants
        only one side contributes no extra willingness to pay, so pairs with
        empty co-support can never produce a revenue gain.  Runs on packed
        support words; pair order matches the dense upper-triangle scan.
        """
        if len(bundles) < 2:
            return []
        packed = np.stack([self.support_bits(b) for b in bundles])
        return co_supported_pairs_packed(packed)

    # ------------------------------------------------------------- objective
    def _price_with_objective(self, bundle: Bundle) -> PricedBundle:
        """Scan the grid maximizing ``α·profit + (1−α)·surplus``.

        Only supported for deterministic adoption (the generalized objective
        is an extension; the paper's experiments use pure revenue).
        """
        if not self.adoption.is_deterministic:
            raise ValidationError("the generalized objective requires deterministic adoption")
        objective = self.objective
        assert objective is not None
        wtp = self.bundle_wtp(bundle)
        effective = self.adoption.alpha * wtp + self.adoption.epsilon
        levels = self.grid.candidates(effective)
        if levels.size == 0:
            return PricedBundle(bundle, 0.0, 0.0, 0.0)
        cost = objective.bundle_cost(bundle)
        compare = levels - decision_tolerance(levels)
        adopter = effective[None, :] >= compare[:, None]  # (T, M)
        buyers = adopter.sum(axis=1)
        revenue = levels * buyers
        profit = (levels - cost) * buyers
        surplus = (adopter * np.maximum(wtp[None, :] - levels[:, None], 0.0)).sum(axis=1)
        value = objective.profit_weight * profit + (1.0 - objective.profit_weight) * surplus
        best = int(np.argmax(value))
        if value[best] <= 0:
            return PricedBundle(bundle, 0.0, 0.0, 0.0)
        return PricedBundle(bundle, float(levels[best]), float(revenue[best]), float(buyers[best]))

    def __repr__(self) -> str:
        return (
            f"RevenueEngine(n_users={self.n_users}, n_items={self.n_items}, "
            f"theta={self.theta}, adoption={self.adoption!r}, grid={self.grid!r})"
        )
