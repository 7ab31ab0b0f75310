"""Population churn: user deltas and incremental menu re-pricing.

The paper's algorithms price a frozen M×N WTP matrix, but a served
population churns — users leave, new users arrive.  A full refit rescans
O(M·N²) candidate pairs; yet for a *fixed* menu the engine's cached state
is decomposable per user:

* a bundle's raw WTP vector is a per-user sum, so a delta is a row
  delete/append, never a recompute of retained rows;
* under deterministic adoption the optimal standalone price falls out of
  the bundle's *sorted* in-market effective-WTP array
  (:func:`repro.core.pricing.price_pure_sorted`), and the sorted order of
  a float multiset is path-independent — deleting the departed values and
  inserting the arrivals (O(|delta| log M) searches per bundle) lands on
  exactly the array a cold sort would produce.

:class:`PopulationDelta` is the delta record (added rows + removed user
indices); :class:`IncrementalMenuPricer` maintains the per-bundle state
across deltas and re-prices the menu bit-identically to a cold re-price on
the post-delta population.  Under sigmoid adoption the expectation sums
users in population order, so the pricer keeps only the raw vectors
current and recomputes each touched bundle's aggregates from them —
still O(menu) instead of O(M·N²).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.bundle import Bundle
from repro.core.pricing import PricedBundle, price_pure, price_pure_sorted
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError

__all__ = [
    "PopulationDelta",
    "IncrementalMenuPricer",
    "sorted_delete",
    "sorted_insert",
]


@dataclass(frozen=True)
class PopulationDelta:
    """One churn event: rows to append and user indices to drop.

    ``removed`` indexes the *current* population; retained users keep
    their relative order and ``added`` rows are appended after them (the
    convention of :meth:`repro.core.wtp.WTPMatrix.apply_delta`).  The
    record is JSON-serializable (:meth:`to_dict`/:meth:`from_dict`) so a
    delta can ride a ``POST /refit`` request body; Python's JSON float
    round-trip is exact, so serialization never perturbs a row.
    """

    added: np.ndarray = field(default=None)  # type: ignore[assignment]
    removed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        added = self.added
        if added is None:
            added = np.empty((0, 0), dtype=np.float64)
        added = np.asarray(added, dtype=np.float64)
        if added.ndim != 2:
            raise ValidationError(
                f"added rows must be 2-D (n_added, n_items), got shape {added.shape}"
            )
        if added.size:
            if not np.all(np.isfinite(added)):
                raise ValidationError("added WTP rows contain non-finite entries")
            if np.any(added < 0):
                raise ValidationError("added WTP rows contain negative entries")
        added = added.copy()
        added.setflags(write=False)
        object.__setattr__(self, "added", added)
        removed = [int(user) for user in self.removed]
        if any(user < 0 for user in removed):
            raise ValidationError("removed user indices must be non-negative")
        if len(set(removed)) != len(removed):
            raise ValidationError("removed user indices must be unique")
        object.__setattr__(self, "removed", tuple(sorted(removed)))

    @property
    def n_added(self) -> int:
        return int(self.added.shape[0])

    @property
    def n_removed(self) -> int:
        return len(self.removed)

    @property
    def is_empty(self) -> bool:
        return self.n_added == 0 and self.n_removed == 0

    def check(self, n_users: int, n_items: int) -> "PopulationDelta":
        """Validate against a concrete population shape; returns self."""
        if self.removed and self.removed[-1] >= n_users:
            raise ValidationError(
                f"removed user index {self.removed[-1]} out of range for "
                f"{n_users} users"
            )
        if self.n_added and self.added.shape[1] != n_items:
            raise ValidationError(
                f"added rows have {self.added.shape[1]} items, expected {n_items}"
            )
        if len(self.removed) == n_users and self.n_added == 0:
            raise ValidationError("a delta may not remove the entire population")
        return self

    def apply(self, wtp: WTPMatrix) -> WTPMatrix:
        """The post-delta population."""
        self.check(wtp.n_users, wtp.n_items)
        return wtp.apply_delta(self.removed, self.added if self.n_added else None)

    def added_matrix(self, like: WTPMatrix) -> WTPMatrix | None:
        """The added rows as a matrix labelled like *like* (None when empty).

        Raw sums over this matrix use the same per-user arithmetic as
        *like*'s, so an appended user's cached aggregates are bit-identical
        to recomputing them on the merged population.
        """
        if self.n_added == 0:
            return None
        return WTPMatrix(self.added, item_labels=like.item_labels)

    def to_dict(self) -> dict:
        return {
            "removed": list(self.removed),
            "added": [list(map(float, row)) for row in self.added],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PopulationDelta":
        if not isinstance(payload, dict):
            raise ValidationError(
                f"delta payload must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - {"removed", "added"}
        if unknown:
            raise ValidationError(f"unknown delta payload keys: {sorted(unknown)}")
        added = payload.get("added") or []
        try:
            added_array = (
                np.asarray(added, dtype=np.float64)
                if len(added)
                else np.empty((0, 0), dtype=np.float64)
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"added rows are not numeric 2-D: {exc}") from exc
        return cls(added=added_array, removed=tuple(payload.get("removed") or ()))

    def __repr__(self) -> str:
        return f"PopulationDelta(n_added={self.n_added}, n_removed={self.n_removed})"


# ------------------------------------------------------ sorted multiset edits
def sorted_delete(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Remove one occurrence of each of *values* from an ascending array.

    O(|values| log M) searches plus one memmove.  Every value must be
    present (they were read out of the array the caller maintains); a miss
    means the maintained state has diverged and raises.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return sorted_values
    vals = np.sort(values)
    idx = np.searchsorted(sorted_values, vals, side="left")
    # Equal values share a searchsorted index; advance duplicates onto the
    # consecutive equal slots they actually occupy.
    for k in range(1, idx.size):
        if vals[k] == vals[k - 1] and idx[k] <= idx[k - 1]:
            idx[k] = idx[k - 1] + 1
    # values is non-empty here, so idx is too; short-circuit keeps the
    # fancy-index off out-of-range positions.
    if idx[-1] >= sorted_values.size or np.any(sorted_values[idx] != vals):
        raise ValidationError(
            "sorted_delete: a value to remove is not present in the array"
        )
    return np.delete(sorted_values, idx)


def sorted_insert(sorted_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Insert *values* into an ascending array, keeping it sorted.

    The result is bit-identical to ``np.sort`` of the concatenation: the
    ascending order of a float multiset is unique, so maintaining it
    incrementally can never drift from a cold sort.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return sorted_values
    vals = np.sort(values)
    idx = np.searchsorted(sorted_values, vals, side="left")
    return np.insert(sorted_values, idx, vals)


@dataclass
class _BundleState:
    """Maintained per-bundle vectors (raw always; sorted when deterministic)."""

    raw: np.ndarray
    sorted_effective: np.ndarray | None


class IncrementalMenuPricer:
    """Per-bundle pricing state for a frozen menu, maintained across deltas.

    Build it from an engine *before* the delta is applied (it snapshots the
    menu bundles' raw-WTP vectors, one O(M) copy each), then feed it the
    same :class:`PopulationDelta` the engine consumes.  ``price`` re-runs
    the identical level scan the cold path uses
    (:func:`~repro.core.pricing.price_pure_sorted`), so warm prices,
    revenues, and buyer counts are bit-identical to re-pricing the bundle
    cold on the post-delta population — the refit layer's testable
    contract.  Under sigmoid adoption only the raw vectors are maintained
    and ``price`` recomputes the bundle's aggregates via
    :func:`~repro.core.pricing.price_pure` (per-bundle recompute, no pair
    rescan).
    """

    def __init__(self, engine, bundles: Iterable[Bundle]) -> None:
        self._adoption = engine.adoption
        self._grid = engine.grid
        self._deterministic = bool(engine.adoption.is_deterministic)
        self._theta = float(engine.theta)
        self._entries: dict[Bundle, _BundleState] = {}
        for bundle in bundles:
            if bundle in self._entries:
                continue
            raw = engine.raw_wtp(bundle)
            self._entries[bundle] = _BundleState(raw, self._sorted_state(bundle, raw))

    # Same float expression as RevenueEngine._scale (Equation 1's factor).
    def _scale(self, bundle: Bundle) -> float:
        return 1.0 + self._theta if bundle.size >= 2 else 1.0

    def _effective(self, bundle: Bundle, raw: np.ndarray) -> np.ndarray:
        """In-market effective values, the cold path's exact arithmetic."""
        wtp = raw * self._scale(bundle)
        market = wtp[wtp > 0]
        return self._adoption.alpha * market + self._adoption.epsilon

    def _sorted_state(self, bundle: Bundle, raw: np.ndarray) -> np.ndarray | None:
        if not self._deterministic:
            return None
        return np.sort(self._effective(bundle, raw))

    @property
    def bundles(self) -> tuple[Bundle, ...]:
        return tuple(self._entries)

    def apply(self, delta: PopulationDelta, added: WTPMatrix | None = None) -> None:
        """Advance every bundle's state across *delta*.

        *added* is ``delta.added_matrix(...)`` (so appended users' raw
        sums use the same arithmetic as the population's); pass
        ``None`` when the delta only removes users.
        """
        removed = np.asarray(delta.removed, dtype=np.intp)
        for bundle, state in self._entries.items():
            added_raw = (
                added.raw_sum(bundle.items)
                if added is not None
                else np.empty(0, dtype=np.float64)
            )
            if state.sorted_effective is not None:
                order = state.sorted_effective
                if removed.size:
                    order = sorted_delete(
                        order, self._effective(bundle, state.raw[removed])
                    )
                if added_raw.size:
                    order = sorted_insert(order, self._effective(bundle, added_raw))
                state.sorted_effective = order
            raw = state.raw
            if removed.size:
                raw = np.delete(raw, removed)
            if added_raw.size:
                raw = np.concatenate([raw, added_raw])
            state.raw = raw

    def price(self, bundle: Bundle) -> PricedBundle:
        """The bundle's optimal standalone price on the current population."""
        state = self._entries[bundle]
        if state.sorted_effective is not None:
            return price_pure_sorted(
                state.sorted_effective, self._adoption, self._grid, bundle=bundle
            )
        return price_pure(
            state.raw * self._scale(bundle), self._adoption, self._grid, bundle=bundle
        )

    def price_menu(
        self, bundles: Sequence[Bundle] | None = None
    ) -> list[PricedBundle]:
        """Re-price the menu (insertion order, or the given order)."""
        menu = bundles if bundles is not None else self._entries
        return [self.price(b) for b in menu]
