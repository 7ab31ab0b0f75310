"""Population churn: user deltas and incremental menu re-pricing.

The paper's algorithms price a frozen M×N WTP matrix, but a served
population churns — users leave, new users arrive.  A full refit rescans
O(M·N²) candidate pairs; yet for a *fixed* menu a bundle's raw WTP vector
is a per-user sum, so a delta is a row delete/append, never a recompute of
retained rows.

:class:`PopulationDelta` is the delta record (added rows + removed user
indices); :class:`IncrementalMenuPricer` keeps the menu's raw-WTP vectors
current across deltas and re-prices each bundle with the one pure pricer,
:func:`repro.core.pricing.price_pure_batch` — O(M) per bundle instead of
O(M·N²), and bit-identical to a fresh engine's
:meth:`~repro.core.revenue.RevenueEngine.price_bundle` on the post-delta
population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.bundle import Bundle
from repro.core.pricing import PricedBundle, price_pure
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError

__all__ = ["PopulationDelta", "IncrementalMenuPricer"]


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


class IncrementalMenuPricer:
    """The menu bundles' raw-WTP vectors, maintained across deltas.

    Build it from an engine *before* the delta is applied (it snapshots the
    menu bundles' raw-WTP vectors, one O(M) copy each), then feed it the
    same :class:`PopulationDelta` the engine consumes.  ``price`` scales a
    vector by Equation 1 exactly as the engine does and runs
    :func:`~repro.core.pricing.price_pure`, so warm prices, revenues and
    buyer counts are bit-identical to a fresh engine's standalone prices on
    the post-delta population, under any adoption model — the refit
    layer's testable contract.
    """

    def __init__(self, engine, bundles: Iterable[Bundle]) -> None:
        self._adoption = engine.adoption
        self._grid = engine.grid
        self._theta = float(engine.theta)
        self._raw: dict[Bundle, np.ndarray] = {}
        for bundle in bundles:
            if bundle not in self._raw:
                self._raw[bundle] = engine.raw_wtp(bundle)

    def apply(self, delta: PopulationDelta, added: WTPMatrix | None = None) -> None:
        """Advance every bundle's raw-WTP vector across *delta*.

        *added* is ``delta.added_matrix(...)`` (so appended users' raw
        sums use the same arithmetic as the population's); pass
        ``None`` when the delta only removes users.
        """
        removed = np.asarray(delta.removed, dtype=np.intp)
        for bundle, raw in self._raw.items():
            if removed.size:
                raw = np.delete(raw, removed)
            if added is not None:
                raw = np.concatenate([raw, added.raw_sum(bundle.items)])
            self._raw[bundle] = raw

    def price(self, bundle: Bundle) -> PricedBundle:
        """The bundle's optimal standalone price on the current population."""
        # Same float expression as RevenueEngine.bundle_wtp (Equation 1).
        scale = 1.0 + self._theta if bundle.size >= 2 else 1.0
        return price_pure(
            self._raw[bundle] * scale, self._adoption, self._grid, bundle=bundle
        )
