"""Bundle configurations (paper, Problems 1 and 2).

A *pure* configuration is a strict partition of the item set into priced
bundles (Problem 1, condition 2: bundles that intersect are identical).
A *mixed* configuration is a laminar family covering the item set (Problem
2's condition 2: intersecting bundles are nested), so a bundle can be on
offer together with its components.

Both classes validate their structural conditions eagerly, so an algorithm
bug that produces an overlapping or non-covering family fails loudly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.bundle import Bundle, validate_laminar, validate_partition
from repro.core.choice import ForestPlan, OfferNode, build_forest
from repro.core.pricing import PricedBundle
from repro.errors import ConfigurationError


def _as_offer_tuple(offers: Iterable[PricedBundle]) -> tuple[PricedBundle, ...]:
    offers = tuple(offers)
    if not offers:
        raise ConfigurationError("a configuration needs at least one offer")
    for offer in offers:
        if not isinstance(offer, PricedBundle):
            raise ConfigurationError(f"expected PricedBundle, got {type(offer).__name__}")
    return offers


class PureConfiguration:
    """A priced partition of the item set — the output of pure bundling."""

    def __init__(self, offers: Iterable[PricedBundle], n_items: int) -> None:
        self.offers = _as_offer_tuple(offers)
        self.n_items = int(n_items)
        validate_partition((offer.bundle for offer in self.offers), self.n_items)

    @property
    def bundles(self) -> tuple[Bundle, ...]:
        return tuple(offer.bundle for offer in self.offers)

    @property
    def expected_revenue(self) -> float:
        """Sum of per-bundle expected revenues (bundles are disjoint)."""
        return float(sum(offer.revenue for offer in self.offers))

    @property
    def max_bundle_size(self) -> int:
        return max(offer.bundle.size for offer in self.offers)

    def size_histogram(self) -> dict[int, int]:
        """Bundle count per size — handy for case studies and reports."""
        histogram: dict[int, int] = {}
        for offer in self.offers:
            histogram[offer.bundle.size] = histogram.get(offer.bundle.size, 0) + 1
        return dict(sorted(histogram.items()))

    def non_trivial_offers(self) -> list[PricedBundle]:
        """Offers of size ≥ 2 (the actual bundles, excluding loose items)."""
        return [offer for offer in self.offers if offer.bundle.size >= 2]

    def __len__(self) -> int:
        return len(self.offers)

    def __repr__(self) -> str:
        return (
            f"PureConfiguration({len(self.offers)} bundles over {self.n_items} items, "
            f"expected_revenue={self.expected_revenue:.2f})"
        )


class MixedConfiguration:
    """A priced laminar offer family — the output of mixed bundling.

    ``offers`` contains the top-level bundles *and* the retained component
    offers (the paper's ``X_I ∪ X'_I``).  Its expected revenue is not the
    sum of standalone revenues — consumers choose among nested offers — so
    revenue is computed by :mod:`repro.core.evaluation` via the choice
    model.
    """

    def __init__(self, offers: Iterable[PricedBundle], n_items: int) -> None:
        self.offers = _as_offer_tuple(offers)
        self.n_items = int(n_items)
        validate_laminar((offer.bundle for offer in self.offers), self.n_items)
        self._forest = build_forest(list(self.offers))
        self._plan: ForestPlan | None = None

    @property
    def bundles(self) -> tuple[Bundle, ...]:
        return tuple(offer.bundle for offer in self.offers)

    def forest(self) -> list[OfferNode]:
        """The laminar family arranged as a forest of offers (built once,
        at construction; callers must not modify it)."""
        return self._forest

    def plan(self) -> ForestPlan:
        """The forest compiled for evaluation (built on first use, then
        cached; every evaluation of this menu runs it)."""
        if self._plan is None:
            self._plan = ForestPlan(self._forest)
        return self._plan

    @property
    def top_level_bundles(self) -> tuple[Bundle, ...]:
        """The maximal offers (paper's ``X_I``)."""
        return tuple(node.bundle for node in self.forest())

    @property
    def max_bundle_size(self) -> int:
        return max(offer.bundle.size for offer in self.offers)

    def size_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for offer in self.offers:
            histogram[offer.bundle.size] = histogram.get(offer.bundle.size, 0) + 1
        return dict(sorted(histogram.items()))

    def __len__(self) -> int:
        return len(self.offers)

    def __repr__(self) -> str:
        return (
            f"MixedConfiguration({len(self.offers)} offers over {self.n_items} items, "
            f"{len(self.top_level_bundles)} top-level)"
        )


Configuration = PureConfiguration | MixedConfiguration


def components_configuration(offers: Sequence[PricedBundle], n_items: int) -> PureConfiguration:
    """The Components configuration: every item priced individually."""
    if any(offer.bundle.size != 1 for offer in offers):
        raise ConfigurationError("components configuration must contain only singletons")
    return PureConfiguration(offers, n_items)
