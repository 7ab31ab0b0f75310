"""Bundle configurations (paper, Problems 1 and 2).

A *pure* configuration is a strict partition of the item set into priced
bundles (Problem 1, condition 2: bundles that intersect are identical).
A *mixed* configuration is a laminar family covering the item set (Problem
2's condition 2: intersecting bundles are nested), so a bundle can be on
offer together with its components.

Both classes validate their structural conditions eagerly, so an algorithm
bug that produces an overlapping or non-covering family fails loudly.  Both
are priced by one compiled :class:`~repro.core.choice.ForestPlan` (a
partition is a forest of roots) and total it with their own revenue rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.bundle import Bundle, validate_laminar, validate_partition
from repro.core.choice import ChoiceOutcome, ForestPlan, OfferNode, build_forest
from repro.core.pricing import PricedBundle
from repro.errors import ConfigurationError


def _as_offer_tuple(offers: Iterable[PricedBundle]) -> tuple[PricedBundle, ...]:
    offers = tuple(offers)
    if not offers:
        raise ConfigurationError("a configuration needs at least one offer")
    for offer in offers:
        if not isinstance(offer, PricedBundle):
            raise ConfigurationError(
                f"expected PricedBundle, got {type(offer).__name__}"
            )
    return offers


class _OfferMenu:
    """What both strategies share: the offers, the item count, and the
    offer forest compiled once into the :class:`ForestPlan` that every
    evaluation, quote and served request of this menu runs."""

    def __init__(self, offers: Iterable[PricedBundle], n_items: int) -> None:
        self.offers = _as_offer_tuple(offers)
        self.n_items = int(n_items)
        self._forest: list[OfferNode] = []
        self._plan: ForestPlan | None = None

    @property
    def bundles(self) -> tuple[Bundle, ...]:
        return tuple(offer.bundle for offer in self.offers)

    def forest(self) -> list[OfferNode]:
        """The offers arranged as a forest (built once, at construction;
        callers must not modify it)."""
        return self._forest

    def plan(self) -> ForestPlan:
        """The forest compiled for evaluation (built on first use, then
        cached; every evaluation of this menu runs it)."""
        if self._plan is None:
            self._plan = ForestPlan(self._forest)
        return self._plan

    @property
    def max_bundle_size(self) -> int:
        return max(offer.bundle.size for offer in self.offers)

    def size_histogram(self) -> dict[int, int]:
        """Bundle count per size — handy for case studies and reports."""
        histogram: dict[int, int] = {}
        for offer in self.offers:
            histogram[offer.bundle.size] = histogram.get(offer.bundle.size, 0) + 1
        return dict(sorted(histogram.items()))

    def __len__(self) -> int:
        return len(self.offers)


class PureConfiguration(_OfferMenu):
    """A priced partition of the item set — the output of pure bundling.

    A partition is a laminar family in which no offer nests another, so
    its forest is every offer as a root, in offer order, and the choice
    model prices it exactly: each consumer decides on each offer alone.
    """

    def __init__(self, offers: Iterable[PricedBundle], n_items: int) -> None:
        super().__init__(offers, n_items)
        validate_partition((offer.bundle for offer in self.offers), self.n_items)
        self._forest = [OfferNode(offer) for offer in self.offers]

    @property
    def expected_revenue(self) -> float:
        """Sum of per-bundle expected revenues (bundles are disjoint)."""
        return float(sum(offer.revenue for offer in self.offers))

    def revenue(self, outcome: ChoiceOutcome) -> float:
        """Revenue of a choice *outcome* over this menu: Σ price · buyers in
        offer order, the sum a pure fit's revenue is made of (the users'
        payments sum in another order)."""
        buyers = outcome.buyers_per_offer
        return float(sum(o.price * buyers[o.bundle] for o in self.offers))

    def non_trivial_offers(self) -> list[PricedBundle]:
        """Offers of size ≥ 2 (the actual bundles, excluding loose items)."""
        return [offer for offer in self.offers if offer.bundle.size >= 2]

    def __repr__(self) -> str:
        return (
            f"PureConfiguration({len(self.offers)} bundles over {self.n_items} items, "
            f"expected_revenue={self.expected_revenue:.2f})"
        )


class MixedConfiguration(_OfferMenu):
    """A priced laminar offer family — the output of mixed bundling.

    ``offers`` contains the top-level bundles *and* the retained component
    offers (the paper's ``X_I ∪ X'_I``).  Its expected revenue is not the
    sum of standalone revenues — consumers choose among nested offers — so
    revenue is computed by :mod:`repro.core.evaluation` via the choice
    model.
    """

    def __init__(self, offers: Iterable[PricedBundle], n_items: int) -> None:
        super().__init__(offers, n_items)
        validate_laminar((offer.bundle for offer in self.offers), self.n_items)
        self._forest = build_forest(list(self.offers))

    def revenue(self, outcome: ChoiceOutcome) -> float:
        """Revenue of a choice *outcome* over this menu: its users'
        payments summed."""
        return outcome.revenue

    @property
    def top_level_bundles(self) -> tuple[Bundle, ...]:
        """The maximal offers (paper's ``X_I``)."""
        return tuple(node.bundle for node in self.forest())

    def __repr__(self) -> str:
        return (
            f"MixedConfiguration({len(self.offers)} offers over {self.n_items} items, "
            f"{len(self.top_level_bundles)} top-level)"
        )


Configuration = PureConfiguration | MixedConfiguration


def components_configuration(
    offers: Sequence[PricedBundle], n_items: int
) -> PureConfiguration:
    """The Components configuration: every item priced individually."""
    if any(offer.bundle.size != 1 for offer in offers):
        raise ConfigurationError(
            "components configuration must contain only singletons"
        )
    return PureConfiguration(offers, n_items)
