"""Pairwise laminar-family oracles for the laminar-walk tests.

Neither is used by the library.  Both compare every bundle with every
earlier one — O(bundles²) subset and intersection tests — which is how
:func:`repro.core.choice.build_forest` and
:func:`repro.core.bundle.validate_laminar` worked before the one-pass
:func:`repro.core.bundle.laminar_walk`.
"""

from __future__ import annotations

from repro.core.choice import OfferNode
from repro.errors import ConfigurationError, ValidationError


def pairwise_build_forest(offers) -> list[OfferNode]:
    """Each offer's parent is its smallest strict superset among the offers."""
    ordered = sorted(offers, key=lambda po: (-po.bundle.size, po.bundle.items))
    nodes = [OfferNode(offer) for offer in ordered]
    roots: list[OfferNode] = []
    for index, node in enumerate(nodes):
        parent: OfferNode | None = None
        for candidate in nodes[:index]:
            if node.bundle == candidate.bundle:
                raise ConfigurationError(f"duplicate offer for bundle {node.bundle}")
            if node.bundle.issubset(candidate.bundle):
                if parent is None or candidate.bundle.size <= parent.bundle.size:
                    parent = candidate
            elif node.bundle.intersects(candidate.bundle):
                raise ConfigurationError(
                    f"offers {node.bundle} and {candidate.bundle} overlap without nesting"
                )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def pairwise_validate_laminar(bundles, n_items: int) -> None:
    """Problem 2's conditions: covering, and pairwise disjoint or nested."""
    bundle_list = list(bundles)
    covered: set[int] = set()
    for bundle in bundle_list:
        for item in bundle:
            if item >= n_items:
                raise ValidationError(
                    f"item {item} is out of range for n_items={n_items}"
                )
            covered.add(item)
    if len(covered) != n_items:
        missing = sorted(set(range(n_items)) - covered)
        raise ValidationError(f"items not covered by any bundle: {missing[:10]}")
    for i, first in enumerate(bundle_list):
        for second in bundle_list[i + 1 :]:
            if first == second:
                raise ValidationError(f"duplicate bundle in configuration: {first}")
            if first.intersects(second) and not (
                first.issubset(second) or second.issubset(first)
            ):
                raise ValidationError(
                    f"bundles {first} and {second} overlap without nesting "
                    "(violates the mixed-bundling laminarity condition)"
                )
