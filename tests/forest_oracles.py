"""Per-node recursion over a laminar offer forest: the bit-for-bit oracle
for :class:`repro.core.choice.ForestPlan`.

Not used by the library.  It walks the forest one offer at a time with the
library's own state primitives (:func:`~repro.core.choice.merged_state`,
:func:`~repro.core.choice.upgrade_probability`) and WTP callback, so every
floating-point operation happens in the order the plan must reproduce:
children folded in child order, roots in root order, and each offer's
buyers reduced over the whole population at once.
"""

from __future__ import annotations

import numpy as np

from repro.core.adoption import AdoptionModel, decision_tolerance
from repro.core.choice import (
    ChoiceOutcome,
    OfferNode,
    SubtreeState,
    merged_state,
    upgrade_probability,
)
from repro.core.wtp import WTPMatrix


def recursive_evaluate_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel
) -> ChoiceOutcome:
    """Expected payments and buyers by bottom-up / top-down recursion."""
    buyers = {}
    total_pay = None

    def bottom_up(node: OfferNode):
        utility = adoption.utility(wtp_of(node.bundle), node.offer.price)
        if node.children:
            child_results = [bottom_up(child) for child in node.children]
            base = child_results[0][0]
            for result in child_results[1:]:
                base = base + result[0]
        else:
            child_results = []
            zero = np.zeros_like(utility)
            base = SubtreeState(zero, zero.copy())
        take = upgrade_probability(utility, base.score, adoption)
        if adoption.is_deterministic:
            take = take * (utility >= -decision_tolerance(node.offer.price))
        state = merged_state(base, utility, node.offer.price, adoption)
        return state, take, child_results

    def top_down(node_take, child_results, node: OfferNode, alive: np.ndarray) -> None:
        taken = alive * node_take
        buyers[node.bundle] = buyers.get(node.bundle, 0.0) + float(taken.sum())
        remaining = alive * (1.0 - node_take)
        for (_state, take, kids), child in zip(child_results, node.children):
            top_down(take, kids, child, remaining)

    for root in roots:
        state, take, child_results = bottom_up(root)
        total_pay = state.pay if total_pay is None else total_pay + state.pay
        top_down(take, child_results, root, np.ones_like(take))
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)


def engine_wtp_of(wtp: WTPMatrix, theta: float):
    """Equation-1 bundle WTP over *wtp*: ``RevenueEngine.bundle_wtp``'s
    arithmetic, one bundle at a time."""

    def wtp_of(bundle):
        scale = 1.0 + theta if bundle.size >= 2 else 1.0
        return wtp.raw_sum(bundle.items) * scale

    return wtp_of
