"""Per-node recursion over a laminar offer forest: the bit-for-bit oracle
for :class:`repro.core.choice.ForestPlan`.

Not used by the library.  It walks the forest one offer at a time with the
library's own state primitives (:func:`~repro.core.choice.merged_state`,
:func:`~repro.core.choice.upgrade_probability`) and WTP callback, so every
floating-point operation happens in the order the plan must reproduce:
children folded in child order, roots in root order, and each offer's
buyers reduced over the whole population at once.  A leaf decides by the
standalone rule ``u >= -decision_tolerance(p)`` alone, and an offer priced
<= 0 is never taken.

:func:`pure_menu_outcome` is the per-offer loop that priced pure menus
before they became forests of roots: the oracle for a pure menu's plan.
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
        price = node.offer.price
        if adoption.is_deterministic and not node.children:
            # A leaf decides by the standalone rule alone.
            take = (utility >= -decision_tolerance(price)).astype(np.float64)
        else:
            take = upgrade_probability(utility, base.score, adoption)
            if adoption.is_deterministic:
                take = take * (utility >= -decision_tolerance(price))
        state = merged_state(base, utility, price, adoption)
        if price <= 0:
            # Never taken: no buyers, and the base's payment stands.
            take = np.zeros_like(take)
            state = SubtreeState(state.score, base.pay)
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


def pure_menu_outcome(
    offers, wtp: WTPMatrix, theta: float, adoption: AdoptionModel
) -> tuple[np.ndarray, dict, float]:
    """Payments, buyers and revenue of a pure (disjoint) menu, one offer at
    a time in offer order: each offer's standalone adoption probability,
    offers priced <= 0 skipped (no buyers, no payment), and the revenue
    summed as price * buyers in offer order."""
    wtp_of = engine_wtp_of(wtp, theta)
    total = 0.0
    buyers = {}
    payments = np.zeros(wtp.n_users)
    for offer in offers:
        if offer.price <= 0:
            buyers[offer.bundle] = 0.0
            continue
        probs = adoption.probability(wtp_of(offer.bundle), offer.price)
        count = float(probs.sum())
        buyers[offer.bundle] = count
        total += offer.price * count
        payments += offer.price * probs
    return payments, buyers, total
