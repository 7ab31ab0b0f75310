"""Consumer choice over a set of offers (paper, Sections 4.1–4.2).

Pure bundling offers disjoint bundles, so each adoption decision is
independent and Equation 6 applies verbatim.  Mixed bundling offers a
*laminar* family (a bundle may be offered together with its components —
Problem 2's nesting condition), so a consumer faces real alternatives and
the paper's "upgrade" logic applies: with components A, B priced p_A, p_B
and the bundle priced p_AB, a consumer buys the bundle only when upgrading
beats buying components alone (Section 4.2's example).

This module implements that logic exactly, for forests of any shape.  The
consumer's feasible purchase decisions are the *antichains* of the offer
forest (sets of offers none of which contains another), and:

* under the deterministic step model the consumer picks the antichain with
  maximum total surplus, ties toward the bundle (the ancestor — the
  convention of the paper's Table 1);
* under the sigmoid model the choice is multinomial logit over antichains
  with utilities ``γ(α·w − p + ε)`` — the exact multi-option
  generalization of Equation 6 (binary logit), to which it reduces for a
  single offer.

Both are computed in O(#offers · M) via a *subtree state* recursion.  For
every subtree, two per-consumer arrays suffice:

=================  =============================  ==============================
                   deterministic (step)           stochastic (MNL)
=================  =============================  ==============================
``score``          best achievable surplus (≥0)   log partition fn Σ_A e^{u(A)}
``pay``            payment at the best choice     expected payment
=================  =============================  ==============================

Merging two subtrees under a new bundle offer ``(b, p)`` updates the state
in closed form: deterministically the consumer upgrades iff
``u_b ≥ score₁ + score₂``; stochastically the upgrade probability is
``σ(u_b − score₁ − score₂)`` because antichain utilities are additive and
the partition function factorizes across sibling subtrees.  The same
recursion powers the incremental mixed-merge pricing of Section 4.2, so
gains measured during search agree exactly with the final evaluation.

Enumeration-based reference implementations (:func:`choose_mnl_enumerated`,
:func:`enumerate_antichains`) are kept for cross-validation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.adoption import DECISION_RTOL, AdoptionModel, decision_tolerance
from repro.core.bundle import Bundle, laminar_order, laminar_walk
from repro.core.pricing import PricedBundle
from repro.errors import ConfigurationError
from repro.utils.rng import ensure_rng


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


# ------------------------------------------------------------------- forest
@dataclass
class OfferNode:
    """One offer in the laminar forest; children are the maximal sub-offers."""

    offer: PricedBundle
    children: list["OfferNode"] = field(default_factory=list)

    @property
    def bundle(self) -> Bundle:
        return self.offer.bundle

    def descendants(self) -> list["OfferNode"]:
        """This node and every node below it, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.descendants())
        return nodes


def build_forest(offers: list[PricedBundle]) -> list[OfferNode]:
    """Arrange a laminar family of offers into a forest.

    Each offer's parent is its smallest strict superset among the offers;
    siblings and roots follow ``(-size, items)`` order.  One
    :func:`~repro.core.bundle.laminar_walk` over the offers' items finds
    every parent.  Raises :class:`ConfigurationError` on duplicates or
    non-laminar overlap.
    """
    ordered = [offers[k] for k in laminar_order([offer.bundle for offer in offers])]
    parents, violation = laminar_walk([offer.bundle for offer in ordered])
    if violation is not None:
        bundle, other = (ordered[k].bundle for k in violation)
        if bundle == other:
            raise ConfigurationError(f"duplicate offer for bundle {bundle}")
        raise ConfigurationError(f"offers {bundle} and {other} overlap without nesting")
    nodes = [OfferNode(offer) for offer in ordered]
    roots: list[OfferNode] = []
    for node, parent in zip(nodes, parents):
        (roots if parent is None else nodes[parent].children).append(node)
    return roots


# ------------------------------------------------------------ subtree state
@dataclass(frozen=True)
class SubtreeState:
    """Per-consumer choice state of one offer subtree (see module docs).

    Mixed-strategy search keeps one state (two O(M) arrays) per live offer,
    stacked into ``(n_offers, M)`` matrices for the pair scans
    (:meth:`stack`), which at a million users dominates the scan's working
    set.  States may
    therefore be stored in ``float32`` (:meth:`astype`; the engine's
    ``state_dtype`` option) — the streaming kernels widen them back to
    float64 on the fly when filling score/pay columns, so only the resident
    arrays shrink.
    """

    score: np.ndarray
    pay: np.ndarray

    @classmethod
    def stack(cls, states: "list[SubtreeState]") -> "SubtreeState":
        """One state whose ``score``/``pay`` are ``(len(states), M)`` stacks.

        Rows keep their dtype (float32 states stack to a float32 matrix);
        ``stacked[k]`` is state *k* again.
        """
        return cls(
            np.stack([state.score for state in states]),
            np.stack([state.pay for state in states]),
        )

    def __getitem__(self, index) -> "SubtreeState":
        """Row(s) *index* of a stacked state (see :meth:`stack`)."""
        return SubtreeState(self.score[index], self.pay[index])

    def __add__(self, other: "SubtreeState") -> "SubtreeState":
        # Sibling subtrees are independent: surpluses add (deterministic)
        # and log partition functions add (stochastic).  Sums are forced to
        # the float64 loop so float32-stored states are widened *before*
        # the addition — the same rule as the streaming fill path — and a
        # merge selected by the scan is applied on bit-identical base
        # arrays.  (A no-op for the default float64 states.)
        return SubtreeState(
            np.add(self.score, other.score, dtype=np.float64),
            np.add(self.pay, other.pay, dtype=np.float64),
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the two per-consumer arrays."""
        return int(self.score.nbytes + self.pay.nbytes)

    def astype(self, dtype) -> "SubtreeState":
        """This state with both arrays in *dtype* (``self`` when already so)."""
        dtype = np.dtype(dtype)
        if self.score.dtype == dtype and self.pay.dtype == dtype:
            return self
        return SubtreeState(self.score.astype(dtype), self.pay.astype(dtype))


def singleton_state(wtp: np.ndarray, price: float, adoption: AdoptionModel) -> SubtreeState:
    """State of a leaf offer (a bundle offered with no sub-offers)."""
    utility = adoption.utility(wtp, price)
    if adoption.is_deterministic:
        take = utility >= -decision_tolerance(price)
        return SubtreeState(np.maximum(utility, 0.0), np.where(take, price, 0.0))
    return SubtreeState(np.logaddexp(0.0, utility), price * _sigmoid(utility))


def upgrade_probability(
    bundle_utility: np.ndarray, base_score: np.ndarray, adoption: AdoptionModel
) -> np.ndarray:
    """P(consumer takes the covering bundle instead of the base choice).

    Deterministic: an indicator of ``u_b ≥ base_score`` (ties toward the
    bundle, the Table 1 convention; equality is tested with a vanishing
    relative tolerance so ulp-level price-grid arithmetic cannot flip a
    genuine tie).  Stochastic: ``σ(u_b − base_score)``, the exact MNL
    probability because the base score is the log partition function of
    all alternatives.
    """
    if adoption.is_deterministic:
        slack = DECISION_RTOL * (1.0 + np.abs(bundle_utility) + np.abs(base_score))
        return (bundle_utility >= base_score - slack).astype(np.float64)
    return _sigmoid(bundle_utility - base_score)


def merged_state(
    base: SubtreeState,
    bundle_utility: np.ndarray,
    price: float,
    adoption: AdoptionModel,
) -> SubtreeState:
    """State of a subtree whose root offer ``(b, p)`` covers *base*."""
    take = upgrade_probability(bundle_utility, base.score, adoption)
    if adoption.is_deterministic:
        score = np.maximum(base.score, bundle_utility)
        # A negative-utility bundle is never taken even if base is empty.
        score = np.maximum(score, 0.0)
        taken = take.astype(bool) & (bundle_utility >= -decision_tolerance(price))
        pay = np.where(taken, price, base.pay)
        return SubtreeState(score, pay)
    score = np.logaddexp(base.score, bundle_utility)
    pay = take * price + (1.0 - take) * base.pay
    return SubtreeState(score, pay)


# -------------------------------------------------------------- evaluation
@dataclass(frozen=True)
class ChoiceOutcome:
    """Aggregate result of all M consumers choosing over an offer forest.

    ``payments``: per-consumer expected payment (exact under step choice).
    ``buyers_per_offer``: expected number of consumers selecting each offer,
    keyed by bundle.
    """

    payments: np.ndarray
    buyers_per_offer: dict[Bundle, float]

    @property
    def revenue(self) -> float:
        return float(self.payments.sum())


def evaluate_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel
) -> ChoiceOutcome:
    """Exact expected choice outcome over a laminar offer forest.

    ``wtp_of`` maps a :class:`Bundle` to the per-user WTP vector (the
    engine supplies Equation 1).  Works for deterministic and stochastic
    adoption alike via the subtree-state recursion; per-offer buyer counts
    come from a top-down pass (P(node) = P(node | subtree) · P(no ancestor
    taken)).
    """
    buyers: dict[Bundle, float] = {}
    total_pay: np.ndarray | None = None

    def bottom_up(node: OfferNode) -> tuple[SubtreeState, np.ndarray, list]:
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
        for (s_, take_, kids_), child in zip(child_results, node.children):
            top_down(take_, kids_, child, remaining)

    for root in roots:
        state, take, child_results = bottom_up(root)
        total_pay = state.pay if total_pay is None else total_pay + state.pay
        top_down(take, child_results, root, np.ones_like(take))
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)


def sample_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel, rng=None
) -> ChoiceOutcome:
    """One realized choice per consumer, drawn exactly from the MNL.

    Top-down conditional sampling: the root is taken with its exact
    marginal probability; given it is not taken, the children's subtree
    choices are conditionally independent — so recursing with each child's
    own conditional probability samples the full antichain distribution
    without enumeration.  Deterministic adoption short-circuits to the
    exact DP.
    """
    rng = ensure_rng(rng)
    if adoption.is_deterministic:
        return evaluate_forest(roots, wtp_of, adoption)
    buyers: dict[Bundle, float] = {}
    total_pay: np.ndarray | None = None

    def bottom_up(node: OfferNode):
        utility = adoption.utility(wtp_of(node.bundle), node.offer.price)
        child_results = [bottom_up(child) for child in node.children]
        if child_results:
            base_score = sum(result[0].score for result in child_results)
        else:
            base_score = np.zeros_like(utility)
        prob = _sigmoid(utility - base_score)
        score = np.logaddexp(base_score, utility)
        return SubtreeState(score, np.zeros(0)), prob, child_results, node

    def sample(prob, child_results, node: OfferNode, alive: np.ndarray) -> np.ndarray:
        take = alive & (rng.random(size=prob.shape) < prob)
        count = float(np.count_nonzero(take))
        if count:
            buyers[node.bundle] = buyers.get(node.bundle, 0.0) + count
        pay = np.where(take, node.offer.price, 0.0)
        remaining = alive & ~take
        for (_state, child_prob, kids, child_node) in child_results:
            pay = pay + sample(child_prob, kids, child_node, remaining)
        return pay

    for root in roots:
        _state, prob, kids, node = bottom_up(root)
        pay = sample(prob, kids, node, np.ones(prob.shape, dtype=bool))
        total_pay = pay if total_pay is None else total_pay + pay
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)


# --------------------------------------------- reference implementations
def enumerate_antichains(root: OfferNode, limit: int) -> list[tuple[OfferNode, ...]]:
    """All antichains of the subtree at *root* (excluding the empty one).

    Exponential; kept as the reference against which the closed-form
    recursion is validated.  Raises :class:`ConfigurationError` beyond
    *limit* antichains.
    """

    def visit(node: OfferNode) -> list[tuple[OfferNode, ...]]:
        # Antichains within this subtree, including the empty antichain.
        combos: list[tuple[OfferNode, ...]] = [()]
        for child in node.children:
            child_combos = visit(child)
            combos = [left + right for left in combos for right in child_combos]
            if len(combos) > limit:
                raise ConfigurationError(
                    f"offer tree has more than {limit} antichains; "
                    "use the closed-form evaluation"
                )
        return combos + [(node,)]

    return [combo for combo in visit(root) if combo]


def choose_mnl_enumerated(
    roots: list[OfferNode],
    wtp_of,
    adoption: AdoptionModel,
    antichain_limit: int = 4096,
) -> ChoiceOutcome:
    """Expected MNL choice by explicit antichain enumeration (reference).

    The utility of an antichain is the sum of its members' logit utilities;
    the outside option has utility 0.  Probabilities use a max-shifted
    softmax, so the γ→∞ limit degenerates gracefully to the argmax.
    """
    buyers: dict[Bundle, float] = {}
    total_pay: np.ndarray | None = None
    for root in roots:
        antichains = enumerate_antichains(root, antichain_limit)
        node_list = root.descendants()
        node_index = {id(node): k for k, node in enumerate(node_list)}
        utilities = np.stack(
            [adoption.utility(wtp_of(node.bundle), node.offer.price) for node in node_list]
        )  # (K, M)
        membership = np.zeros((len(antichains), len(node_list)))
        option_price = np.zeros(len(antichains))
        for row, antichain in enumerate(antichains):
            for node in antichain:
                membership[row, node_index[id(node)]] = 1.0
                option_price[row] += node.offer.price
        option_util = membership @ utilities  # (A, M)
        stacked = np.vstack([np.zeros((1, option_util.shape[1])), option_util])
        stacked -= stacked.max(axis=0, keepdims=True)
        weights = np.exp(np.clip(stacked, -500.0, 500.0))
        probs = weights / weights.sum(axis=0, keepdims=True)
        inside = probs[1:, :]  # (A, M)
        pay = option_price @ inside
        total_pay = pay if total_pay is None else total_pay + pay
        per_node = membership.T @ inside  # (K, M)
        for node, node_buyers in zip(node_list, per_node.sum(axis=1)):
            buyers[node.bundle] = buyers.get(node.bundle, 0.0) + float(node_buyers)
    if total_pay is None:
        total_pay = np.zeros(0)
    return ChoiceOutcome(payments=total_pay, buyers_per_offer=buyers)


# Backwards-compatible aliases used across the package.
def choose_deterministic(roots, wtp_of, adoption) -> ChoiceOutcome:
    """Max-surplus choice (ties toward the bundle); exact DP evaluation."""
    return evaluate_forest(roots, wtp_of, adoption)


def choose_mnl(roots, wtp_of, adoption, antichain_limit: int = 4096) -> ChoiceOutcome:
    """Exact expected MNL choice (closed-form recursion)."""
    return evaluate_forest(roots, wtp_of, adoption)


def sample_choice(roots, wtp_of, adoption, rng=None, antichain_limit: int = 4096) -> ChoiceOutcome:
    """One realized choice per consumer (exact top-down MNL sampling)."""
    return sample_forest(roots, wtp_of, adoption, rng)
