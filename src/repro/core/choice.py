"""Consumer choice over a set of offers (paper, Sections 4.1–4.2).

Pure bundling offers disjoint bundles, so each adoption decision is
independent and Equation 6 applies verbatim: a partition is a laminar
family in which no offer nests another, a forest whose offers are all
roots, and the recursion below prices it exactly.  Mixed bundling offers a
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

Evaluation runs one compiled :class:`ForestPlan` per configuration, pure
or mixed: ``evaluate`` (fit finalization, refit), ``solution.quote`` and
the quote server all call it, and :func:`evaluate_forest` compiles one
for an ad-hoc forest.
The plan applies the recursion one tree *height* at a time, across every
offer of that height, in blocks of at most
``SCAN_BLOCK_ELEMENTS // n_offers`` users.  A block costs
O(heights + fan-out + bundle sizes) numpy calls and O(#offers · M)
arithmetic; a per-offer recursion costs about thirty calls per offer,
which dominates a quote of a few rows.  The plan reproduces the
recursion bit for bit (``tests/forest_oracles.py`` keeps the recursion
as its oracle) by keeping every floating-point operation in the same
order:

* **bundle WTP** is one :meth:`~repro.core.wtp.WTPMatrix.raw_sums`
  gather per bundle size, which sums each bundle exactly as
  :meth:`~repro.core.wtp.WTPMatrix.raw_sum` does on as many rows;
  ``(1 + θ)`` scales sizes ≥ 2, as ``RevenueEngine._scale`` does.  A
  block never holds a lone row of a larger population, since numpy sums
  a one-row gather in a different (pairwise) order;
* **children** fold into the base state in child order (the first
  child's state, then each further child added in place), never padded
  with ``+ 0.0``; **roots** fold in root order;
* the decision **tolerances** are the expressions of
  :func:`upgrade_probability` and :func:`decision_tolerance`, unchanged.
  A childless offer decides by the standalone rule
  ``u >= -decision_tolerance(p)`` alone, as :func:`singleton_state`, the
  pricers and ``StepAdoption.probability`` do, and an offer priced
  ``<= 0`` is never taken (no buyers, no payment);
* **buyers** under step adoption are 0/1 per user, so block counts add
  up exactly; under sigmoid adoption each offer keeps one full-length row
  and reduces it once, as a whole-population array would.

Enumeration-based reference implementations (:func:`choose_mnl_enumerated`,
:func:`enumerate_antichains`) are kept for cross-validation in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.core.adoption import DECISION_RTOL, AdoptionModel, decision_tolerance
from repro.core.bundle import Bundle, laminar_order, laminar_walk
from repro.core.kernels import SCAN_BLOCK_ELEMENTS
from repro.core.pricing import PricedBundle
from repro.core.wtp import WTPMatrix
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


def singleton_state(
    wtp: np.ndarray, price: float, adoption: AdoptionModel
) -> SubtreeState:
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


class _Level(NamedTuple):
    """One height of a :class:`ForestPlan`: plan rows ``lo:hi``."""

    lo: int
    hi: int
    prices: np.ndarray  # (n, 1)
    floor: np.ndarray  # (n, 1): -decision_tolerance(prices)
    offered: np.ndarray | None  # (n, 1) prices > 0; None when all are
    children: np.ndarray  # (n, fan-out) child rows, zero-padded
    counts: list[int]  # counts[k]: nodes with a k-th child (a prefix)
    parents: np.ndarray  # (n,) parent rows; n_nodes for a root


class ForestPlan:
    """A laminar offer forest compiled once for level-by-level evaluation.

    Nodes are numbered by *height* (leaves 0, a parent one above its
    tallest child), so every height is one contiguous run of rows and all
    of a node's children have rows below it.  Within a height, nodes are
    ordered by falling fan-out, so the nodes with a ``k``-th child are a
    prefix of the run.  The plan holds, per height, the price column, its
    decision floor ``-decision_tolerance(price)``, which prices are
    positive (when not all are), a padded child-row matrix and each
    node's parent row; per bundle size, the ``(n_s, s)``
    item-index matrix of that size's offers; and the root rows in root
    order.  It keeps no WTP, so one plan serves any population.  A pure
    menu's plan is one height of roots in offer order, so its payments
    fold in offer order and its buyers are each offer's own adoption.
    """

    def __init__(self, roots: list[OfferNode]) -> None:
        preorder: list[OfferNode] = []
        stack = list(reversed(roots))
        while stack:
            node = stack.pop()
            preorder.append(node)
            stack.extend(reversed(node.children))
        height: dict[int, int] = {}
        for node in reversed(preorder):
            below = [height[id(child)] for child in node.children]
            height[id(node)] = 1 + max(below, default=-1)
        # Heights ascending; within a height, fan-out descending (stable).
        nodes = sorted(preorder, key=lambda n: (height[id(n)], -len(n.children)))
        row = {id(node): k for k, node in enumerate(nodes)}
        parent = np.full(len(nodes), len(nodes), dtype=np.intp)
        for node in nodes:
            for child in node.children:
                parent[row[id(child)]] = row[id(node)]
        prices = np.asarray([node.offer.price for node in nodes], dtype=np.float64)
        self.nodes: tuple[OfferNode, ...] = tuple(nodes)
        self.roots = np.asarray([row[id(root)] for root in roots], dtype=np.intp)
        self.preorder = np.asarray([row[id(node)] for node in preorder], dtype=np.intp)
        self._preorder_bundles = [node.bundle for node in preorder]
        self.levels: list[_Level] = []
        lo = 0
        while lo < len(nodes):
            hi = lo + 1
            while hi < len(nodes) and height[id(nodes[hi])] == height[id(nodes[lo])]:
                hi += 1
            fanouts = [len(node.children) for node in nodes[lo:hi]]
            children = np.zeros((hi - lo, fanouts[0]), dtype=np.intp)
            for k, node in enumerate(nodes[lo:hi]):
                children[k, : fanouts[k]] = [row[id(c)] for c in node.children]
            counts = [sum(f > k for f in fanouts) for k in range(fanouts[0])]
            column = prices[lo:hi, None]
            floor = -decision_tolerance(column)
            offered = None if (column > 0).all() else column > 0
            self.levels.append(
                _Level(lo, hi, column, floor, offered, children, counts, parent[lo:hi])
            )
            lo = hi
        by_size: dict[int, list[int]] = {}
        for k, node in enumerate(nodes):
            by_size.setdefault(node.bundle.size, []).append(k)
        self.size_groups: list[tuple[int, np.ndarray, np.ndarray]] = [
            (
                size,
                np.asarray(rows, dtype=np.intp),
                np.asarray([nodes[k].bundle.items for k in rows], dtype=np.intp),
            )
            for size, rows in sorted(by_size.items())
        ]
        #: Users per evaluation block: each ``(n_nodes, rows)`` work array
        #: holds at most ``SCAN_BLOCK_ELEMENTS`` values.
        self.block_rows = max(2, SCAN_BLOCK_ELEMENTS // max(1, len(nodes)))

    # ------------------------------------------------------------ public API
    def payments(
        self, wtp: WTPMatrix, theta: float, adoption: AdoptionModel
    ) -> np.ndarray:
        """Per-user expected payment of the users of *wtp*.

        Each offer's WTP is Equation 1 with interaction *theta*.  The
        buyers pass is skipped.
        """
        block_wtp = partial(self._block_wtp, wtp, theta)
        payments, _ = self._run(wtp.n_users, block_wtp, adoption, None)
        return payments

    def evaluate(
        self, wtp: WTPMatrix, theta: float, adoption: AdoptionModel
    ) -> ChoiceOutcome:
        """:meth:`payments` plus the expected buyers of every offer."""
        return self.evaluate_ranges(wtp, theta, adoption, [0, wtp.n_users])[0]

    def evaluate_ranges(
        self, wtp: WTPMatrix, theta: float, adoption: AdoptionModel, bounds
    ) -> list[ChoiceOutcome]:
        """One :meth:`evaluate` outcome per user range
        ``bounds[k]:bounds[k + 1]`` of *wtp*, from one pass over all users.

        Payments are per user and each range's buyers are reduced over that
        range alone, so each outcome equals :meth:`evaluate` on the range's
        rows as their own matrix (the quote server prices stacked requests
        this way).
        """
        block_wtp = partial(self._block_wtp, wtp, theta)
        payments, buyers = self._run(wtp.n_users, block_wtp, adoption, bounds)
        return [
            ChoiceOutcome(payments=payments[lo:hi], buyers_per_offer=counts)
            for lo, hi, counts in zip(bounds[:-1], bounds[1:], buyers)
        ]

    # ------------------------------------------------------------- internals
    def _block_wtp(self, wtp: WTPMatrix, theta: float, lo: int, hi: int) -> np.ndarray:
        """``(n_nodes, hi - lo)`` Equation-1 WTP of users ``lo:hi``.

        One :meth:`~repro.core.wtp.WTPMatrix.raw_sums` gather per bundle
        size, which sums each bundle as ``raw_sum`` does on as many rows.
        A one-row gather sums in another order, so blocks hold at least two
        rows unless the population is a single user (see :meth:`_run`).
        """
        block = np.empty((len(self.nodes), hi - lo))
        for size, rows, items in self.size_groups:
            raw = wtp.raw_sums(items, lo, hi)
            if size >= 2:
                raw *= 1.0 + theta
            block[rows] = raw.T
        return block

    def _run(
        self, n_users: int, block_wtp, adoption: AdoptionModel, bounds
    ) -> tuple[np.ndarray, list[dict[Bundle, float]] | None]:
        """Payments of *n_users* users, one row block at a time, and the
        buyers of each user range in *bounds* (none when it is None).

        ``block_wtp(lo, hi)`` gives the offers' WTP rows for users
        ``lo:hi``.  Deterministic buyers are 0/1 per user, so per-block
        counts add up exactly; stochastic buyers keep one full-length row
        per offer and reduce each range of it once, the same pairwise sum
        as an array of that range alone.
        """
        payments = np.empty(n_users)
        exact_counts = adoption.is_deterministic
        ranges = [] if bounds is None else list(zip(bounds[:-1], bounds[1:]))
        counts = np.zeros((len(ranges), len(self.nodes)))
        if ranges and not exact_counts:
            taken_rows = np.empty((len(self.nodes), n_users))
        starts = list(range(0, n_users, self.block_rows))
        if len(starts) > 1 and n_users - starts[-1] == 1:
            starts.pop()  # a lone last row joins its predecessor block
        for lo, hi in zip(starts, starts[1:] + [n_users]):
            pay, take = self._bottom_up(block_wtp(lo, hi), adoption)
            # Roots fold in root order, like the payments of sibling trees.
            payments[lo:hi] = np.add.accumulate(pay[self.roots], axis=0)[-1]
            if not ranges:
                continue
            taken = self._top_down(take)
            if not exact_counts:
                taken_rows[:, lo:hi] = taken
                continue
            for k, (first, last) in enumerate(ranges):
                if first < hi and last > lo:
                    part = taken[:, max(first, lo) - lo : min(last, hi) - lo]
                    counts[k] += part.sum(axis=1)
        if bounds is None:
            return payments, None
        if not exact_counts:
            counts = [taken_rows[:, first:last].sum(axis=1) for first, last in ranges]
        bundles = self._preorder_bundles
        buyers = [dict(zip(bundles, count[self.preorder].tolist())) for count in counts]
        return payments, buyers

    def _bottom_up(
        self, wtp: np.ndarray, adoption: AdoptionModel
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every node's subtree payment and take probability, one height at
        a time (the :func:`merged_state` update, vectorized over a height)."""
        score = np.empty_like(wtp)
        pay = np.empty_like(wtp)
        take = np.empty_like(wtp)
        deterministic = adoption.is_deterministic
        for lo, hi, prices, floor, offered, children, counts, _ in self.levels:
            utility = adoption.utility(wtp[lo:hi], prices)
            # The base (children's combined state) is built in place in
            # this height's own rows, then updated by the offer itself.
            base_score, base_pay = score[lo:hi], pay[lo:hi]
            if not counts:
                base_score[...] = 0.0
                base_pay[...] = 0.0
            else:
                # Sibling states fold in child order: the first child's
                # state, then each further child added where it exists.
                base_score[...] = score[children[:, 0]]
                base_pay[...] = pay[children[:, 0]]
                for k in range(1, len(counts)):
                    n = counts[k]
                    rows = children[:n, k]
                    np.add(base_score[:n], score[rows], out=base_score[:n])
                    np.add(base_pay[:n], pay[rows], out=base_pay[:n])
            if deterministic:
                # A leaf decides by the standalone rule u >= floor alone; a
                # parent must also beat its base within upgrade_probability's
                # slack, DECISION_RTOL·(1 + |u| + |base|).
                taken = utility >= floor
                if counts:
                    bar = np.abs(utility)
                    bar += 1.0
                    bar += np.abs(base_score)
                    bar *= DECISION_RTOL
                    np.subtract(base_score, bar, out=bar)
                    taken &= utility >= bar
                if offered is not None:
                    taken &= offered
                take[lo:hi] = taken
                np.maximum(base_score, utility, out=base_score)
                np.maximum(base_score, 0.0, out=base_score)
                np.copyto(base_pay, prices, where=taken)
            else:
                upgrade = _sigmoid(utility - base_score)
                if offered is not None:
                    upgrade *= offered
                take[lo:hi] = upgrade
                np.logaddexp(base_score, utility, out=base_score)
                base_pay *= 1.0 - upgrade
                base_pay += upgrade * prices
        return pay, take

    def _top_down(self, take: np.ndarray) -> np.ndarray:
        """P(user takes each node): P(node | subtree) · P(no ancestor taken),
        one height at a time from the top."""
        if len(self.levels) == 1:
            return take  # a forest of roots: no ancestor to have been taken
        taken = np.empty_like(take)
        # Row n_nodes is the roots' "parent": everyone is still choosing.
        remaining = np.empty((take.shape[0] + 1, take.shape[1]))
        remaining[-1] = 1.0
        for level in reversed(self.levels):
            lo, hi = level.lo, level.hi
            alive = remaining[level.parents]
            taken[lo:hi] = alive * take[lo:hi]
            remaining[lo:hi] = alive * (1.0 - take[lo:hi])
        return taken


def evaluate_forest(
    roots: list[OfferNode], wtp_of, adoption: AdoptionModel
) -> ChoiceOutcome:
    """Exact expected choice outcome over a laminar offer forest.

    ``wtp_of`` maps a :class:`Bundle` to the per-user WTP vector.  The
    forest is compiled to a :class:`ForestPlan` and run on the stacked
    vectors; a configuration keeps its plan
    (:meth:`~repro.core.configuration.MixedConfiguration.plan`) and hands
    it the item values instead.
    """
    if not roots:
        return ChoiceOutcome(payments=np.zeros(0), buyers_per_offer={})
    plan = ForestPlan(roots)
    wtp = np.stack([np.asarray(wtp_of(node.bundle), np.float64) for node in plan.nodes])
    payments, buyers = plan._run(
        wtp.shape[1],
        lambda lo, hi: np.ascontiguousarray(wtp[:, lo:hi]),
        adoption,
        [0, wtp.shape[1]],
    )
    return ChoiceOutcome(payments=payments, buyers_per_offer=buyers[0])


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
        if node.offer.price > 0:
            take = alive & (rng.random(size=prob.shape) < prob)
        else:
            take = np.zeros(prob.shape, dtype=bool)  # never taken, no draw
        buyers[node.bundle] = float(np.count_nonzero(take))
        pay = np.where(take, node.offer.price, 0.0)
        remaining = alive & ~take
        for _state, child_prob, kids, child_node in child_results:
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
            [
                adoption.utility(wtp_of(node.bundle), node.offer.price)
                for node in node_list
            ]
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
