"""The compiled offer forest against the per-node recursion, bit for bit.

:class:`~repro.core.choice.ForestPlan` evaluates a laminar offer forest one
tree height at a time, in row blocks of users.  On random laminar forests —
deep chains and wide fans, bundles of 1–7, 8–16 and more than 128 items —
its payments must equal the recursion of ``tests/forest_oracles.py`` byte
for byte and its per-offer buyers to the last bit (``float.hex``), under
step adoption at ε ∈ {0, 0.5} and under sigmoid adoption.  Users sit on a
ratings grid (exact ties) or are lognormal (summation order shows), with
zero-WTP rows, and most offers are priced at some user's bundle WTP, so
surplus ties of exactly zero are common.  User
counts straddle the plan's row block: 1, 2, block − 1, block, block + 1.

A pure menu is a forest of roots in offer order.  Its plan must equal the
per-offer loop of ``tests/forest_oracles.py`` bit for bit: payments, buyers,
and the revenue summed as price · buyers in offer order, on menus fitted by
``pure_matching``, ``pure_greedy`` and ``components``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import make_algorithm
from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.bundle import Bundle
from repro.core.choice import ForestPlan, build_forest, evaluate_forest
from repro.core.configuration import MixedConfiguration
from repro.core.evaluation import evaluate
from repro.core.pricing import PricedBundle
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix

from forest_oracles import engine_wtp_of, pure_menu_outcome, recursive_evaluate_forest

#: Item count and root bundle sizes per forest shape.
SHAPES = {
    "small": dict(n_items=14, root_sizes=(1, 7)),
    "medium": dict(n_items=40, root_sizes=(8, 16)),
    "wide": dict(n_items=140, root_sizes=(129, 140)),
}
ADOPTIONS = {
    "step": StepAdoption(),
    "step-eps": StepAdoption(epsilon=0.5),
    "sigmoid": SigmoidAdoption(gamma=0.5, alpha=1.1, epsilon=0.01),
}
USER_COUNTS = ("1", "2", "block-1", "block", "block+1")
THETA = 0.1
#: Largest user block (in WTP elements) the property test evaluates; a
#: forest of few offers gets a plan block this size instead of its own.
MAX_BLOCK_ELEMENTS = 1 << 19


def subtree(rng, items: list[int], depth: int, max_fanout: int) -> list[list[int]]:
    """Bundle *items* and a random laminar family strictly inside it."""
    bundles = [sorted(items)]
    if depth == 0 or len(items) < 2:
        return bundles
    shuffled = list(rng.permutation(items))
    fanout = int(rng.integers(1, min(max_fanout, len(items)) + 1))
    # Children cover a random strict subset when there is one child, else
    # any subset; each child has at least one item.
    kept = int(rng.integers(fanout, len(items) + (fanout > 1)))
    cuts = sorted(rng.choice(np.arange(1, kept), size=fanout - 1, replace=False))
    for group in np.split(np.asarray(shuffled[:kept]), cuts):
        bundles += subtree(rng, [int(i) for i in group], depth - 1, max_fanout)
    return bundles


def random_offers(rng, shape: str, wtp: WTPMatrix) -> list[PricedBundle]:
    """A random laminar menu covering every item, priced toward ties."""
    n_items = SHAPES[shape]["n_items"]
    low, high = SHAPES[shape]["root_sizes"]
    depth = int(rng.integers(0, 6))
    max_fanout = int(rng.integers(1, 9))
    items = list(rng.permutation(n_items))
    bundles: list[list[int]] = []
    while items:
        size = min(len(items), int(rng.integers(low, high + 1)))
        root, items = items[:size], items[size:]
        bundles += subtree(rng, [int(i) for i in root], depth, max_fanout)
    wtp_of = engine_wtp_of(wtp, THETA)
    offers = []
    for bundle_items in bundles:
        bundle = Bundle(bundle_items)
        column = wtp_of(bundle)
        if rng.random() < 0.6:
            # Some user's own bundle WTP: that user's surplus is exactly 0.
            price = float(column[rng.integers(len(column))])
        else:
            price = 1.25 * int(rng.integers(0, 6 * bundle.size + 1))
        offers.append(PricedBundle(bundle, price, 0.0, 0.0))
    return offers


def user_values(rng, n_users: int, n_items: int, grid: bool = True) -> WTPMatrix:
    """Sparse WTP with zero-WTP users: on the ratings grid (λ = 1.25), where
    sums are exact in any order, or lognormal, where summation order shows."""
    if grid:
        values = rng.integers(1, 6, size=(n_users, n_items)) * 1.25
    else:
        values = rng.lognormal(1.0, 0.6, size=(n_users, n_items))
    values *= rng.random((n_users, n_items)) < 0.4
    values[rng.random(n_users) < 0.2] = 0.0
    return WTPMatrix(values)


def user_count(case: str, plan: ForestPlan) -> int:
    offsets = {"block-1": -1, "block": 0, "block+1": 1}
    return int(case) if case in ("1", "2") else plan.block_rows + offsets[case]


def hex_buyers(outcome) -> dict:
    return {bundle: float(n).hex() for bundle, n in outcome.buyers_per_offer.items()}


def assert_bit_identical(outcome, expected) -> None:
    assert outcome.payments.dtype == expected.payments.dtype
    assert outcome.payments.tobytes() == expected.payments.tobytes()
    assert list(outcome.buyers_per_offer) == list(expected.buyers_per_offer)
    assert hex_buyers(outcome) == hex_buyers(expected)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.sampled_from(sorted(SHAPES)),
    adoption=st.sampled_from(sorted(ADOPTIONS)),
    users=st.sampled_from(USER_COUNTS),
    grid=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_plan_matches_recursion_bit_for_bit(seed, shape, adoption, users, grid):
    rng = np.random.default_rng(seed)
    n_items = SHAPES[shape]["n_items"]
    # Prices come from a small population; the evaluated one is drawn after
    # the plan exists, so its size can straddle the plan's row block.
    offers = random_offers(rng, shape, user_values(rng, 50, n_items, grid))
    config = MixedConfiguration(offers, n_items)
    plan = config.plan()
    # The block loop is the same at any block size; keep the arrays small.
    plan.block_rows = min(plan.block_rows, MAX_BLOCK_ELEMENTS // n_items)
    wtp = user_values(rng, user_count(users, plan), n_items, grid)
    model = ADOPTIONS[adoption]
    expected = recursive_evaluate_forest(
        config.forest(), engine_wtp_of(wtp, THETA), model
    )
    outcome = plan.evaluate(wtp, THETA, model)
    assert_bit_identical(outcome, expected)
    assert plan.payments(wtp, THETA, model).tobytes() == expected.payments.tobytes()


@pytest.mark.parametrize("adoption", sorted(ADOPTIONS))
def test_evaluate_forest_runs_the_plan(adoption):
    """The callback entry point is the plan on stacked offer WTP."""
    rng = np.random.default_rng(7)
    wtp = user_values(rng, 300, 40, grid=False)
    offers = random_offers(rng, "medium", wtp)
    roots = build_forest(offers)
    wtp_of = engine_wtp_of(wtp, THETA)
    model = ADOPTIONS[adoption]
    assert_bit_identical(
        evaluate_forest(roots, wtp_of, model),
        recursive_evaluate_forest(roots, wtp_of, model),
    )


def test_plan_layout():
    """Heights ascend, children sit below their parent, and a height's
    nodes with a k-th child form a prefix."""
    rng = np.random.default_rng(3)
    wtp = user_values(rng, 20, 40)
    config = MixedConfiguration(random_offers(rng, "medium", wtp), 40)
    plan = config.plan()
    assert plan is config.plan()
    assert sorted(plan.preorder.tolist()) == list(range(len(plan.nodes)))
    assert [plan.nodes[k] for k in plan.roots] == config.forest()
    for level in plan.levels:
        for row in range(level.lo, level.hi):
            node = plan.nodes[row]
            children = level.children[row - level.lo, : len(node.children)]
            assert [plan.nodes[c] for c in children] == node.children
            assert all(c < level.lo for c in children)
        fanouts = [len(plan.nodes[row].children) for row in range(level.lo, level.hi)]
        assert fanouts == sorted(fanouts, reverse=True)
        assert level.counts == [sum(f > k for f in fanouts) for k in range(fanouts[0])]


def segmented_values(rng, n_users: int, n_items: int) -> np.ndarray:
    """Lognormal WTP in five user segments, each valuing its own fifth of
    the items (the continuous golden's recipe), so pure fits end in several
    bundles; one item nobody values gets a zero-priced offer."""
    values = rng.lognormal(1.0, 0.6, size=(n_users, n_items))
    segment = rng.integers(5, size=n_users)
    own = segment[:, None] == (np.arange(n_items) % 5)[None, :]
    values[rng.random((n_users, n_items)) < np.where(own, 0.3, 0.97)] = 0.0
    values[:, 7] = 0.0
    return values


@pytest.fixture(scope="module")
def pure_fits():
    """Pure menus fitted on continuous WTP, per algorithm and adoption
    model, with the engine they were fitted on."""
    wtp = WTPMatrix(segmented_values(np.random.default_rng(17), 300, 30))
    fits = {}
    for algorithm in ("pure_matching", "pure_greedy", "components"):
        for name, model in ADOPTIONS.items():
            engine = RevenueEngine(wtp, theta=THETA, adoption=model)
            result = make_algorithm(algorithm).fit(engine)
            fits[algorithm, name] = (result.configuration, engine)
    return fits


@pytest.mark.parametrize("algorithm", ["pure_matching", "pure_greedy", "components"])
@pytest.mark.parametrize("adoption", sorted(ADOPTIONS))
def test_pure_menu_plan_matches_per_offer_loop(pure_fits, algorithm, adoption):
    config, engine = pure_fits[algorithm, adoption]
    model = ADOPTIONS[adoption]
    plan = config.plan()
    assert [plan.nodes[k].offer for k in plan.roots] == list(config.offers)
    fitted = engine.wtp.values
    held_out = segmented_values(np.random.default_rng(5), 2, 30)
    for values in (fitted, fitted[:1], held_out):
        wtp = WTPMatrix(values)
        payments, buyers, revenue = pure_menu_outcome(config.offers, wtp, THETA, model)
        outcome = plan.evaluate(wtp, THETA, model)
        assert outcome.payments.tobytes() == payments.tobytes()
        assert list(outcome.buyers_per_offer) == list(buyers)
        assert hex_buyers(outcome) == {b: float(n).hex() for b, n in buyers.items()}
        assert config.revenue(outcome).hex() == revenue.hex()
    # evaluate() takes the same revenue sum on the fitted population.
    _, _, revenue = pure_menu_outcome(config.offers, engine.wtp, THETA, model)
    assert evaluate(config, engine, n_runs=0).expected_revenue.hex() == revenue.hex()


@pytest.mark.parametrize("adoption", sorted(ADOPTIONS))
@pytest.mark.parametrize("menu", ["pure", "mixed"])
def test_ranges_match_their_own_rows(pure_fits, adoption, menu):
    """Each user range of one stacked pass equals evaluating its rows alone."""
    model = ADOPTIONS[adoption]
    rng = np.random.default_rng(23)
    if menu == "pure":
        config, _ = pure_fits["pure_matching", adoption]
    else:
        offers = random_offers(rng, "medium", user_values(rng, 50, 40))
        config = MixedConfiguration(offers, 40)
    # At least two rows each: numpy sums a one-row bundle gather in another
    # order (ROADMAP item 3), so a lone row is not bit-stable across batches.
    sizes = (2, 3, 2, 7, 2, 12)
    values = segmented_values(rng, sum(sizes), config.n_items)
    bounds = np.cumsum((0,) + sizes).tolist()
    outcomes = config.plan().evaluate_ranges(WTPMatrix(values), THETA, model, bounds)
    assert len(outcomes) == len(sizes)
    for outcome, lo, hi in zip(outcomes, bounds[:-1], bounds[1:]):
        alone = config.plan().evaluate(WTPMatrix(values[lo:hi]), THETA, model)
        assert_bit_identical(outcome, alone)
