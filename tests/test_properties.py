"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from matching_oracles import brute_force_matching, pairs_weight

from repro.core.adoption import SigmoidAdoption
from repro.core.bundle import Bundle
from repro.core.pricing import PriceGrid, price_pure
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.ilp.branch_and_bound import solve_branch_and_bound, solve_greedy
from repro.ilp.model import SetPackingProblem
from repro.matching.blossom import matching_weight, max_weight_matching

wtp_vectors = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


@given(wtp=wtp_vectors)
@settings(max_examples=80, deadline=None)
def test_exact_pricing_dominates_grid(wtp):
    """The exact scan is an upper bound for any grid resolution."""
    exact = price_pure(wtp, grid=PriceGrid(mode="exact")).revenue
    for levels in (3, 17, 100):
        grid = price_pure(wtp, grid=PriceGrid(n_levels=levels)).revenue
        assert grid <= exact + 1e-9


@given(wtp=wtp_vectors)
@settings(max_examples=80, deadline=None)
def test_exact_pricing_is_optimal_over_all_prices(wtp):
    """No single price beats the exact-scan optimum (step adoption)."""
    best = price_pure(wtp, grid=PriceGrid(mode="exact"))
    for price in np.unique(wtp[wtp > 0]):
        revenue = price * np.sum(wtp >= price)
        assert revenue <= best.revenue + 1e-9


@given(wtp=wtp_vectors, scale=st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_pricing_scale_equivariance(wtp, scale):
    """Scaling all WTP by c scales optimal revenue by c (grid pricing)."""
    base = price_pure(wtp, grid=PriceGrid(100)).revenue
    scaled = price_pure(wtp * scale, grid=PriceGrid(100)).revenue
    assert scaled == np.float64(base * scale).item() or abs(scaled - base * scale) < 1e-6 * max(1, base)


@given(
    wtp=wtp_vectors,
    price=st.floats(min_value=0.1, max_value=120.0),
    gamma=st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_adoption_probability_monotonicity(wtp, price, gamma):
    model = SigmoidAdoption(gamma=gamma)
    probs = model.probability(np.sort(wtp), price)
    assert np.all(np.diff(probs) >= -1e-12)  # non-decreasing in WTP
    lower = model.probability(np.sort(wtp), price + 1.0)
    assert np.all(lower <= probs + 1e-12)  # non-increasing in price


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-5, max_value=30),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_blossom_matches_brute_force(data):
    edges = []
    seen = set()
    for u, v, w in data:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], float(w)))
    if not edges:
        return
    mate = max_weight_matching(edges)
    ours = matching_weight(edges, mate)
    brute = pairs_weight(edges, brute_force_matching(edges))
    assert abs(ours - brute) < 1e-9


@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=-1, max_value=3),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=150, deadline=None)
def test_blossom_matches_brute_force_with_tied_weights(data):
    """Weights on a 0.25 grid with five values: most edges tie with others."""
    edges = []
    seen = set()
    for u, v, w in data:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], 0.25 * w))
    if not edges:
        return
    mate = max_weight_matching(edges)
    for u, partner in enumerate(mate):
        assert partner == -1 or mate[partner] == u
    brute = pairs_weight(edges, brute_force_matching(edges))
    assert abs(matching_weight(edges, mate) - brute) < 1e-9


@given(
    n_items=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_set_packing_greedy_respects_bound(n_items, seed):
    rng = np.random.default_rng(seed)
    n_sets = int(rng.integers(1, 10))
    itemsets = [
        list(rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False))
        for _ in range(n_sets)
    ]
    weights = [float(rng.uniform(0, 10)) for _ in range(n_sets)]
    problem = SetPackingProblem.from_itemsets(n_items, itemsets, weights)
    exact = solve_branch_and_bound(problem)
    greedy = solve_greedy(problem)
    assert greedy.weight <= exact.weight + 1e-9
    assert greedy.weight >= exact.weight / np.sqrt(n_items) - 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 12), st.integers(2, 5)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    ),
    theta=st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=50, deadline=None)
def test_engine_bundle_wtp_consistency(matrix, theta):
    """Equation 1: bundle WTP is the theta-scaled sum of member columns."""
    engine = RevenueEngine(WTPMatrix(matrix), theta=theta)
    n_items = matrix.shape[1]
    full = Bundle(range(n_items))
    expected = matrix.sum(axis=1) * ((1 + theta) if n_items >= 2 else 1.0)
    np.testing.assert_allclose(engine.bundle_wtp(full), expected)


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 15), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_pure_configuration_never_worse_than_components(matrix):
    """The safety property: heuristics revert to Components when beaten."""
    from repro.algorithms.components import Components
    from repro.algorithms.matching_iterative import IterativeMatching

    if matrix.sum() == 0:
        return
    engine = RevenueEngine(WTPMatrix(matrix))
    components = Components().fit(engine).expected_revenue
    bundled = IterativeMatching(strategy="pure").fit(engine).expected_revenue
    assert bundled >= components - 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 15), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_step_evaluation_matches_stored_revenue(matrix):
    """Components' evaluated revenue equals its stored per-offer revenue."""
    from repro.algorithms.components import Components
    from repro.core.evaluation import evaluate

    if matrix.sum() == 0:
        return
    engine = RevenueEngine(WTPMatrix(matrix))
    result = Components().fit(engine)
    recomputed = evaluate(result.configuration, engine, n_runs=0).expected_revenue
    assert abs(recomputed - result.expected_revenue) < 1e-9


@given(
    matrix=arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 12), st.integers(2, 4)),
        elements=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    ),
    gamma=st.floats(min_value=0.2, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_mixed_state_recursion_equals_enumeration(matrix, gamma):
    """The closed-form MNL equals explicit antichain enumeration."""
    from repro.core.choice import build_forest, choose_mnl_enumerated, evaluate_forest
    from repro.core.pricing import PricedBundle

    wtp = WTPMatrix(matrix)
    engine = RevenueEngine(wtp, adoption=SigmoidAdoption(gamma=gamma))
    n = wtp.n_items
    offers = [PricedBundle(Bundle.of(i), 3.0 + i, 0.0, 0.0) for i in range(n)]
    offers.append(PricedBundle(Bundle(range(n)), 3.0 * n - 1.0, 0.0, 0.0))
    roots = build_forest(offers)
    closed = evaluate_forest(roots, engine.bundle_wtp, engine.adoption)
    enumerated = choose_mnl_enumerated(roots, engine.bundle_wtp, engine.adoption)
    assert abs(closed.revenue - enumerated.revenue) < 1e-6 * max(1.0, enumerated.revenue)


@given(seed=st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=25, deadline=None)
def test_step_choice_never_pays_above_wtp_total(seed):
    """No consumer ever pays more than her total willingness to pay."""
    from repro.algorithms.matching_iterative import IterativeMatching
    from repro.core.choice import evaluate_forest

    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0, 15, size=(12, 4)) * (rng.random((12, 4)) < 0.7)
    engine = RevenueEngine(WTPMatrix(matrix))
    result = IterativeMatching(strategy="mixed").fit(engine)
    outcome = evaluate_forest(
        result.configuration.forest(), engine.bundle_wtp, engine.adoption
    )
    totals = matrix.sum(axis=1)
    # step consumers only buy at non-negative surplus, per offer subtree.
    assert np.all(outcome.payments <= totals + 1e-6)
