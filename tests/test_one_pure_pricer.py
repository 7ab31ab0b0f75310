"""One pure pricer: every standalone price is a column of the batch kernel.

:func:`~repro.core.pricing.price_pure`, :meth:`RevenueEngine.price_bundle`,
:meth:`RevenueEngine.price_bundles` and warm refit
(:class:`~repro.core.delta.IncrementalMenuPricer`) all run
:func:`~repro.core.pricing.price_pure_batch`, so they must agree bit for
bit with each other and with the prices a fit found.  Every comparison
here is exact equality.  The populations are ratings data, whose partial
sums are exact, and the continuous-golden lognormal WTP, where they are
not.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BundlingSolver, EngineConfig, PopulationDelta
from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.bundle import Bundle
from repro.core.configuration import PureConfiguration
from repro.core.delta import IncrementalMenuPricer
from repro.core.evaluation import evaluate
from repro.core.pricing import PriceGrid, PricedBundle, price_pure, price_pure_batch
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings

PURE_ALGORITHMS = ("components", "pure_matching", "pure_greedy")


def _continuous_generator():
    path = Path(__file__).parent / "golden" / "make_continuous.py"
    spec = importlib.util.spec_from_file_location("make_continuous", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=["ratings", "continuous"])
def population(request):
    """``(wtp, theta)`` of one test population."""
    if request.param == "ratings":
        ratings = amazon_books_like(n_users=200, n_items=40, seed=7)
        return wtp_from_ratings(ratings, conversion=1.25), 0.1
    generator = _continuous_generator()
    return WTPMatrix(generator.continuous_wtp()), generator.THETA


@pytest.fixture(scope="module")
def fits(population):
    """Each pure algorithm's solution on *population*."""
    wtp, theta = population
    config = EngineConfig(theta=theta)
    return {name: BundlingSolver(name, config).fit(wtp) for name in PURE_ALGORITHMS}


def triple(offer: PricedBundle) -> tuple[float, float, float]:
    return offer.price, offer.revenue, offer.buyers


@pytest.mark.parametrize("algorithm", PURE_ALGORITHMS)
def test_empty_delta_refit_returns_the_fitted_offers(population, fits, algorithm):
    wtp, theta = population
    solution = fits[algorithm]
    solver = BundlingSolver(algorithm, EngineConfig(theta=theta))
    report = solver.refit(solution, wtp, PopulationDelta())
    assert report.mode == "warm"
    got = report.solution.offers
    assert [o.bundle for o in got] == [o.bundle for o in solution.offers]
    assert [triple(o) for o in got] == [triple(o) for o in solution.offers]


@pytest.mark.parametrize("algorithm", PURE_ALGORITHMS)
def test_fitted_prices_equal_standalone_prices(population, fits, algorithm):
    wtp, theta = population
    engine = EngineConfig(theta=theta).build(wtp)
    for offer in fits[algorithm].offers:
        assert triple(engine.price_bundle(offer.bundle)) == triple(offer)


def test_price_bundle_is_independent_of_call_order(population, fits):
    wtp, theta = population
    bundles = [Bundle.singleton(i) for i in range(wtp.n_items)]
    for name in ("pure_matching", "pure_greedy"):
        bundles += [o.bundle for o in fits[name].offers if o.bundle.size > 1]
    scalar_first = RevenueEngine(wtp, theta=theta)
    batch_first = RevenueEngine(wtp, theta=theta)
    for bundle in dict.fromkeys(bundles):
        alone = scalar_first.price_bundle(bundle)
        assert scalar_first.price_bundles([bundle])[0] is alone
        batched = batch_first.price_bundles([bundle])[0]
        assert batch_first.price_bundle(bundle) is batched
        assert alone == batched


@pytest.mark.parametrize(
    "adoption",
    [StepAdoption(), SigmoidAdoption(gamma=2.0)],
    ids=["step", "sigmoid"],
)
def test_warm_pricer_matches_fresh_engine_after_delta(population, fits, adoption):
    wtp, theta = population
    values = wtp.values
    rng = np.random.default_rng(5)
    n_churn = max(1, round(0.01 * values.shape[0]))
    removed = rng.choice(values.shape[0], size=n_churn, replace=False)
    donors = rng.choice(values.shape[0], size=n_churn, replace=False)
    added = values[donors] * rng.uniform(0.9, 1.1, size=(n_churn, 1))
    delta = PopulationDelta(added=added, removed=tuple(int(i) for i in removed))

    engine = RevenueEngine(wtp, theta=theta, adoption=adoption)
    menu = [o.bundle for o in fits["components"].offers]
    menu += [o.bundle for o in fits["pure_matching"].offers if o.bundle.size > 1]
    pricer = IncrementalMenuPricer(engine, menu)
    pricer.apply(delta, delta.added_matrix(engine.wtp))
    fresh = RevenueEngine(delta.apply(engine.wtp), theta=theta, adoption=adoption)
    assert [pricer.price(b) for b in menu] == fresh.price_bundles(menu)


def test_step_model_counts_zero_wtp_users_at_positive_epsilon():
    """At ε > 0 a zero-WTP user's effective WTP is ε, so the step model
    sells to them at prices up to ε — on every path."""
    adoption = StepAdoption(epsilon=0.5)
    column = np.array([0.0] * 8 + [1.0, 2.0])
    prices, revenues, buyers = price_pure_batch(column[:, None], adoption)
    assert (prices[0], revenues[0], buyers[0]) == (0.5, 5.0, 10.0)
    assert triple(price_pure(column, adoption)) == (0.5, 5.0, 10.0)

    wtp = column[:, None]
    bundle = Bundle.singleton(0)
    scalar_first = RevenueEngine(wtp, adoption=adoption)
    alone = scalar_first.price_bundle(bundle)
    assert scalar_first.price_bundles([bundle]) == [alone]
    batch_first = RevenueEngine(wtp, adoption=adoption)
    assert batch_first.price_bundles([bundle]) == [alone]
    assert batch_first.price_bundle(bundle) == alone
    assert triple(alone) == (0.5, 5.0, 10.0)

    report = evaluate(PureConfiguration((alone,), 1), scalar_first, n_runs=0)
    assert report.buyers_per_offer[bundle] == 10.0
    assert report.expected_revenue == 5.0


def oracle_revenue(values) -> float:
    """Grid-free optimum: ``max (i+1)·v_i`` over values sorted descending."""
    ranked = sorted((float(v) for v in values), reverse=True)
    return max([0.0] + [(i + 1) * v for i, v in enumerate(ranked) if v > 0])


@settings(max_examples=200, deadline=None)
@given(
    ratings=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=60),
    unit=st.sampled_from([0.25, 1.0, 1.25, 3.75]),
)
def test_exact_grid_revenue_equals_oracle(ratings, unit):
    values = np.asarray(ratings, dtype=np.float64) * unit
    priced = price_pure(values, grid=PriceGrid(mode="exact"))
    assert priced.revenue == oracle_revenue(values)
