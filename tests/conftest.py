"""Shared fixtures: small deterministic datasets and engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pricing import PriceGrid
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings


@pytest.fixture(autouse=True)
def _reset_observability():
    """Metrics/tracing are process-global opt-ins; never leak across tests."""
    from repro import obs

    yield
    obs.disable_metrics()
    obs.disable_tracing()


@pytest.fixture(scope="session")
def small_dataset():
    """A seeded ratings dataset small enough for exhaustive checks."""
    return amazon_books_like(n_users=120, n_items=16, seed=7, avg_ratings_per_user=8,
                             min_ratings_per_user=4, kcore=3)


@pytest.fixture(scope="session")
def small_wtp(small_dataset):
    return wtp_from_ratings(small_dataset, conversion=1.25)


@pytest.fixture()
def small_engine(small_wtp):
    return RevenueEngine(small_wtp)


@pytest.fixture()
def exact_engine(small_wtp):
    return RevenueEngine(small_wtp, grid=PriceGrid(mode="exact"))


@pytest.fixture(scope="session")
def medium_dataset():
    """Mid-size dataset for algorithm behaviour tests."""
    return amazon_books_like(n_users=300, n_items=40, seed=11)


@pytest.fixture(scope="session")
def medium_wtp(medium_dataset):
    return wtp_from_ratings(medium_dataset, conversion=1.25)


@pytest.fixture()
def medium_engine(medium_wtp):
    return RevenueEngine(medium_wtp)


@pytest.fixture()
def handmade_wtp():
    """A tiny hand-written WTP matrix with known structure."""
    return WTPMatrix(
        np.array(
            [
                [10.0, 0.0, 4.0],
                [8.0, 6.0, 0.0],
                [0.0, 12.0, 5.0],
                [7.0, 7.0, 7.0],
            ]
        ),
        item_labels=("a", "b", "c"),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(123)
