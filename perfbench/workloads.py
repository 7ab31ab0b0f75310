"""Workload definitions and the seeded inputs each one runs on.

Every workload runs the product's whole life cycle — fit a menu, serve
quotes over HTTP, absorb population churn — so each run reports every
end-to-end metric.  The workloads differ in the fit:

* ``fit_tall`` fits ``pure_matching`` on a tall population (many users,
  60 items), where the pure histogram pair scan dominates the fit and
  blossom matching is negligible;
* ``fit_wide`` fits ``mixed_matching`` on a wide population (few users,
  120 items), where the mixed sorted kernel and blossom matching split
  the fit and the pure kernel is bypassed.

Both serve the same menu recipe — ``mixed_matching`` fitted on a 60-item
population from the same generator — through one ``QuoteServer``, so
their serving figures are two samples of one measurement.  Every input
derives from the run's ``--seed``.
"""

from __future__ import annotations

import importlib.util
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Conversion factor from ratings to willingness to pay (the paper's λ).
CONVERSION = 1.25
#: Engine θ used by every fit in the benchmark.
THETA = 0.1
#: Churn per refit: drop this share of users and add as many new ones.
CHURN = 0.01
#: Open-loop arrival rate, requests per second: about half the
#: closed-loop throughput at two connections.
OPEN_RATE = 40.0


@dataclass(frozen=True)
class Workload:
    name: str
    fit_algorithm: str
    fit_users: int
    fit_items: int
    serve_users: int = 2000
    serve_items: int = 60
    held_out_users: int = 2000


WORKLOADS = {
    "fit_tall": Workload(
        name="fit_tall",
        fit_algorithm="pure_matching",
        fit_users=8000,
        fit_items=60,
    ),
    "fit_wide": Workload(
        name="fit_wide",
        fit_algorithm="mixed_matching",
        fit_users=500,
        fit_items=120,
    ),
}

#: Toy sizes for the smoke test: the same code paths in seconds.
SMOKE_SIZES = {
    "fit_tall": dict(fit_users=600, fit_items=30),
    "fit_wide": dict(fit_users=150, fit_items=40),
}
SMOKE_SERVE = dict(serve_users=300, serve_items=30, held_out_users=300)


def seeds(seed: int) -> dict[str, int]:
    """Independent sub-seeds for each input the run draws."""
    children = np.random.SeedSequence(seed).generate_state(4)
    return dict(
        zip(("fit_population", "serve_population", "requests", "deltas"), map(int, children))
    )


def generate_population(n_users: int, n_items: int, seed: int, timings: dict):
    """The synthetic Books-like WTP matrix, timing both data layers."""
    from repro.data.synthetic import amazon_books_like
    from repro.data.wtp_mapping import wtp_from_ratings

    started = time.perf_counter()
    dataset = amazon_books_like(n_users=n_users, n_items=n_items, seed=seed)
    generated = time.perf_counter()
    wtp = wtp_from_ratings(dataset, conversion=CONVERSION)
    done = time.perf_counter()
    timings["data.generate"] = timings.get("data.generate", 0.0) + generated - started
    timings["data.wtp_from_ratings"] = (
        timings.get("data.wtp_from_ratings", 0.0) + done - generated
    )
    return wtp


def churn_helpers():
    """``make_delta`` and ``check_warm_identity`` from the repo's churn gate."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "churn.py"
    spec = importlib.util.spec_from_file_location("repro_churn_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_delta, module.check_warm_identity


def cold_identical(warm_solution, new_wtp, check_warm_identity) -> bool:
    """True when a warm refit equals a cold re-price on *new_wtp*, bit for bit.

    Pure offers are re-priced alone (the churn gate's check).  Mixed offers
    keep their fitted prices, so the cold side re-evaluates the same menu
    through the choice forest on a freshly built engine.
    """
    from repro.core.evaluation import evaluate

    engine = warm_solution.engine_config.build(new_wtp)
    if warm_solution.strategy == "pure":
        return not check_warm_identity(warm_solution, engine)
    report = evaluate(warm_solution.configuration, engine, n_runs=0)
    buyers = report.buyers_per_offer
    return report.expected_revenue == warm_solution.expected_revenue and all(
        offer.buyers == buyers[offer.bundle]
        and offer.revenue == offer.price * buyers[offer.bundle]
        for offer in warm_solution.offers
    )
