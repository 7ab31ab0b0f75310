"""Regenerate the continuous-WTP golden snapshot.

Run from the repo root with
``PYTHONPATH=src python tests/golden/make_continuous.py``.

``default_config.json`` pins the heuristics on ratings data.  Its WTP
values are not all on a coarse grid (most are not multiples of 0.25),
but most of its bundle sums happen to round the same way in either
order, so a change in the order a pair scan adds per-user values seldom
shows there.  This snapshot exists for data where it does: it pins the
same four heuristics on seeded lognormal WTP, where the last bit of
``raw(b1) + raw(b2)`` depends on the summation order, with θ = 0.13,
float64 and float32 mixed states, and two scan threads.
"""

import json
from pathlib import Path

import numpy as np

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.core.revenue import RevenueEngine

N_USERS = 700
N_ITEMS = 25
THETA = 0.13
SEED = 20260
STATE_DTYPES = ("float64", "float32")

METHODS = {
    "pure_matching": lambda: IterativeMatching(strategy="pure"),
    "pure_greedy": lambda: GreedyMerge(strategy="pure"),
    "mixed_matching": lambda: IterativeMatching(strategy="mixed"),
    "mixed_greedy": lambda: GreedyMerge(strategy="mixed"),
}


def continuous_wtp() -> np.ndarray:
    """Seeded lognormal WTP in five user segments.

    Each segment values its own fifth of the catalogue (70% non-zero) and
    rarely anything else (3% non-zero), so pure fits end in several
    bundles instead of one grand bundle.
    """
    rng = np.random.default_rng(SEED)
    values = rng.lognormal(mean=1.0, sigma=0.6, size=(N_USERS, N_ITEMS))
    segment = rng.integers(5, size=N_USERS)
    own = segment[:, None] == (np.arange(N_ITEMS) % 5)[None, :]
    values[rng.random((N_USERS, N_ITEMS)) < np.where(own, 0.3, 0.97)] = 0.0
    return values


def fit_record(wtp: np.ndarray, method: str, state_dtype: str, **engine_kwargs) -> dict:
    """Hex-float offers and revenue of one fit."""
    engine = RevenueEngine(
        wtp, theta=THETA, state_dtype=state_dtype, n_workers=2, **engine_kwargs
    )
    result = METHODS[method]().fit(engine)
    offers = sorted(
        (sorted(o.bundle.items), o.price.hex(), o.revenue.hex())
        for o in result.configuration.offers
    )
    return {
        "revenue": result.expected_revenue.hex(),
        "offers": [list(offer) for offer in offers],
    }


def snapshot() -> dict:
    wtp = continuous_wtp()
    return {
        "metadata": {
            "generator": "tests/golden/make_continuous.py",
            "n_users": N_USERS,
            "n_items": N_ITEMS,
            "theta": THETA,
            "seed": SEED,
        },
        "fits": {
            state_dtype: {
                method: fit_record(wtp, method, state_dtype) for method in METHODS
            }
            for state_dtype in STATE_DTYPES
        },
    }


if __name__ == "__main__":
    path = Path(__file__).parent / "continuous.json"
    path.write_text(json.dumps(snapshot(), indent=1))
    print(f"wrote {path}")
