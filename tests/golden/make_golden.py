"""Regenerate the golden default-configuration snapshot.

Run from the repo root with ``PYTHONPATH=src python tests/golden/make_golden.py``.
The snapshot pins the exact (bit-identical) output of the four heuristics on
the default float64/linspace configuration; any refactor of the pricing path
must keep these numbers unchanged.

The snapshot's ``metadata`` block records the mixed-merge kernel that
produced it: ``"sorted"``, the step-histogram body that step adoption
always runs.  A level-by-user band scan accumulates per-user payments in a
different order (gains agree only to ~1e-9 relative), so changing the
kernel is an *intentional* behaviour change that requires regenerating
this file.
"""

import json
from pathlib import Path

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings
from repro.experiments.defaults import LAMBDA, default_engine

DATASETS = {
    "small": dict(n_users=200, n_items=40, seed=7),
    "medium": dict(n_users=400, n_items=60, seed=2),
}

METHODS = {
    "pure_matching": lambda: IterativeMatching(strategy="pure"),
    "pure_greedy": lambda: GreedyMerge(strategy="pure"),
    "mixed_matching": lambda: IterativeMatching(strategy="mixed"),
    "mixed_greedy": lambda: GreedyMerge(strategy="mixed"),
}


def snapshot() -> dict:
    datasets = {}
    for ds_name, kwargs in DATASETS.items():
        wtp = wtp_from_ratings(amazon_books_like(**kwargs), conversion=LAMBDA)
        per_method = {}
        for method, factory in METHODS.items():
            result = factory().fit(default_engine(wtp))
            offers = sorted(
                (sorted(o.bundle.items), o.price.hex(), o.revenue.hex())
                for o in result.configuration.offers
            )
            per_method[method] = {
                "revenue": result.expected_revenue.hex(),
                "offers": offers,
            }
        datasets[ds_name] = per_method
    return {
        "metadata": {
            "generator": "tests/golden/make_golden.py",
            "mixed_kernel": "sorted",
        },
        "datasets": datasets,
    }


if __name__ == "__main__":
    data = snapshot()
    path = Path(__file__).parent / "default_config.json"
    path.write_text(json.dumps(data, indent=1))
    print(f"wrote {path} (mixed_kernel={data['metadata']['mixed_kernel']})")
