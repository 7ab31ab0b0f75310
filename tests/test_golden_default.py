"""Bit-identity of the default configuration against the golden snapshot.

``tests/golden/default_config.json`` pins the exact output — prices,
revenues, and selected bundles, as float hex — of the four heuristics on
the default float64/linspace configuration.  The streaming kernels,
incremental raw-WTP assembly, bit-packed co-support, and bincount histogram
are all required to leave these results bit-for-bit unchanged; this test
catches any silent numeric drift in the hot path.

The snapshot's ``metadata.mixed_kernel`` names the mixed-merge kernel that
produced it: ``"sorted"``, the step-histogram body step adoption always
runs.  A level-by-user band scan accumulates payments in a different
order, so its gains differ at ~1e-9 relative and its merge choices can
differ on knife-edge ties.

Regenerate (only after an *intentional* behaviour change) with::

    PYTHONPATH=src python tests/golden/make_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings
from repro.experiments.defaults import LAMBDA, default_engine

GOLDEN_PATH = Path(__file__).parent / "golden" / "default_config.json"

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

#: Engine variants that must all reproduce the golden snapshot bit-for-bit.
#: ``parallel`` caps the chunk budget at 400 columns per chunk (so every
#: scan really runs many chunks across 4 worker threads) — the parallel
#: streaming layer must not move a single bit relative to the serial,
#: default-chunked engine.
ENGINES = {
    "default": lambda wtp: default_engine(wtp),
    "parallel": lambda wtp: default_engine(
        wtp, n_workers=4, chunk_elements=wtp.n_users * 400
    ),
}


@pytest.fixture(scope="module")
def snapshot():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden(snapshot):
    return snapshot["datasets"]


@pytest.fixture(scope="module")
def wtp_matrices():
    return {
        name: wtp_from_ratings(amazon_books_like(**kwargs), conversion=LAMBDA)
        for name, kwargs in DATASETS.items()
    }


def test_snapshot_metadata_matches_default_kernel(snapshot, wtp_matrices):
    """The snapshot was produced by the step-histogram kernel, which every
    step-adoption engine runs."""
    engine = ENGINES["default"](wtp_matrices["small"])
    assert engine.adoption.is_deterministic
    assert snapshot["metadata"]["mixed_kernel"] == "sorted"


@pytest.mark.parametrize("engine_variant", list(ENGINES))
@pytest.mark.parametrize("dataset", list(DATASETS))
@pytest.mark.parametrize("method", list(METHODS))
def test_default_configuration_is_bit_identical(
    golden, wtp_matrices, dataset, method, engine_variant
):
    engine = ENGINES[engine_variant](wtp_matrices[dataset])
    result = METHODS[method]().fit(engine)
    offers = sorted(
        (sorted(o.bundle.items), o.price.hex(), o.revenue.hex())
        for o in result.configuration.offers
    )
    want = golden[dataset][method]
    assert result.expected_revenue.hex() == want["revenue"], (
        f"expected revenue {float.fromhex(want['revenue'])!r}, "
        f"got {result.expected_revenue!r}"
    )
    assert [list(o) for o in offers] == [
        [w[0], w[1], w[2]] for w in want["offers"]
    ]
