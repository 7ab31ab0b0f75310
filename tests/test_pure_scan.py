"""The pure pair scan: histogram-kernel parity, memory and block layout.

Three contracts are pinned here:

* **bit parity** — the deterministic linspace branch of
  :func:`~repro.core.pricing.price_pure_batch` equals, bit for bit, a
  frozen copy of the histogram formula it replaced (:func:`oracle_prices`)
  on every input layout, dead and subnormal columns, biased adoption and
  ratings-like on-grid values;
* **cache-sized memory** — a streamed scan's peak allocation is bounded by
  :data:`~repro.core.kernels.SCAN_BLOCK_ELEMENTS`, not by
  ``chunk_elements``, and its result does not depend on either;
* **column-major blocks** — in-order and threaded scans hand ``fill``
  Fortran-ordered blocks, so each candidate column is contiguous.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.algorithms.components import Components
from repro.core.adoption import StepAdoption
from repro.core.evaluation import evaluate
from repro.core.kernels import SCAN_BLOCK_ELEMENTS, stream_pure_prices
from repro.core.pricing import DEFAULT_CHUNK_ELEMENTS, PriceGrid, price_pure_batch
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix


def oracle_prices(columns, adoption, n_levels):
    """Frozen reference: the per-column step histogram, written the old way.

    Affine pass, live-column copy, ``floor`` before the int64 cast, an
    integer clip, and one level-major ``bincount`` — kept verbatim so the
    leaner kernel is held to the same bits.
    """
    effective = adoption.alpha * columns + adoption.epsilon
    tops = effective.max(axis=0)
    n_bundles = columns.shape[1]
    prices, revenues, buyers = (np.zeros(n_bundles) for _ in range(3))
    live = tops > 0
    if not np.any(live):
        return prices, revenues, buyers
    eff_live = effective[:, live]
    step = tops[live] / n_levels
    with np.errstate(divide="ignore", invalid="ignore"):
        idx = np.floor(eff_live / step[None, :] + 1e-6).astype(np.int64)
    np.clip(idx, 0, n_levels, out=idx)
    n_cols = idx.shape[1]
    flat = idx * n_cols + np.arange(n_cols)[None, :]
    hist = np.bincount(flat.ravel(), minlength=(n_levels + 1) * n_cols)
    hist = hist.reshape(n_levels + 1, n_cols).astype(np.float64)
    buyers_levels = np.cumsum(hist[::-1, :], axis=0)[::-1, :][1:, :]
    levels = step[None, :] * np.arange(1, n_levels + 1)[:, None]
    revenue_levels = levels * buyers_levels
    best = np.argmax(revenue_levels, axis=0)
    take = np.arange(best.size)
    positive = revenue_levels[best, take] > 0
    where = np.flatnonzero(live)[positive]
    prices[where] = levels[best, take][positive]
    revenues[where] = revenue_levels[best, take][positive]
    buyers[where] = buyers_levels[best, take][positive]
    return prices, revenues, buyers


def assert_same_bits(actual, expected):
    for got, want in zip(actual, expected, strict=True):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


#: Ratings 0..5 at conversion 1.25: values that sit exactly on grid levels.
RATING_WTP = tuple(1.25 * rating for rating in range(6))

#: Subnormal values, including tops small enough that ``top / T`` is 0.
SUBNORMAL_WTP = (0.0, 5e-324, 1e-323, 1.5e-322, 2e-322, 4e-321, 1e-320, 1e-310)

COLUMN_KINDS = {
    "uniform": st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    "ratings": st.sampled_from(RATING_WTP),
    "subnormal": st.sampled_from(SUBNORMAL_WTP),
    "dead": st.just(0.0),
}

adoptions = st.one_of(
    st.just(StepAdoption()),
    st.builds(
        StepAdoption,
        alpha=st.floats(min_value=0.25, max_value=4.0),
        epsilon=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=5.0)),
    ),
)


@st.composite
def wtp_blocks(draw):
    """An ``(M, B)`` block whose columns mix the kinds of :data:`COLUMN_KINDS`."""
    n_users = draw(st.integers(min_value=1, max_value=24))
    kinds = draw(
        st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=8)
    )
    columns = [
        draw(arrays(np.float64, n_users, elements=COLUMN_KINDS[kind]))
        for kind in kinds
    ]
    return np.stack(columns, axis=1)


@given(
    block=wtp_blocks(),
    adoption=adoptions,
    n_levels=st.sampled_from((1, 3, 17, 100)),
    layout=st.sampled_from(("C", "F", "strided")),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_histogram_kernel_matches_frozen_oracle(
    block, adoption, n_levels, layout, data
):
    """Every layout, subset and permutation prices to the oracle's bits."""
    if layout == "C":
        columns = np.ascontiguousarray(block)
    elif layout == "F":
        columns = np.asfortranarray(block)
    else:
        # A non-contiguous view: every other column of a wider F-order block.
        wide = np.zeros((block.shape[0], 2 * block.shape[1]), order="F")
        wide[:, ::2] = block
        columns = wide[:, ::2]
    grid = PriceGrid(n_levels)
    before = columns.copy()
    whole = price_pure_batch(columns, adoption, grid)
    assert_same_bits(whole, oracle_prices(block, adoption, n_levels))
    assert np.array_equal(columns, before), "the kernel wrote into its input"

    order = data.draw(st.permutations(range(block.shape[1])))
    keep = data.draw(st.integers(min_value=1, max_value=block.shape[1]))
    picked = np.asarray(order[:keep])
    subset = price_pure_batch(columns[:, picked], adoption, grid)
    assert_same_bits(subset, tuple(part[picked] for part in whole))


def test_subnormal_tops_price_like_the_oracle():
    """Tops whose ``top / T`` underflows to 0 price as the oracle prices them.

    With ``step == 0`` a zero-WTP user's quotient is ``0 / 0 = nan``, which
    the cast turns into a negative integer.  Only the integer-domain clip
    after the cast brings it back to bucket 0; a float clip before the cast
    leaves the nan alone and ``bincount`` rejects the negative key.
    """
    block = np.array(
        [
            [5e-324, 1.5e-322, 2e-322, 1e-320, 0.0, 3.75],
            [1e-323, 0.0, 2e-322, 4e-321, 0.0, 5.0],
            [0.0, 5e-324, 0.0, 0.0, 0.0, 1.25],
        ]
    )
    assert np.any(block.max(axis=0)[:3] / 100 == 0.0)
    for adoption in (StepAdoption(), StepAdoption(alpha=2.0, epsilon=5e-324)):
        for columns in (block, np.asfortranarray(block)):
            assert_same_bits(
                price_pure_batch(columns, adoption, PriceGrid(100)),
                oracle_prices(block, adoption, 100),
            )
    engine = RevenueEngine(WTPMatrix(block))
    result = Components().fit(engine)
    recomputed = evaluate(result.configuration, engine, n_runs=0).expected_revenue
    assert abs(recomputed - result.expected_revenue) < 1e-9


# ------------------------------------------------------------ streamed scan
N_USERS, N_COLUMNS, N_PARENTS = 8000, 2000, 64


def pair_fill(seed=11):
    """A pure-merge style fill: column k is ``(raw[i] + raw[j]) · 1.1``."""
    rng = np.random.default_rng(seed)
    raw = 1.25 * rng.integers(0, 6, size=(N_PARENTS, N_USERS)).astype(np.float64)
    pairs = rng.integers(0, N_PARENTS, size=(N_COLUMNS, 2))

    def fill(block, start, stop):
        for offset in range(stop - start):
            i, j = pairs[start + offset]
            column = block[:, offset]
            np.add(raw[i], raw[j], out=column)
            column *= 1.1

    return fill


def test_stream_pure_prices_peak_memory_is_cache_sized():
    """8k users × 2k candidates at the default budget peak at a few MB.

    The default ``chunk_elements`` allows a 32 MB fill buffer; the scan
    caps its block at :data:`SCAN_BLOCK_ELEMENTS` instead.  Results equal
    a one-chunk scan (over a 256-column prefix, which keeps that scan's
    unbounded buffers small) and a one-column-per-chunk scan.
    """
    fill = pair_fill()
    args = (fill, N_COLUMNS, N_USERS, StepAdoption(), PriceGrid())
    tracemalloc.start()
    try:
        streamed = stream_pure_prices(*args, chunk_elements=DEFAULT_CHUNK_ELEMENTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"pure scan peaked at {peak / 2**20:.1f} MB"

    assert_same_bits(stream_pure_prices(*args, chunk_elements=1), streamed)
    prefix = 256
    unchunked = stream_pure_prices(
        fill, prefix, N_USERS, StepAdoption(), PriceGrid(), chunk_elements=None
    )
    assert_same_bits(unchunked, tuple(part[:prefix] for part in streamed))


def test_pure_scan_span_reports_block_width():
    """``scan.pure_prices`` carries the chunk width the scan really used."""
    fill = pair_fill()
    tracer = obs.enable_tracing()
    cases = (
        (DEFAULT_CHUNK_ELEMENTS, SCAN_BLOCK_ELEMENTS // N_USERS),
        (3 * N_USERS, 3),
        (None, 100),
    )
    for budget, width in cases:
        stream_pure_prices(
            fill, 100, N_USERS, StepAdoption(), PriceGrid(), chunk_elements=budget
        )
        event = tracer.events()[-1]
        assert event["name"] == "scan.pure_prices"
        assert event["width"] == width
        assert event["chunks"] == -(-100 // width)


def test_fill_blocks_are_column_major_on_every_executor():
    """In-order and threaded scans both fill F-ordered blocks."""
    layouts = []

    def fill(block, start, stop):
        layouts.append(block.flags.f_contiguous)
        block[:] = np.arange(block.shape[0])[:, None] + start

    for workers in (1, 2):
        stream_pure_prices(
            fill,
            40,
            500,
            StepAdoption(),
            PriceGrid(),
            chunk_elements=5000,
            n_workers=workers,
        )
    assert layouts and all(layouts)
