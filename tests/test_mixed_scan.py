"""The mixed pair scan: exact oracle, memory and block layout.

Three contracts are pinned here:

* **exact pricing** — :func:`~repro.core.pricing.price_mixed_bundle_batch`
  under step adoption (its step-histogram body) agrees with a small oracle
  that tests every level's upgrade set with the same float threshold
  (``margin >= level - DECISION_RTOL * (1 + |level|)``) and sums payments
  exactly with :class:`fractions.Fraction`: feasibility, per-level upgrade
  counts and ``upgraded`` match exactly; the chosen
  price's exact gain is within ``1e-12 * (1 + sum(pay))`` of the exact
  maximum, and so is ``gain``; where distinct gains are further apart than
  that bound, the price is the lowest level within it, and exact ties go
  to the lowest level;
* **cache-sized memory** — a streamed scan's peak allocation is bounded by
  :data:`~repro.core.kernels.SCAN_BLOCK_ELEMENTS`, not by
  ``chunk_elements``, and its result does not depend on either;
* **column-major blocks** — in-order and threaded scans hand the block
  ``fill`` Fortran-ordered buffers, so every candidate column is
  contiguous.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import obs
from repro.core.adoption import DECISION_RTOL, StepAdoption
from repro.core.kernels import SCAN_BLOCK_ELEMENTS, stream_mixed_merges
from repro.core.pricing import (
    DEFAULT_CHUNK_ELEMENTS,
    PriceGrid,
    price_mixed_bundle_batch,
)


def oracle_column(wtp, score, pay, floor, ceiling, adoption, n_levels):
    """Exact reference pricing of one candidate column.

    Returns ``None`` when no grid level lies strictly inside
    ``(floor, ceiling)``; otherwise ``(levels, counts, exact_gains, band,
    tolerance)`` over the whole grid, with ``band`` the Guiltinan mask and
    ``tolerance`` the ``1e-12 * (1 + sum(pay))`` bound on gains.
    """
    if adoption.alpha == 1.0 and adoption.epsilon == 0.0:
        effective = wtp
    else:
        effective = adoption.alpha * wtp + adoption.epsilon
    top = effective.max()
    if not top > 0:
        return None
    levels = (top / n_levels) * np.arange(1, n_levels + 1, dtype=np.float64)
    band = (levels > floor) & (levels < ceiling)
    if not band.any():
        return None
    compare = levels - DECISION_RTOL * (1.0 + np.abs(levels))
    margin = np.where(wtp > 0, effective - score, -np.inf)
    # The upgrade set at a level is {margin >= compare}: with users by
    # descending margin, it is the first `count` of them.
    order = np.argsort(-margin, kind="stable")
    counts = np.array([int(np.count_nonzero(margin >= c)) for c in compare])
    paid = [Fraction(0)]
    for user in order:
        paid.append(paid[-1] + Fraction(float(pay[user])))
    gains = [Fraction(float(lv)) * int(n) - paid[n] for lv, n in zip(levels, counts)]
    tolerance = Fraction(1e-12) * (1 + sum(Fraction(float(v)) for v in pay))
    return levels, counts, gains, band, tolerance


def check_against_oracle(block, result, adoption, n_levels):
    """Assert every column of *result* against :func:`oracle_column`.

    Returns the oracle's answer per column (``None`` where infeasible).
    """
    wtp, score, pay, floors, ceilings = block
    prices, gains, upgraded, feasible = result
    references = []
    for k in range(wtp.shape[1]):
        reference = oracle_column(
            wtp[:, k],
            score[:, k],
            pay[:, k],
            floors[k],
            ceilings[k],
            adoption,
            n_levels,
        )
        references.append(reference)
        assert feasible[k] == (reference is not None)
        if reference is None:
            assert (prices[k], gains[k], upgraded[k]) == (0.0, -np.inf, 0.0)
            continue
        levels, counts, exact, band, tolerance = reference
        inside = np.flatnonzero(band)
        best = max(exact[t] for t in inside)
        chosen = inside[levels[inside] == prices[k]][0]
        assert best - exact[chosen] <= tolerance
        assert upgraded[k] == counts[chosen]
        assert abs(Fraction(float(gains[k])) - best) <= tolerance
        # Where distinct gains are told apart by more than the tolerance
        # (not on tops so small that neighbouring levels' gains differ by
        # less), the choice is the lowest level within it of the maximum.
        distinct = sorted(set(exact[t] for t in inside))
        if all(b - a > 2 * tolerance for a, b in zip(distinct, distinct[1:])):
            assert chosen == next(t for t in inside if best - exact[t] <= tolerance)
    return references


def check_every_level(block, references, adoption, n_levels):
    """Read every per-level count out of the kernel and check it.

    Each column whose levels ascend strictly (not a top so small that
    ``top / T`` underflows) is repeated once per grid level, with an
    interval admitting exactly that level; columns are independent, so the
    kernel's ``upgraded`` and ``gain`` are then that level's count and gain.
    """
    wtp, score, pay, _, _ = block
    for k, reference in enumerate(references):
        if reference is None:
            continue
        levels, counts, exact, _, tolerance = reference
        if not (levels[0] > 0 and np.all(np.diff(levels) > 0)):
            continue
        repeat = np.full(n_levels, k)
        floors = np.concatenate(([-np.inf], levels[:-1]))
        ceilings = np.concatenate((levels[1:], [np.inf]))
        prices, gains, upgraded, feasible = price_mixed_bundle_batch(
            wtp[:, repeat],
            score[:, repeat],
            pay[:, repeat],
            floors,
            ceilings,
            adoption,
            PriceGrid(n_levels),
        )
        assert feasible.all()
        assert np.array_equal(prices, levels)
        assert np.array_equal(upgraded, counts)
        for gain, want in zip(gains, exact):
            assert abs(Fraction(float(gain)) - want) <= tolerance


def assert_same_bits(actual, expected):
    for got, want in zip(actual, expected, strict=True):
        assert got.dtype == want.dtype
        if got.dtype == np.float64:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert np.array_equal(got, want)


# ---------------------------------------------------------------- inputs
#: Ratings 0..5 at conversion 1.25: WTP, scores and margins on grid levels.
RATING_WTP = tuple(1.25 * rating for rating in range(6))

COLUMN_KINDS = {
    "uniform": st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    "ratings": st.sampled_from(RATING_WTP),
    "sparse": st.sampled_from((0.0, 0.0, 0.0, 2.5, 3.75, 17.3)),
    # Tops near 1e-8: the DECISION_RTOL slack (>= 1e-9) spans several levels.
    "tiny": st.floats(min_value=0.0, max_value=3e-8, allow_nan=False),
    "dead": st.just(0.0),
}

SCORE_KINDS = {
    "uniform": st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
    "ratings": st.sampled_from(tuple(1.25 * n for n in range(9))),
    "tiny": st.floats(min_value=0.0, max_value=2e-8, allow_nan=False),
    "negative": st.floats(min_value=-3.0, max_value=0.0, allow_nan=False),
}

PAYS = st.one_of(
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.sampled_from(tuple(1.25 * n for n in range(9))),
)

adoptions = st.one_of(
    st.just(StepAdoption()),
    st.builds(
        StepAdoption,
        alpha=st.floats(min_value=0.25, max_value=4.0),
        epsilon=st.floats(min_value=1e-9, max_value=5.0),
    ),
)


@st.composite
def mixed_blocks(draw):
    """``(wtp, score, pay, floors, ceilings)`` over a few kinds of column."""
    n_users = draw(st.integers(min_value=1, max_value=20))
    n_pairs = draw(st.integers(min_value=1, max_value=6))
    wtp, score, pay, floors, ceilings = [], [], [], [], []
    for _ in range(n_pairs):
        kind = draw(st.sampled_from(sorted(COLUMN_KINDS)))
        column = draw(arrays(np.float64, n_users, elements=COLUMN_KINDS[kind]))
        if kind == "tiny":
            score_kind = "tiny"
        else:
            score_kind = draw(st.sampled_from(sorted(SCORE_KINDS)))
        wtp.append(column)
        score.append(
            draw(arrays(np.float64, n_users, elements=SCORE_KINDS[score_kind]))
        )
        pay.append(draw(arrays(np.float64, n_users, elements=PAYS)))
        # Interval ends as fractions of the column's top: inside, above the
        # grid, and inverted or empty intervals all occur.
        top = max(float(column.max()), 1e-12)
        low = draw(st.floats(min_value=-0.1, max_value=1.2)) * top
        floors.append(low)
        ceilings.append(low + draw(st.floats(min_value=-0.2, max_value=1.5)) * top)
    return (
        np.stack(wtp, axis=1),
        np.stack(score, axis=1),
        np.stack(pay, axis=1),
        np.asarray(floors),
        np.asarray(ceilings),
    )


@given(
    block=mixed_blocks(),
    adoption=adoptions,
    n_levels=st.sampled_from((1, 3, 17, 100)),
    layout=st.sampled_from(("C", "F")),
    lean_state=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_histogram_kernel_matches_exact_oracle(
    block, adoption, n_levels, layout, lean_state, data
):
    """Feasibility, counts, prices and gains against the exact oracle."""
    wtp, score, pay, floors, ceilings = block
    if lean_state:
        # float32 subtree states, widened to float64 before pricing.
        score = score.astype(np.float32).astype(np.float64)
        pay = pay.astype(np.float32).astype(np.float64)
    columns = tuple(np.asarray(part, order=layout) for part in (wtp, score, pay))
    block = (*columns, floors, ceilings)
    grid = PriceGrid(n_levels)
    before = [part.copy() for part in block]
    result = price_mixed_bundle_batch(*block, adoption, grid)
    assert all(np.array_equal(a, b) for a, b in zip(block, before))
    references = check_against_oracle(block, result, adoption, n_levels)
    check_every_level(block, references, adoption, n_levels)
    if lean_state:
        # The kernel widens float32 states itself, to the same bits.
        narrow = (
            wtp,
            score.astype(np.float32),
            pay.astype(np.float32),
            floors,
            ceilings,
        )
        assert_same_bits(price_mixed_bundle_batch(*narrow, adoption, grid), result)

    # Columns are independent: any subset, in any order, prices the same.
    n_pairs = wtp.shape[1]
    permutation = data.draw(st.permutations(range(n_pairs)))
    keep = np.asarray(permutation[: data.draw(st.integers(1, n_pairs))])
    subset = price_mixed_bundle_batch(
        wtp[:, keep],
        score[:, keep],
        pay[:, keep],
        floors[keep],
        ceilings[keep],
        adoption,
        grid,
    )
    assert_same_bits(subset, tuple(part[keep] for part in result))


def test_exact_ties_go_to_the_lowest_level():
    """Gains that tie exactly (dyadic values, no rounding) pick the lowest
    level: here levels 2 and 4 both earn 3, and an empty band earns 0."""
    wtp = np.array([[8.0, 8.0], [2.0, 2.0]])
    score = np.array([[4.0, 100.0], [0.0, 100.0]])
    pay = np.array([[1.0, 1.0], [0.0, 0.0]])
    prices, gains, upgraded, feasible = price_mixed_bundle_batch(
        wtp,
        score,
        pay,
        np.array([0.0, 3.0]),
        np.array([9.0, 9.0]),
        StepAdoption(),
        PriceGrid(4),
    )
    assert feasible.all()
    assert prices.tolist() == [2.0, 4.0]
    assert gains.tolist() == [3.0, 0.0]
    assert upgraded.tolist() == [2.0, 0.0]


def test_tiny_top_buckets_need_several_corrections():
    """A top near 1e-8 puts the slack over ten levels, so the float
    estimate ``margin / step`` undershoots the exact bucket by several
    levels; the kernel must still count every user at the oracle's levels.
    """
    n_levels = 100
    top = 1e-8
    step = top / n_levels
    wtp = np.array([top, 0.4 * top, 0.25 * top, 0.5 * top, 0.0, 0.9 * top])
    score = np.array([0.0, 0.0, 1e-9, 0.0, 0.0, 5e-9])
    pay = np.array([1e-9, 0.0, 2e-9, 3e-9, 4e-9, 0.0])
    margin = np.where(wtp > 0, wtp - score, -np.inf)
    levels = step * np.arange(1, n_levels + 1, dtype=np.float64)
    compare = levels - DECISION_RTOL * (1.0 + np.abs(levels))
    exact_buckets = np.searchsorted(compare, margin, side="right")
    estimate = np.nan_to_num(np.floor(margin / step), neginf=0.0)
    assert np.max(exact_buckets - np.clip(estimate, 0, n_levels)) >= 5
    intervals = ((0.0, 2 * top), (0.3 * top, 0.7 * top), (0.95 * top, 2 * top))
    for floor, ceiling in intervals:
        block = (
            wtp[:, None],
            score[:, None],
            pay[:, None],
            np.array([floor]),
            np.array([ceiling]),
        )
        result = price_mixed_bundle_batch(*block, StepAdoption(), PriceGrid(n_levels))
        references = check_against_oracle(block, result, StepAdoption(), n_levels)
        check_every_level(block, references, StepAdoption(), n_levels)
    counts = references[0][1]
    expected = [np.count_nonzero(exact_buckets >= t) for t in range(1, n_levels + 1)]
    assert counts.tolist() == expected


# ------------------------------------------------------------ streamed scan
N_USERS, N_PAIRS, N_PARENTS = 8000, 2000, 64


def pair_fill(seed=5):
    """A mixed-merge style block fill over ratings-like parent rows.

    Column ``k`` is ``raw[i] + raw[j]`` with base score and payment summed
    from the two parents; the interval is ``(max(p_i, p_j), p_i + p_j)``.
    Each block is filled by row gathers, as the engine's scans do.
    """
    rng = np.random.default_rng(seed)
    raw = 1.25 * rng.integers(0, 6, size=(N_PARENTS, N_USERS)).astype(np.float64)
    raw[rng.random(raw.shape) < 0.7] = 0.0
    parent_prices = rng.choice(np.array(RATING_WTP[1:]), size=N_PARENTS)
    buys = raw >= parent_prices[:, None]
    score = np.where(buys, raw - parent_prices[:, None], 0.0)
    pay = np.where(buys, parent_prices[:, None], 0.0)
    pairs = rng.integers(0, N_PARENTS, size=(N_PAIRS, 2))

    def fill(wtp_block, score_block, pay_block, start, stop):
        i, j = pairs[start:stop].T
        for rows, block in ((raw, wtp_block), (score, score_block), (pay, pay_block)):
            np.add(np.take(rows, i, axis=0), np.take(rows, j, axis=0), out=block.T)
        first, second = parent_prices[i], parent_prices[j]
        return np.maximum(first, second), first + second

    return fill


def test_stream_mixed_merges_peak_memory_is_cache_sized():
    """8k users × 2k pairs at the default budget peak at a few MB.

    The default ``chunk_elements`` let the three fill buffers take 32 MB;
    the scan now caps their block at :data:`SCAN_BLOCK_ELEMENTS`.  Results
    equal a one-pair-per-chunk scan and a one-chunk scan (over a 64-pair
    prefix, which keeps that scan's unbounded buffers small).
    """
    fill = pair_fill()
    args = (fill, N_PAIRS, N_USERS, StepAdoption(), PriceGrid())
    tracemalloc.start()
    try:
        streamed = stream_mixed_merges(*args, chunk_elements=DEFAULT_CHUNK_ELEMENTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"mixed scan peaked at {peak / 2**20:.1f} MB"
    assert streamed[3].sum() > N_PAIRS // 2  # most intervals are feasible

    assert_same_bits(stream_mixed_merges(*args, chunk_elements=1), streamed)
    prefix = 64
    unchunked = stream_mixed_merges(
        fill,
        prefix,
        N_USERS,
        StepAdoption(),
        PriceGrid(),
        chunk_elements=None,
    )
    assert_same_bits(unchunked, tuple(part[:prefix] for part in streamed))


def test_mixed_scan_span_reports_block_width():
    """``scan.mixed_merges`` carries the chunk width the scan really used."""
    fill = pair_fill()
    tracer = obs.enable_tracing()
    cases = (
        (DEFAULT_CHUNK_ELEMENTS, SCAN_BLOCK_ELEMENTS // (3 * N_USERS)),
        (9 * N_USERS, 3),
        (None, 40),
    )
    for budget, width in cases:
        stream_mixed_merges(
            fill,
            40,
            N_USERS,
            StepAdoption(),
            PriceGrid(),
            chunk_elements=budget,
        )
        event = tracer.events()[-1]
        assert event["name"] == "scan.mixed_merges"
        assert event["width"] == width
        assert event["chunks"] == -(-40 // width)


def test_fill_columns_are_contiguous_on_every_executor():
    """In-order and threaded scans both fill column-major buffers."""
    layouts = []

    def fill(wtp_block, score_block, pay_block, start, stop):
        blocks = (wtp_block, score_block, pay_block)
        layouts.append(all(block.flags.f_contiguous for block in blocks))
        columns = np.arange(start, stop)
        wtp_block[:] = np.arange(wtp_block.shape[0])[:, None] % 7 + columns
        score_block[:] = 1.0
        pay_block[:] = 2.0
        return np.full(stop - start, 3.0), np.full(stop - start, 9.0)

    for workers in (1, 2):
        stream_mixed_merges(
            fill,
            40,
            500,
            StepAdoption(),
            PriceGrid(),
            chunk_elements=15000,
            n_workers=workers,
        )
    assert layouts and all(layouts)
