"""Pair scans gather candidate columns from stacked parent rows.

Each scan stacks its parents' raw WTP into one row-major ``(n_parents, M)``
matrix and fills a block of candidates from its rows: a gather of the
second parents, then a broadcast add per run of equal first parents.
Pinned here, on continuous WTP where summation order shows in the last bit:

* the fill rule — every column a kernel receives is exactly
  ``(raw_sum(b1) + raw_sum(b2)) · (1+θ)``, and every state column exactly
  ``np.add(s1, s2, dtype=float64)``, for chunk budgets that split blocks;
* the reuse rule — the engine keeps only the previous scan's rows, and
  those never leak across :meth:`RevenueEngine.apply_delta` or into a
  scan over different parents.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.bundle import Bundle
from repro.core.choice import SubtreeState
from repro.core.delta import PopulationDelta
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix

THETA = 0.13
N_USERS, N_ITEMS = 300, 9


@pytest.fixture(scope="module")
def wtp():
    rng = np.random.default_rng(17)
    values = rng.lognormal(mean=1.0, sigma=0.7, size=(N_USERS, N_ITEMS))
    values[rng.random(values.shape) < 0.4] = 0.0
    return values


def parents(engine):
    """Singletons plus two multi-item bundles, priced."""
    bundles = [Bundle.singleton(i) for i in range(6)]
    bundles += [Bundle.of(6, 7), Bundle.of(8, 0, 3)]
    return engine.price_bundles(bundles)


def pairs_of(priced):
    """Every disjoint pair of *priced* offers."""
    return [
        (i, j)
        for i in range(len(priced))
        for j in range(i + 1, len(priced))
        if not priced[i].bundle.intersects(priced[j].bundle)
    ]


def merged_raw(wtp, first, second):
    """``raw_sum(b1) + raw_sum(b2)`` of two priced offers."""
    return wtp.raw_sum(first.bundle.items) + wtp.raw_sum(second.bundle.items)


def record_blocks(monkeypatch, name):
    """Replace ``kernels.<name>`` with a wrapper that copies each call's
    positional arguments before pricing."""
    calls = []
    original = getattr(kernels, name)

    def recording(*args, **kwargs):
        calls.append([np.array(arg, copy=True) for arg in args[: len(args) - 2]])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, name, recording)
    return calls


@pytest.mark.parametrize("budget", [None, N_USERS * 5, N_USERS])
def test_pure_columns_follow_the_fill_rule(monkeypatch, wtp, budget):
    engine = RevenueEngine(wtp, theta=THETA, chunk_elements=budget)
    priced = parents(engine)
    # Shuffled, so blocks mix first parents (the mixed test keeps them
    # grouped, as scans produce them).
    shuffled = np.random.default_rng(2).permutation(pairs_of(priced))
    pairs = [(int(i), int(j)) for i, j in shuffled]
    calls = record_blocks(monkeypatch, "price_pure_batch")
    engine.pure_merge_gains(priced, pairs)
    blocks = [call[0] for call in calls]
    if budget is not None:
        assert len(blocks) > 1
    columns = np.concatenate(blocks, axis=1)
    assert columns.shape == (N_USERS, len(pairs))
    for k, (i, j) in enumerate(pairs):
        want = merged_raw(engine.wtp, priced[i], priced[j]) * (1.0 + THETA)
        np.testing.assert_array_equal(columns[:, k], want)


@pytest.mark.parametrize("state_dtype", ["float64", "float32"])
@pytest.mark.parametrize("budget", [None, N_USERS * 9, N_USERS * 3])
def test_mixed_columns_follow_the_fill_rule(monkeypatch, wtp, budget, state_dtype):
    engine = RevenueEngine(
        wtp, theta=THETA, chunk_elements=budget, state_dtype=state_dtype
    )
    priced = parents(engine)
    states = engine.offer_states(priced)
    assert states.score.dtype == np.dtype(state_dtype)
    pairs = pairs_of(priced)
    calls = record_blocks(monkeypatch, "price_mixed_bundle_batch")
    engine.mixed_merge_gains(priced, states, pairs)
    if budget is not None:
        assert len(calls) > 1
    wtp_cols, score_cols, pay_cols = (
        np.concatenate([call[part] for call in calls], axis=1) for part in range(3)
    )
    floors, ceilings = (
        np.concatenate([call[part] for call in calls]) for part in (3, 4)
    )
    for k, (i, j) in enumerate(pairs):
        raw = merged_raw(engine.wtp, priced[i], priced[j])
        np.testing.assert_array_equal(wtp_cols[:, k], raw * (1.0 + THETA))
        np.testing.assert_array_equal(
            score_cols[:, k], np.add(states.score[i], states.score[j], dtype=np.float64)
        )
        np.testing.assert_array_equal(
            pay_cols[:, k], np.add(states.pay[i], states.pay[j], dtype=np.float64)
        )
        p1, p2 = priced[i].price, priced[j].price
        assert (floors[k], ceilings[k]) == (max(p1, p2), p1 + p2)


def mixed_results(engine, priced, pairs):
    merges = engine.mixed_merge_gains(priced, engine.offer_states(priced), pairs)
    return [(m.price, m.gain, m.upgraded, m.feasible) for m in merges]


def test_scan_after_apply_delta_matches_a_fresh_engine(wtp):
    """A scan after a delta must not reuse the pre-delta rows."""
    engine = RevenueEngine(wtp, theta=THETA)
    priced = parents(engine)
    pairs = pairs_of(priced)
    engine.pure_merge_gains(priced, pairs)  # stacks the pre-delta rows
    rng = np.random.default_rng(4)
    delta = PopulationDelta(removed=(0, 5, 17), added=rng.lognormal(size=(3, N_ITEMS)))
    engine.apply_delta(delta)
    fresh = RevenueEngine(delta.apply(WTPMatrix(wtp)), theta=THETA)
    priced, fresh_priced = parents(engine), parents(fresh)
    assert priced == fresh_priced
    gains, merged = engine.pure_merge_gains(priced, pairs)
    fresh_gains, fresh_merged = fresh.pure_merge_gains(fresh_priced, pairs)
    np.testing.assert_array_equal(gains, fresh_gains)
    assert merged == fresh_merged
    got = mixed_results(engine, priced, pairs)
    assert got == mixed_results(fresh, fresh_priced, pairs)


def test_engine_keeps_only_the_last_scan_rows(wtp):
    """Raw-WTP memory between scans is one stack, as tall as the most
    parents a scan has had, holding only the last scan's parents."""
    engine = RevenueEngine(wtp, theta=THETA)
    priced = parents(engine)
    engine.pure_merge_gains(priced, pairs_of(priced))
    row_of, rows = engine._rows
    assert rows.shape == (len(priced), N_USERS)
    engine.mixed_merge_gains(priced, engine.offer_states(priced), [(0, 1)])
    row_of, same_rows = engine._rows
    assert same_rows is rows
    assert set(row_of) == {priced[0].bundle, priced[1].bundle}
    for offer in priced[:2]:
        np.testing.assert_array_equal(
            rows[row_of[offer.bundle]], engine.raw_wtp(offer.bundle)
        )


def test_scan_results_survive_row_reuse(wtp):
    """Scans over shifting parent sets equal a fresh engine's scans."""
    engine = RevenueEngine(wtp, theta=THETA)
    priced = parents(engine)
    pairs = pairs_of(priced)
    engine.pure_merge_gains(priced, pairs[: len(pairs) // 2])
    # Reordered parents, one of them new: rows move and one is re-summed.
    merged = engine.price_bundle(Bundle.of(1, 2))
    shifted = [priced[5], merged, priced[0], priced[6], priced[7], priced[3]]
    shifted_pairs = pairs_of(shifted)
    got = mixed_results(engine, shifted, shifted_pairs)
    want = mixed_results(RevenueEngine(wtp, theta=THETA), shifted, shifted_pairs)
    assert got == want


def test_stacked_state_rows_round_trip():
    rows = [
        SubtreeState(np.arange(3.0), np.arange(3.0) + 1),
        SubtreeState(np.ones(3, dtype=np.float32), np.zeros(3, dtype=np.float32)),
    ]
    stacked = SubtreeState.stack(rows[1:])
    assert stacked.score.dtype == np.float32 and stacked.score.shape == (1, 3)
    np.testing.assert_array_equal(stacked[0].score, rows[1].score)
    both = SubtreeState.stack(rows)
    assert both.score.shape == (2, 3)
    np.testing.assert_array_equal((both[0] + both[1]).pay, [1.0, 2.0, 3.0])
