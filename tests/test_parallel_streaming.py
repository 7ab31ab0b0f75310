"""Parallel streaming, deterministic summation, and column streaming.

Four invariants are pinned here:

* **parallel == serial** — fanning the chunk schedule out over worker
  threads must be *bit-identical* to the serial scan, for every adoption
  model and grid mode, because the schedule itself never depends on the
  worker count and chunks write disjoint output slices;
* **fixed-tree sums are chunk-stable** — the sigmoid/explicit
  float-accumulation paths reduce per-user values through
  :func:`~repro.core.pricing.tree_sum`, whose tree shape depends only on
  the user count, so those paths are now bit-identical under *any*
  ``chunk_elements`` (numpy's own pairwise blocking is not);
* **column streaming == dense** — the consumers ported off
  ``WTPMatrix.values`` (subset enumeration, transaction building, the
  list-price baseline) must reproduce their dense-matrix results from
  bounded column blocks;
* **no dense materialization** — no code path outside ``WTPMatrix``
  internals reads ``.values`` (grep-enforced).
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.algorithms.setpacking import enumerate_bundle_revenues
from repro.core.adoption import SigmoidAdoption
from repro.core.bundle import Bundle
from repro.core.choice import SubtreeState
from repro.core import faults
from repro.core.kernels import check_n_workers, run_chunks
from repro.core.pricing import tree_sum
from repro.core.revenue import RevenueEngine
from repro.data.wtp_mapping import list_price_revenue
from repro.errors import ValidationError
from repro.fim.transactions import TransactionDatabase

from test_kernels import ADOPTIONS, GRIDS, VALID_COMBOS, random_wtp


@pytest.fixture(scope="module")
def parity_wtp():
    return random_wtp(np.random.default_rng(77))


def worker_pair(wtp, adoption_key, grid_key, **kwargs):
    """(serial, 4-worker) engines over identical model settings.

    ``chunk_elements=256`` forces many narrow chunks at M=60, so the
    parallel engine genuinely interleaves workers.
    """
    make = lambda n_workers: RevenueEngine(
        wtp,
        adoption=ADOPTIONS[adoption_key],
        grid=GRIDS[grid_key](),
        chunk_elements=256,
        n_workers=n_workers,
        **kwargs,
    )
    return make(1), make(4)


# ------------------------------------------------------------ chunk executor
class TestRunChunks:
    @pytest.mark.parametrize("n_workers", [1, 3, 8])
    def test_processes_every_chunk_once(self, n_workers):
        out = np.zeros(23)

        def process(buffers, start, stop):
            out[start:stop] += np.arange(start, stop) + buffers[0]

        run_chunks(
            [(i, min(i + 5, 23)) for i in range(0, 23, 5)],
            make_buffers=lambda: (1.0,),
            process=process,
            n_workers=n_workers,
        )
        np.testing.assert_array_equal(out, np.arange(23) + 1.0)

    def test_worker_exceptions_propagate(self):
        def process(buffers, start, stop):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_chunks([(0, 1), (1, 2)], tuple, process, n_workers=2)

    def test_one_buffer_set_per_worker(self):
        allocated = []

        def make_buffers():
            allocated.append(object())
            return (allocated[-1],)

        run_chunks([(i, i + 1) for i in range(16)], make_buffers, lambda *a: None, 4)
        assert len(allocated) == 4

    def test_workers_capped_at_chunk_count(self, monkeypatch):
        """More workers than chunks never starts idle threads; one chunk
        runs in order without ever consulting the thread pool."""
        allocated = []

        def make_buffers():
            allocated.append(object())
            return (allocated[-1],)

        run_chunks([(0, 1), (1, 2)], make_buffers, lambda *a: None, 8)
        assert len(allocated) == 2
        monkeypatch.setenv(faults.FAULT_ENV, "thread_pool:always")
        run_chunks([(0, 1)], make_buffers, lambda *a: None, 8)
        assert len(allocated) == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, None])
    def test_rejects_bad_worker_counts(self, bad):
        with pytest.raises(ValidationError):
            check_n_workers(bad)

    def test_engine_validates_n_workers(self, parity_wtp):
        with pytest.raises(ValidationError):
            RevenueEngine(parity_wtp, n_workers=0)
        assert RevenueEngine(parity_wtp, n_workers=4).n_workers == 4


# ------------------------------------------------------------ parallel parity
class TestParallelParity:
    """n_workers ∈ {1, 4} must be bit-identical on every path."""

    @pytest.mark.parametrize("adoption_key,grid_key", VALID_COMBOS)
    def test_price_bundles(self, parity_wtp, adoption_key, grid_key):
        bundles = [Bundle.of(i) for i in range(parity_wtp.n_items)]
        bundles += [Bundle.of(i, (i + 1) % parity_wtp.n_items) for i in range(8)]
        serial, parallel = worker_pair(parity_wtp, adoption_key, grid_key)
        for g, w in zip(parallel.price_bundles(bundles), serial.price_bundles(bundles)):
            assert (g.price, g.revenue, g.buyers) == (w.price, w.revenue, w.buyers)

    @pytest.mark.parametrize("adoption_key,grid_key", VALID_COMBOS)
    def test_pure_merge_gains(self, parity_wtp, adoption_key, grid_key):
        serial, parallel = worker_pair(parity_wtp, adoption_key, grid_key)
        pairs = [
            (i, j)
            for i in range(parity_wtp.n_items)
            for j in range(i + 1, parity_wtp.n_items)
        ]
        gains_s, merged_s = serial.pure_merge_gains(serial.price_components(), pairs)
        gains_p, merged_p = parallel.pure_merge_gains(parallel.price_components(), pairs)
        np.testing.assert_array_equal(gains_p, gains_s)
        for g, w in zip(merged_p, merged_s):
            assert (g.price, g.revenue, g.buyers) == (w.price, w.revenue, w.buyers)

    @pytest.mark.parametrize("adoption_key", ["step", "sigmoid"])
    def test_mixed_merge_gains(self, parity_wtp, adoption_key):
        serial, parallel = worker_pair(parity_wtp, adoption_key, "linspace")
        results = []
        for engine in (serial, parallel):
            singles = engine.price_components()
            states = engine.offer_states(singles)
            pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
            results.append(engine.mixed_merge_gains(singles, states, pairs))
        for w, g in zip(*results):
            assert (g.price, g.gain, g.upgraded, g.feasible) == (
                w.price,
                w.gain,
                w.upgraded,
                w.feasible,
            )

    @pytest.mark.parametrize(
        "algo_factory",
        [
            lambda w: GreedyMerge(strategy="pure", n_workers=w),
            lambda w: GreedyMerge(strategy="mixed", n_workers=w),
            lambda w: IterativeMatching(strategy="pure", n_workers=w),
            lambda w: IterativeMatching(strategy="mixed", n_workers=w),
        ],
    )
    def test_end_to_end_bit_identical(self, small_wtp, algo_factory):
        chunk = small_wtp.n_users * 2  # two columns per chunk: many chunks
        serial = algo_factory(1).fit(RevenueEngine(small_wtp, chunk_elements=chunk))
        threaded = algo_factory(4).fit(RevenueEngine(small_wtp, chunk_elements=chunk))
        assert threaded.expected_revenue == serial.expected_revenue
        want = sorted(
            (tuple(o.bundle.items), o.price, o.revenue)
            for o in serial.configuration.offers
        )
        got = sorted(
            (tuple(o.bundle.items), o.price, o.revenue)
            for o in threaded.configuration.offers
        )
        assert got == want

    def test_algorithm_override_restores_engine_setting(self, small_wtp):
        engine = RevenueEngine(small_wtp, n_workers=1)
        GreedyMerge(strategy="pure", n_workers=4).fit(engine)
        assert engine.n_workers == 1


# ----------------------------------------------------- deterministic summation
class TestTreeSum:
    def test_matches_plain_sum(self, rng):
        values = rng.normal(size=(37, 11))
        np.testing.assert_allclose(
            tree_sum(values, axis=0), values.sum(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            tree_sum(values, axis=1), values.sum(axis=1), rtol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000])
    def test_invariant_to_other_axes(self, n, rng):
        """The reduction tree depends only on the axis length."""
        block = rng.uniform(0.0, 9.0, size=(n, 24))
        whole = tree_sum(block, axis=0)
        one_at_a_time = np.array(
            [tree_sum(np.ascontiguousarray(block[:, j : j + 1]), axis=0)[0] for j in range(24)]
        )
        np.testing.assert_array_equal(whole, one_at_a_time)
        chunked = np.concatenate(
            [tree_sum(np.ascontiguousarray(block[:, a : a + 7]), axis=0) for a in range(0, 24, 7)]
        )
        np.testing.assert_array_equal(whole, chunked)

    def test_empty_axis(self):
        assert tree_sum(np.empty((0, 4)), axis=0).tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("grid_key", ["linspace", "explicit"])
    def test_sigmoid_paths_bit_stable_under_chunking(self, parity_wtp, grid_key):
        """Sigmoid pricing is now *exactly* chunk-invariant (was: to ulps)."""
        bundles = [Bundle.of(i) for i in range(parity_wtp.n_items)] + [
            Bundle.of(0, 1),
            Bundle.of(2, 5, 8),
        ]
        results = []
        for chunk_elements in (193, 4096, None):
            engine = RevenueEngine(
                parity_wtp,
                adoption=SigmoidAdoption(gamma=2.0),
                grid=GRIDS[grid_key](),
                chunk_elements=chunk_elements,
            )
            results.append(engine.price_bundles(bundles))
        for priced in results[1:]:
            for g, w in zip(priced, results[0]):
                assert (g.price, g.revenue, g.buyers) == (w.price, w.revenue, w.buyers)

    def test_sigmoid_mixed_bit_stable_under_chunking(self, parity_wtp):
        results = []
        for chunk_elements in (151, None):
            engine = RevenueEngine(
                parity_wtp,
                adoption=SigmoidAdoption(gamma=2.0),
                chunk_elements=chunk_elements,
            )
            singles = engine.price_components()
            states = engine.offer_states(singles)
            pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]
            results.append(engine.mixed_merge_gains(singles, states, pairs))
        for g, w in zip(*results):
            assert (g.price, g.gain, g.upgraded, g.feasible) == (
                w.price,
                w.gain,
                w.upgraded,
                w.feasible,
            )


# ------------------------------------------------------------ column streaming
class TestIterColumns:
    def test_dense_blocks_are_views(self, parity_wtp):
        blocks = list(parity_wtp.iter_columns(None))
        assert len(blocks) == 1
        start, stop, block = blocks[0]
        assert (start, stop) == (0, parity_wtp.n_items)
        assert block.base is not None or block is parity_wtp.values

    def test_blocks_reassemble_matrix(self, parity_wtp):
        budget = parity_wtp.n_users * 5
        blocks = list(parity_wtp.iter_columns(budget))
        for start, stop, block in blocks:
            assert block.shape == (parity_wtp.n_users, stop - start)
            assert block.size <= budget
            assert not block.flags.writeable
        assembled = np.hstack([b for _, _, b in blocks])
        np.testing.assert_array_equal(assembled, np.asarray(parity_wtp.values))

    def test_budget_validation(self, parity_wtp):
        with pytest.raises(ValidationError):
            list(parity_wtp.iter_columns(0))


class TestColumnStreamedConsumers:
    def test_transactions_match_dense_reference(self, parity_wtp):
        reference = np.asarray(parity_wtp.values) > 0
        db = TransactionDatabase.from_wtp(
            parity_wtp, chunk_elements=parity_wtp.n_users * 3
        )
        assert db.n_transactions == parity_wtp.n_users
        for item in range(parity_wtp.n_items):
            np.testing.assert_array_equal(
                np.unpackbits(db.tidset(item), count=parity_wtp.n_users).astype(bool),
                reference[:, item],
            )

    def test_list_price_revenue_chunk_invariant(self, small_dataset, small_wtp):
        want = list_price_revenue(small_dataset, small_wtp)
        for chunk_elements in (small_wtp.n_users, small_wtp.n_users * 7, None):
            assert list_price_revenue(small_dataset, small_wtp, chunk_elements) == want

    def test_list_price_revenue_matches_dense_formula(self, small_dataset, small_wtp):
        values = np.asarray(small_wtp.values)
        prices = small_dataset.item_prices
        buyers = (values >= prices[None, :]) & (values > 0)
        want = float((buyers * prices[None, :]).sum())
        assert list_price_revenue(small_dataset, small_wtp) == pytest.approx(want)

    def test_enumeration_matches_across_budgets(self, parity_wtp):
        wtp = parity_wtp.subset_items(range(8))
        baseline = enumerate_bundle_revenues(RevenueEngine(wtp))
        streamed = enumerate_bundle_revenues(
            RevenueEngine(wtp, chunk_elements=wtp.n_users * 3)
        )
        for got, want in zip(streamed, baseline):
            np.testing.assert_allclose(got, want, rtol=1e-12)


# ------------------------------------------------------------- lean mixed state
class TestLeanMixedState:
    def test_astype_round_trip_and_nbytes(self):
        state = SubtreeState(np.zeros(16), np.ones(16))
        lean = state.astype(np.float32)
        assert lean.score.dtype == np.float32 and lean.pay.dtype == np.float32
        assert lean.nbytes == state.nbytes // 2
        assert state.astype(np.float64) is state

    def test_add_widens_float32_states(self):
        """`s1 + s2` must sum widened float64 values (the fill-path rule),
        so a merge selected by the scan is applied on identical bases."""
        rng = np.random.default_rng(11)
        s1 = SubtreeState(*(rng.uniform(0, 40, 64).astype(np.float32) for _ in range(2)))
        s2 = SubtreeState(*(rng.uniform(0, 40, 64).astype(np.float32) for _ in range(2)))
        combined = s1 + s2
        assert combined.score.dtype == np.float64
        np.testing.assert_array_equal(
            combined.score, s1.score.astype(np.float64) + s2.score.astype(np.float64)
        )
        np.testing.assert_array_equal(
            combined.pay, s1.pay.astype(np.float64) + s2.pay.astype(np.float64)
        )

    def test_batch_kernels_default_to_bounded_chunks(self):
        """Naive callers (no chunk_elements) must stay memory-bounded."""
        import inspect

        from repro.core.kernels import DEFAULT_CHUNK_ELEMENTS
        from repro.core.pricing import price_mixed_bundle_batch, price_pure_batch

        for fn in (price_pure_batch, price_mixed_bundle_batch):
            default = inspect.signature(fn).parameters["chunk_elements"].default
            assert default == DEFAULT_CHUNK_ELEMENTS

    def test_engine_states_use_configured_dtype(self, small_wtp):
        engine = RevenueEngine(small_wtp, state_dtype="float32")
        offer = engine.price_components()[0]
        state = engine.offer_state(offer)
        assert state.score.dtype == np.float32 and state.pay.dtype == np.float32

    def test_kernels_widen_float32_states_exactly(self, small_wtp):
        """The mixed fill must widen f32 states before summing them.

        ``np.add(f4, f4, out=f8)`` alone would sum in float32 and only cast
        the result; the engine forces the float64 loop with ``dtype=``.
        The check: a float32-state engine's merge scan must agree with a
        float64 engine whose states were *pre-rounded* to float32 — i.e.
        the only difference lean state introduces is the storage rounding
        itself, never extra arithmetic in half precision.
        """
        lean = RevenueEngine(small_wtp, state_dtype="float32")
        full = RevenueEngine(small_wtp)
        singles_lean = lean.price_components()
        singles_full = full.price_components()
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        states_lean = lean.offer_states(singles_lean)
        # float64 states holding exactly the float32-rounded values:
        states_widened = SubtreeState(
            states_lean.score.astype(np.float64), states_lean.pay.astype(np.float64)
        )
        got = lean.mixed_merge_gains(singles_lean, states_lean, pairs)
        want = full.mixed_merge_gains(singles_full, states_widened, pairs)
        for g, w in zip(got, want):
            assert (g.price, g.gain, g.upgraded, g.feasible) == (
                w.price,
                w.gain,
                w.upgraded,
                w.feasible,
            )

    def test_state_dtype_validation(self, small_wtp):
        with pytest.raises(ValidationError):
            RevenueEngine(small_wtp, state_dtype="float16")

    @pytest.mark.parametrize(
        "algo_factory",
        [lambda: IterativeMatching(strategy="mixed"), lambda: GreedyMerge(strategy="mixed")],
    )
    def test_mixed_results_close_to_float64(self, small_wtp, algo_factory):
        want = algo_factory().fit(RevenueEngine(small_wtp)).expected_revenue
        got = algo_factory().fit(
            RevenueEngine(small_wtp, state_dtype="float32")
        ).expected_revenue
        # float32 rounding of the base choice state can move knife-edge
        # upgrade decisions; revenue stays within a fraction of a percent.
        assert got == pytest.approx(want, rel=0.01)

    def test_float64_state_is_default_and_bit_identical(self, small_wtp):
        explicit = IterativeMatching(strategy="mixed").fit(
            RevenueEngine(small_wtp, state_dtype="float64")
        )
        default = IterativeMatching(strategy="mixed").fit(RevenueEngine(small_wtp))
        assert explicit.expected_revenue == default.expected_revenue


# --------------------------------------------------- no dense materialization
#: `.values` not followed by `(` — i.e. the WTPMatrix dense property, not
#: a dict's `.values()` call.
_VALUES_ACCESS = re.compile(r"\.values\b(?!\()")

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The only module allowed to touch the dense property: the storage itself.
_ALLOWED = {_SRC / "core" / "wtp.py"}


def test_no_values_materialization_outside_wtp_internals():
    """Grep-enforced: nothing outside WTPMatrix reads ``.values``.

    Every consumer must go through the bounded-memory contract —
    ``raw_sum`` / ``support_mask`` / ``column`` / ``iter_columns`` — so no
    code path can silently materialize the full M×N dense matrix.
    """
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        if path in _ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _VALUES_ACCESS.search(line):
                offenders.append(f"{path.relative_to(_SRC)}:{lineno}: {line.strip()}")
    assert not offenders, "dense .values access outside WTPMatrix:\n" + "\n".join(offenders)
