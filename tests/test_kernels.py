"""Parity tests for the streaming kernel subsystem.

Two invariants are pinned here:

* **chunked == unchunked** — streaming the pair scans through bounded
  buffers must be *bit-identical* to the one-giant-stack formulation, for
  both pure and mixed pricing, across adoption models and grid modes;
* **packed == dense** — bit-packed co-support must emit exactly the pair
  list (and order) of the dense boolean-stack reference.
"""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.core.adoption import SigmoidAdoption, StepAdoption
from repro.core.bundle import Bundle
from repro.core.kernels import (
    chunk_width,
    stream_pure_prices,
)
from repro.core.pricing import PriceGrid, price_pure, price_pure_batch
from repro.core.revenue import RevenueEngine
from repro.core.support import (
    bundle_support_bits,
    co_supported_pairs_packed,
    item_support_bits,
    masks_intersect,
    pack_mask,
    supported_count,
    unpack_mask,
)
from repro.core.wtp import WTPMatrix
from repro.errors import ValidationError


def random_wtp(rng, n_users=60, n_items=12, density=0.4) -> WTPMatrix:
    """A sparse-ish random WTP matrix with plenty of exact zeros."""
    values = rng.uniform(1.0, 20.0, size=(n_users, n_items))
    values[rng.random((n_users, n_items)) > density] = 0.0
    # Keep every column supported so all singletons price positively.
    for item in range(n_items):
        if not (values[:, item] > 0).any():
            values[rng.integers(n_users), item] = 5.0
    return WTPMatrix(values)


ADOPTIONS = {
    "step": StepAdoption(),
    "step_biased": StepAdoption(alpha=1.1, epsilon=1e-6),
    "sigmoid": SigmoidAdoption(gamma=2.0),
}

GRIDS = {
    "linspace": lambda: PriceGrid(n_levels=50),
    "exact": lambda: PriceGrid(mode="exact"),
    "explicit": lambda: PriceGrid(levels=np.linspace(0.5, 40.0, 37)),
}

#: The exact grid requires deterministic adoption.
VALID_COMBOS = [
    (a, g)
    for a in ADOPTIONS
    for g in GRIDS
    if not (g == "exact" and a == "sigmoid")
]


@pytest.fixture(scope="module")
def parity_wtp():
    return random_wtp(np.random.default_rng(42))


def engine_pair(wtp, adoption_key, grid_key, **kwargs):
    """(chunked, unchunked) engines over identical model settings."""
    chunked = RevenueEngine(
        wtp,
        adoption=ADOPTIONS[adoption_key],
        grid=GRIDS[grid_key](),
        chunk_elements=256,  # forces many small chunks at M=60
        **kwargs,
    )
    unchunked = RevenueEngine(
        wtp,
        adoption=ADOPTIONS[adoption_key],
        grid=GRIDS[grid_key](),
        chunk_elements=None,
        **kwargs,
    )
    return chunked, unchunked


class TestChunkedPurePricing:
    # Deterministic paths count integer adopters (exact under any chunking);
    # sigmoid paths *sum probabilities* over users, and numpy's reduction
    # order over a (levels, users, columns) block depends on the block
    # width — so those are chunk-invariant only to accumulation-order ulps.
    @pytest.mark.parametrize("adoption_key,grid_key", VALID_COMBOS)
    def test_price_bundles_chunk_invariant(self, parity_wtp, adoption_key, grid_key):
        bundles = [Bundle.of(i) for i in range(parity_wtp.n_items)]
        bundles += [Bundle.of(i, (i + 1) % parity_wtp.n_items) for i in range(8)]
        chunked, unchunked = engine_pair(parity_wtp, adoption_key, grid_key)
        got = chunked.price_bundles(bundles)
        want = unchunked.price_bundles(bundles)
        exact = ADOPTIONS[adoption_key].is_deterministic
        for g, w in zip(got, want):
            if exact:
                assert (g.price, g.revenue, g.buyers) == (w.price, w.revenue, w.buyers)
            else:
                assert g.price == pytest.approx(w.price, rel=1e-12)
                assert g.revenue == pytest.approx(w.revenue, rel=1e-12)
                assert g.buyers == pytest.approx(w.buyers, rel=1e-12)

    @pytest.mark.parametrize("adoption_key,grid_key", VALID_COMBOS)
    def test_pure_merge_gains_chunk_invariant(self, parity_wtp, adoption_key, grid_key):
        chunked, unchunked = engine_pair(parity_wtp, adoption_key, grid_key)
        singles_c = chunked.price_components()
        singles_u = unchunked.price_components()
        pairs = [
            (i, j)
            for i in range(parity_wtp.n_items)
            for j in range(i + 1, parity_wtp.n_items)
        ]
        gains_c, merged_c = chunked.pure_merge_gains(singles_c, pairs)
        gains_u, merged_u = unchunked.pure_merge_gains(singles_u, pairs)
        if ADOPTIONS[adoption_key].is_deterministic:
            np.testing.assert_array_equal(gains_c, gains_u)
            for g, w in zip(merged_c, merged_u):
                assert (g.price, g.revenue, g.buyers) == (w.price, w.revenue, w.buyers)
        else:
            np.testing.assert_allclose(gains_c, gains_u, rtol=1e-12, atol=1e-9)
            for g, w in zip(merged_c, merged_u):
                assert g.revenue == pytest.approx(w.revenue, rel=1e-12)

    def test_stream_pure_prices_matches_stack(self, parity_wtp):
        columns = np.asarray(parity_wtp.values)
        adoption, grid = StepAdoption(), PriceGrid(n_levels=40)

        def fill(block, start, stop):
            block[:] = columns[:, start:stop]

        streamed = stream_pure_prices(
            fill, columns.shape[1], columns.shape[0], adoption, grid, chunk_elements=200
        )
        stacked = price_pure_batch(columns, adoption, grid)
        for got, want in zip(streamed, stacked):
            np.testing.assert_array_equal(got, want)

    def test_chunk_width_budget(self):
        assert chunk_width(100, 10, 50) == 5
        assert chunk_width(100, 1000, 50) == 1  # at least one column
        assert chunk_width(100, 10, None) == 100  # unbounded
        assert chunk_width(0, 10, 50) == 1

    def test_chunk_width_divides_budget_across_buffers(self):
        # A scan filling n_buffers per-column arrays gets narrower chunks,
        # so the *combined* allocation honours the budget.
        assert chunk_width(100, 10, 60, n_buffers=3) == 2
        assert chunk_width(100, 10, 60, n_buffers=1) == 6
        assert chunk_width(100, 10, None, n_buffers=3) == 100  # unbounded
        assert chunk_width(100, 1000, 60, n_buffers=3) == 1  # at least one


class TestMixedFillBufferBudget:
    """Regression: the mixed scan's three fill buffers share the budget.

    ``stream_mixed_merges`` fills one wtp, one score, and one pay column
    per candidate; the chunk width used to be budgeted as if there were a
    *single* ``(M, width)`` buffer, so real peak fill memory was ~3× the
    ``chunk_elements`` promise.
    """

    # The ids name the body each adoption model selects: the band scan
    # under sigmoid adoption, the step histogram ("sorted") under step.
    @pytest.mark.parametrize(
        "adoption", [SigmoidAdoption(gamma=2.0), StepAdoption()], ids=["band", "sorted"]
    )
    def test_fill_allocation_stays_within_budget(self, monkeypatch, adoption):
        from repro.core.kernels import MIXED_FILL_BUFFERS, stream_mixed_merges

        n_users, n_pairs = 64, 40
        budget = n_users * 12  # one-buffer accounting would pick width 12
        fill_allocations = []
        real_empty = np.empty

        def tracking_empty(shape, dtype=float, **kwargs):
            array = real_empty(shape, dtype=dtype, **kwargs)
            if array.ndim == 2 and array.shape[0] == n_users:
                fill_allocations.append(array.nbytes)
            return array

        rng = np.random.default_rng(3)
        wtp = rng.uniform(0.0, 20.0, size=(n_users, n_pairs))
        scores = rng.uniform(0.0, 4.0, size=(n_users, n_pairs))
        pays = rng.uniform(0.0, 5.0, size=(n_users, n_pairs))
        monkeypatch.setattr(np, "empty", tracking_empty)

        def fill(wtp_block, score_block, pay_block, start, stop):
            wtp_block[:] = wtp[:, start:stop]
            score_block[:] = scores[:, start:stop]
            pay_block[:] = pays[:, start:stop]
            return np.full(stop - start, 2.0), np.full(stop - start, 9.0)

        result = stream_mixed_merges(
            fill, n_pairs, n_users, adoption, PriceGrid(30), chunk_elements=budget
        )
        assert fill_allocations, "fill buffers were never allocated"
        assert sum(fill_allocations) <= budget * 8  # float64 bytes
        assert len(fill_allocations) == MIXED_FILL_BUFFERS
        # The pre-fix accounting (budget // n_users per buffer) would have
        # allocated MIXED_FILL_BUFFERS times that footprint.
        old_width = budget // n_users
        assert MIXED_FILL_BUFFERS * old_width * n_users * 8 > budget * 8
        # Narrower chunks must not change the scan's results.
        monkeypatch.setattr(np, "empty", real_empty)
        unchunked = stream_mixed_merges(
            fill, n_pairs, n_users, adoption, PriceGrid(30), chunk_elements=None
        )
        for got, want in zip(result, unchunked):
            np.testing.assert_allclose(got, want, rtol=1e-9)


class TestChunkedMixedPricing:
    @pytest.mark.parametrize("adoption_key", ["step", "sigmoid"])
    @pytest.mark.parametrize("grid_key", ["linspace", "explicit"])
    def test_mixed_merge_gains_chunk_invariant(self, parity_wtp, adoption_key, grid_key):
        chunked, unchunked = engine_pair(parity_wtp, adoption_key, grid_key)
        results = []
        for engine in (chunked, unchunked):
            singles = engine.price_components()
            states = engine.offer_states(singles)
            pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
            results.append(engine.mixed_merge_gains(singles, states, pairs))
        for g, w in zip(*results):
            assert g.feasible == w.feasible
            assert g.price == w.price
            # Mixed gains sum per-user payments (floats), so chunk width can
            # shift the accumulation order by an ulp; see the class note.
            assert g.gain == pytest.approx(w.gain, rel=1e-12, abs=1e-9)
            assert g.upgraded == pytest.approx(w.upgraded, rel=1e-12)


class TestExplicitGridBatch:
    """The vectorized explicit-grid path versus scalar :func:`price_pure`."""

    @pytest.mark.parametrize("adoption_key", list(ADOPTIONS))
    def test_matches_scalar_reference(self, adoption_key, rng):
        adoption = ADOPTIONS[adoption_key]
        grid = PriceGrid(levels=np.array([0.5, 2.0, 3.75, 7.5, 12.0, 18.0]))
        wtp = random_wtp(rng, n_users=40, n_items=9)
        columns = np.asarray(wtp.values)
        prices, revenues, buyers = price_pure_batch(columns, adoption, grid)
        for j in range(columns.shape[1]):
            want = price_pure(columns[:, j], adoption, grid)
            assert prices[j] == pytest.approx(want.price, rel=1e-12)
            assert revenues[j] == pytest.approx(want.revenue, rel=1e-12)
            assert buyers[j] == pytest.approx(want.buyers, rel=1e-12)

    def test_zero_column_prices_to_zero(self):
        columns = np.zeros((10, 3))
        columns[:, 1] = 4.0
        grid = PriceGrid(levels=np.array([1.0, 4.0]))
        prices, revenues, buyers = price_pure_batch(columns, StepAdoption(), grid)
        assert prices[0] == revenues[0] == buyers[0] == 0.0
        assert prices[2] == revenues[2] == buyers[2] == 0.0
        assert revenues[1] == pytest.approx(40.0)

    def test_chunked_explicit_is_identical(self, rng):
        wtp = random_wtp(rng, n_users=30, n_items=11)
        columns = np.asarray(wtp.values)
        grid = PriceGrid(levels=np.linspace(1.0, 25.0, 13))
        whole = price_pure_batch(columns, StepAdoption(), grid)
        chunked = price_pure_batch(columns, StepAdoption(), grid, chunk_elements=100)
        for got, want in zip(chunked, whole):
            np.testing.assert_array_equal(got, want)


class TestPackedSupport:
    @pytest.mark.parametrize("n_users", [1, 5, 8, 9, 63, 64, 65, 200])
    def test_pack_roundtrip(self, n_users, rng):
        mask = rng.random(n_users) > 0.5
        bits = pack_mask(mask)
        np.testing.assert_array_equal(unpack_mask(bits, n_users), mask)
        assert supported_count(bits) == int(mask.sum())

    @pytest.mark.parametrize("n_users", [3, 8, 17, 64, 100])
    def test_pairs_match_dense_reference(self, n_users, rng):
        n_bundles = 12
        masks = rng.random((n_users, n_bundles)) > 0.6
        packed = np.stack([pack_mask(masks[:, b]) for b in range(n_bundles)])
        got = co_supported_pairs_packed(packed)
        # The seed's dense formulation: boolean stack, Gram matrix, triu.
        counts = masks.T.astype(np.float32) @ masks.astype(np.float32)
        rows, cols = np.nonzero(np.triu(counts > 0, k=1))
        assert got == list(zip(rows.tolist(), cols.tolist()))

    def test_engine_pairs_match_dense_reference(self, small_engine):
        bundles = [Bundle.of(i) for i in range(small_engine.n_items)]
        bundles.append(Bundle.of(0, 1, 2))
        got = small_engine.co_supported_pairs(bundles)
        support = np.stack([small_engine.raw_wtp(b) > 0 for b in bundles], axis=1)
        counts = support.T.astype(np.float32) @ support.astype(np.float32)
        rows, cols = np.nonzero(np.triu(counts > 0, k=1))
        assert got == list(zip(rows.tolist(), cols.tolist()))

    def test_bundle_bits_equal_packed_dense_support(self, parity_wtp):
        item_bits = item_support_bits(parity_wtp)
        for items in ([0], [1, 3], [0, 4, 7]):
            got = bundle_support_bits(item_bits, items)
            want = pack_mask(parity_wtp.support_mask(items))
            np.testing.assert_array_equal(got, want)

    def test_masks_intersect(self):
        a = pack_mask(np.array([True, False, False]))
        b = pack_mask(np.array([False, True, True]))
        assert not masks_intersect(a, b)
        assert masks_intersect(a, a)


class TestEndToEndChunking:
    """Whole-algorithm bit-identity under aggressive chunking."""

    @pytest.mark.parametrize(
        "algo_factory",
        [
            lambda: GreedyMerge(strategy="pure"),
            lambda: GreedyMerge(strategy="mixed"),
            lambda: IterativeMatching(strategy="pure"),
            lambda: IterativeMatching(strategy="mixed"),
            lambda: IterativeMatching(strategy="pure", new_vertex_pruning=False),
        ],
    )
    def test_bit_identical_results(self, small_wtp, algo_factory):
        baseline = algo_factory().fit(RevenueEngine(small_wtp, chunk_elements=None))
        streamed = algo_factory().fit(
            RevenueEngine(small_wtp, chunk_elements=997)
        )
        assert streamed.expected_revenue == baseline.expected_revenue
        want = sorted(
            (tuple(o.bundle.items), o.price, o.revenue)
            for o in baseline.configuration.offers
        )
        got = sorted(
            (tuple(o.bundle.items), o.price, o.revenue)
            for o in streamed.configuration.offers
        )
        assert got == want


class TestEngineOptions:
    def test_chunk_elements_validation(self, small_wtp):
        with pytest.raises(ValidationError):
            RevenueEngine(small_wtp, chunk_elements=0)
        with pytest.raises(ValidationError):
            RevenueEngine(small_wtp, chunk_elements=2.5)
        assert RevenueEngine(small_wtp, chunk_elements=None).chunk_elements is None

    def test_accepts_scipy_sparse_input(self, small_wtp):
        """SciPy input is densified: the fit equals the dense fit exactly."""
        sp = pytest.importorskip("scipy.sparse")
        engine = RevenueEngine(sp.csr_matrix(np.asarray(small_wtp.values)))
        np.testing.assert_array_equal(engine.wtp.values, small_wtp.values)
        algo = IterativeMatching(strategy="mixed")
        got = algo.fit(engine).expected_revenue
        assert got == algo.fit(RevenueEngine(small_wtp)).expected_revenue
