"""Equivalence of the sorted step-histogram mixed kernel against the band kernel.

The band kernel (:func:`~repro.core.pricing.price_mixed_bundle_batch`) is
the bit-reference: it evaluates every feasible Guiltinan level over every
user, O(T'·M) per pair.  The sorted kernel
(:func:`~repro.core.pricing.price_mixed_bundle_batch_sorted`) computes the
same optimum from one step histogram of margin buckets per block of pairs
(a count and a payment-weighted ``bincount``, then suffix sums over
levels), O(M + T) per pair.  Because the two accumulate per-user payments
in different orders, gains agree to float-accumulation precision (~1e-9
relative), while
``prices``, ``upgraded`` counts, and ``feasible`` flags — which depend only
on the upgrade *sets* and the shared level grid — must match exactly.

Property-style randomized instances cover: step adoption with bias/offset,
varied floors/ceilings (including infeasible intervals), WTP values sitting
*exactly* on grid levels (exercising ``DECISION_RTOL``), all-zero columns, and
the streaming layer's chunk/worker matrix (serial and ``n_workers=4``,
chunked and unchunked).  The sorted kernel itself must additionally be
*bit-identical* across every chunk/worker configuration: each pair's
computation is independent, and each histogram bin sums its users in user
order.  ``tests/test_mixed_scan.py`` holds the sorted kernel to an exact
oracle.
"""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.core.adoption import DECISION_RTOL, SigmoidAdoption, StepAdoption
from repro.core.kernels import stream_mixed_merges
from repro.core.pricing import (
    MIXED_KERNELS,
    PriceGrid,
    check_mixed_kernel,
    price_mixed_bundle_batch,
    price_mixed_bundle_batch_sorted,
    resolve_mixed_kernel,
)
from repro.core.revenue import RevenueEngine
from repro.errors import PricingError, ValidationError

from test_kernels import random_wtp

RTOL = 1e-9


def random_instance(rng, n_users=80, n_pairs=25, adoption=None, on_grid=0):
    """A randomized mixed-pricing instance (column-stacked arrays).

    ``on_grid`` places that many users per column with effective WTP
    *exactly* on a feasible grid level plus their base score, so the
    ``margin == level`` knife edge that ``DECISION_RTOL`` protects is
    genuinely exercised (linspace arithmetic reproduces the level to the
    bit in both kernels).
    """
    adoption = adoption or StepAdoption()
    w_b = rng.uniform(0.0, 30.0, size=(n_users, n_pairs))
    w_b[rng.random((n_users, n_pairs)) > 0.6] = 0.0
    s1 = rng.uniform(-5.0, 5.0, size=(n_users, n_pairs))
    s2 = rng.uniform(-5.0, 5.0, size=(n_users, n_pairs))
    p1 = rng.uniform(1.0, 12.0, size=n_pairs)
    p2 = rng.uniform(1.0, 12.0, size=n_pairs)
    scores = np.maximum(s1, 0.0) + np.maximum(s2, 0.0)
    pays = p1 * (s1 >= 0) + p2 * (s2 >= 0)
    floors = np.maximum(p1, p2)
    ceilings = p1 + p2
    # A few deliberately empty/inverted Guiltinan intervals.
    dead = rng.random(n_pairs) < 0.15
    ceilings[dead] = floors[dead] * (1.0 - rng.random(dead.sum()) * 0.5)
    if on_grid:
        grid_levels = 100
        for k in range(n_pairs):
            top = (adoption.alpha * w_b[:, k] + adoption.epsilon).max()
            if top <= 0:
                continue
            step = top / grid_levels
            for u in rng.choice(n_users, size=on_grid, replace=False):
                t = int(rng.integers(1, grid_levels))
                # effective − score == t·step exactly (up to the one float
                # rounding both kernels share through the level grid).
                w_b[u, k] = (t * step + scores[u, k] - adoption.epsilon) / adoption.alpha
    return w_b, scores, pays, floors, ceilings


def assert_equivalent(band, srt):
    b_prices, b_gains, b_upg, b_feas = band
    s_prices, s_gains, s_upg, s_feas = srt
    np.testing.assert_array_equal(s_feas, b_feas)
    np.testing.assert_array_equal(s_prices, b_prices)
    np.testing.assert_array_equal(s_upg, b_upg)
    finite = np.isfinite(b_gains)
    np.testing.assert_array_equal(np.isfinite(s_gains), finite)
    np.testing.assert_allclose(s_gains[finite], b_gains[finite], rtol=RTOL, atol=1e-9)


class TestKernelSelection:
    def test_known_kernels(self):
        assert set(MIXED_KERNELS) == {"auto", "band", "sorted"}
        for kernel in MIXED_KERNELS:
            assert check_mixed_kernel(kernel) == kernel
        with pytest.raises(ValidationError):
            check_mixed_kernel("fastest")

    def test_auto_resolution(self):
        assert resolve_mixed_kernel("auto", StepAdoption()) == "sorted"
        assert resolve_mixed_kernel("auto", SigmoidAdoption(gamma=2.0)) == "band"
        assert resolve_mixed_kernel("band", SigmoidAdoption(gamma=2.0)) == "band"
        assert resolve_mixed_kernel("sorted", StepAdoption()) == "sorted"

    def test_sorted_rejects_stochastic_adoption(self):
        with pytest.raises(PricingError):
            resolve_mixed_kernel("sorted", SigmoidAdoption(gamma=2.0))
        with pytest.raises(PricingError):
            price_mixed_bundle_batch_sorted(
                np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)),
                np.array([1.0]), np.array([3.0]), SigmoidAdoption(gamma=2.0),
                PriceGrid(20),
            )

    def test_sorted_requires_linspace(self):
        with pytest.raises(PricingError):
            price_mixed_bundle_batch_sorted(
                np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)),
                np.array([1.0]), np.array([3.0]), StepAdoption(),
                PriceGrid(mode="exact"),
            )

    def test_engine_validates_kernel_at_construction(self, small_wtp):
        with pytest.raises(ValidationError):
            RevenueEngine(small_wtp, mixed_kernel="fastest")
        with pytest.raises(PricingError):
            RevenueEngine(
                small_wtp, adoption=SigmoidAdoption(gamma=2.0), mixed_kernel="sorted"
            )
        assert RevenueEngine(small_wtp).mixed_kernel == "auto"

    def test_engine_rejects_sorted_with_non_linspace_grid(self, small_wtp):
        """An explicit sorted request the engine could never honour (the
        non-linspace mixed path runs the scalar loop) errors at
        construction rather than being silently ignored."""
        with pytest.raises(PricingError):
            RevenueEngine(
                small_wtp, grid=PriceGrid(mode="exact"), mixed_kernel="sorted"
            )
        # "auto" stays fine: it never promises the sorted kernel.
        engine = RevenueEngine(small_wtp, grid=PriceGrid(mode="exact"))
        assert engine.mixed_kernel == "auto"

    def test_per_run_override_fails_before_pricing_work(self, small_wtp):
        """An unusable override errors at fit() entry, not mid-scan."""
        sigmoid_engine = RevenueEngine(small_wtp, adoption=SigmoidAdoption(gamma=2.0))
        with pytest.raises(PricingError):
            GreedyMerge(strategy="mixed", mixed_kernel="sorted").fit(sigmoid_engine)
        assert sigmoid_engine.stats.pure_pricings == 0
        assert sigmoid_engine.mixed_kernel == "auto"  # override never applied
        exact_engine = RevenueEngine(small_wtp, grid=PriceGrid(mode="exact"))
        with pytest.raises(PricingError):
            IterativeMatching(strategy="mixed", mixed_kernel="sorted").fit(exact_engine)
        assert exact_engine.stats.pure_pricings == 0


class TestSortedMatchesBand:
    """Randomized property-style equivalence, batch-function level."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "adoption",
        [StepAdoption(), StepAdoption(alpha=1.1, epsilon=1e-6)],
        ids=["step", "step_biased"],
    )
    def test_random_instances(self, seed, adoption):
        rng = np.random.default_rng(seed)
        instance = random_instance(rng, adoption=adoption, on_grid=0)
        grid = PriceGrid(n_levels=int(rng.integers(20, 140)))
        band = price_mixed_bundle_batch(*instance, adoption, grid)
        srt = price_mixed_bundle_batch_sorted(*instance, adoption, grid)
        assert band[3].any()  # the instance prices something
        assert_equivalent(band, srt)

    @pytest.mark.parametrize("seed", range(4))
    def test_wtp_exactly_on_grid_levels(self, seed):
        """Knife-edge margins (WTP on grid levels) exercise DECISION_RTOL."""
        rng = np.random.default_rng(1000 + seed)
        adoption = StepAdoption()
        instance = random_instance(rng, adoption=adoption, on_grid=6)
        grid = PriceGrid(n_levels=100)
        band = price_mixed_bundle_batch(*instance, adoption, grid)
        srt = price_mixed_bundle_batch_sorted(*instance, adoption, grid)
        assert_equivalent(band, srt)
        # The tolerance must actually bite: at least one upgraded count
        # would change if the slack were removed.
        w_b, scores, pays, floors, ceilings = instance
        effective = adoption.alpha * w_b + adoption.epsilon
        margins = np.where(w_b > 0, effective - scores, -np.inf)
        hits = 0
        for k in np.flatnonzero(band[3]):
            if band[0][k] > 0:
                compare = band[0][k] - DECISION_RTOL * (1.0 + band[0][k])
                exact = np.isclose(margins[:, k], band[0][k], rtol=1e-12, atol=0)
                hits += int(np.count_nonzero(exact & (margins[:, k] >= compare)))
        assert hits > 0

    def test_empty_and_degenerate_columns(self):
        adoption, grid = StepAdoption(), PriceGrid(50)
        w_b = np.zeros((10, 3))
        w_b[:, 1] = 5.0
        scores = np.zeros((10, 3))
        pays = np.zeros((10, 3))
        floors = np.array([1.0, 20.0, 1.0])  # col 1: floor above every level
        ceilings = np.array([3.0, 30.0, 0.5])  # col 2: inverted interval
        band = price_mixed_bundle_batch(w_b, scores, pays, floors, ceilings, adoption, grid)
        srt = price_mixed_bundle_batch_sorted(
            w_b, scores, pays, floors, ceilings, adoption, grid
        )
        assert_equivalent(band, srt)
        assert not srt[3].any()

    def test_no_pairs(self):
        out = price_mixed_bundle_batch_sorted(
            np.empty((5, 0)), np.empty((5, 0)), np.empty((5, 0)),
            np.empty(0), np.empty(0), StepAdoption(), PriceGrid(10),
        )
        assert all(a.size == 0 for a in out)

    def test_single_feasible_level(self):
        """The compare.size == 1 fast path (no sort at all)."""
        rng = np.random.default_rng(5)
        adoption, grid = StepAdoption(), PriceGrid(n_levels=10)
        w_b = rng.uniform(1.0, 10.0, size=(30, 6))
        scores = rng.uniform(0.0, 3.0, size=(30, 6))
        pays = rng.uniform(0.0, 4.0, size=(30, 6))
        tops = w_b.max(axis=0)
        step = tops / grid.n_levels
        floors = 6.0 * step - step / 2  # only level 6 inside (floor, ceiling)
        ceilings = 6.0 * step + step / 2
        band = price_mixed_bundle_batch(w_b, scores, pays, floors, ceilings, adoption, grid)
        srt = price_mixed_bundle_batch_sorted(
            w_b, scores, pays, floors, ceilings, adoption, grid
        )
        assert srt[3].any()
        assert_equivalent(band, srt)


class TestStreamedEquivalence:
    """Sorted vs band through the full streaming layer (engine-level)."""

    @pytest.fixture(scope="class")
    def parity_wtp(self):
        return random_wtp(np.random.default_rng(99))

    def engine(self, wtp, mixed_kernel, chunk_elements, n_workers, **kwargs):
        return RevenueEngine(
            wtp,
            mixed_kernel=mixed_kernel,
            chunk_elements=chunk_elements,
            n_workers=n_workers,
            **kwargs,
        )

    def merge_scan(self, engine, n=10):
        singles = engine.price_components()
        states = engine.offer_states(singles)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return engine.mixed_merge_gains(singles, states, pairs)

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("chunk_elements", [256, None])
    def test_scan_equivalence(self, parity_wtp, chunk_elements, n_workers):
        band = self.merge_scan(self.engine(parity_wtp, "band", chunk_elements, n_workers))
        srt = self.merge_scan(self.engine(parity_wtp, "sorted", chunk_elements, n_workers))
        for b, s in zip(band, srt):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-9)

    def test_sorted_scan_bit_stable_across_chunks_and_workers(self, parity_wtp):
        """Per-pair work is independent and sequentially ordered, so the
        sorted kernel — unlike the band kernel pre-`tree_sum` — is exactly
        invariant to the chunk schedule and worker count."""
        reference = self.merge_scan(self.engine(parity_wtp, "sorted", None, 1))
        for chunk_elements, n_workers in ((256, 1), (256, 4), (997, 4), (None, 4)):
            got = self.merge_scan(
                self.engine(parity_wtp, "sorted", chunk_elements, n_workers)
            )
            for g, w in zip(got, reference):
                assert (g.price, g.gain, g.upgraded, g.feasible) == (
                    w.price,
                    w.gain,
                    w.upgraded,
                    w.feasible,
                )

    def test_auto_matches_sorted_under_step(self, parity_wtp):
        auto = self.merge_scan(self.engine(parity_wtp, "auto", 256, 1))
        srt = self.merge_scan(self.engine(parity_wtp, "sorted", 256, 1))
        for g, w in zip(auto, srt):
            assert (g.price, g.gain, g.upgraded, g.feasible) == (
                w.price,
                w.gain,
                w.upgraded,
                w.feasible,
            )

    def test_auto_falls_back_to_band_under_sigmoid(self, parity_wtp):
        adoption = SigmoidAdoption(gamma=2.0)
        auto = self.merge_scan(
            self.engine(parity_wtp, "auto", 256, 1, adoption=adoption)
        )
        band = self.merge_scan(
            self.engine(parity_wtp, "band", 256, 1, adoption=adoption)
        )
        for g, w in zip(auto, band):
            assert (g.price, g.gain, g.upgraded, g.feasible) == (
                w.price,
                w.gain,
                w.upgraded,
                w.feasible,
            )

    def test_stream_rejects_bad_kernel(self, parity_wtp):
        with pytest.raises(ValidationError):
            stream_mixed_merges(
                lambda *a: (0.0, 1.0), 1, 4, StepAdoption(), PriceGrid(10),
                mixed_kernel="fastest",
            )

    def test_float32_states_widened_identically(self, parity_wtp):
        """The sorted kernel sees the same widened float64 columns the band
        kernel does (the fill path widens before the kernel runs)."""
        band = self.merge_scan(
            self.engine(parity_wtp, "band", 256, 1, state_dtype="float32")
        )
        srt = self.merge_scan(
            self.engine(parity_wtp, "sorted", 256, 1, state_dtype="float32")
        )
        for b, s in zip(band, srt):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-9)


@pytest.mark.slow
class TestScaleSpeedup:
    """Multi-minute scale check (deselected from tier-1; run with -m slow).

    Clones the benchmark workload to clone factor 250 (100k users) and runs
    one full mixed merge scan per kernel: the sorted kernel must beat the
    band kernel by the committed ≥5× while agreeing on every pair.  The
    committed artifact (``BENCH_scalability.json``) records the same
    comparison through the full benchmark harness.
    """

    def test_sorted_kernel_speedup_at_clone_factor_250(self):
        import time

        from repro.data.synthetic import amazon_books_like
        from repro.data.wtp_mapping import wtp_from_ratings

        dataset = amazon_books_like(n_users=400, n_items=60, seed=2)
        wtp = wtp_from_ratings(dataset, conversion=1.25).clone_users(250)
        walls, results = {}, {}
        for kernel in ("sorted", "band"):
            engine = RevenueEngine(wtp, state_dtype="float32", mixed_kernel=kernel)
            singles = engine.price_components()
            states = engine.offer_states(singles)
            pairs = engine.co_supported_pairs([o.bundle for o in singles])
            started = time.perf_counter()
            results[kernel] = engine.mixed_merge_gains(singles, states, pairs)
            walls[kernel] = time.perf_counter() - started
        speedup = walls["band"] / walls["sorted"]
        assert speedup >= 5.0, f"sorted kernel only {speedup:.1f}x faster"
        for b, s in zip(results["band"], results["sorted"]):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-6)


class TestEndToEndKernels:
    """Whole-algorithm agreement between the two kernels."""

    @pytest.mark.parametrize(
        "algo_factory",
        [
            lambda kernel: IterativeMatching(strategy="mixed", mixed_kernel=kernel),
            lambda kernel: GreedyMerge(strategy="mixed", mixed_kernel=kernel),
        ],
        ids=["matching", "greedy"],
    )
    def test_mixed_revenue_close_between_kernels(self, small_wtp, algo_factory):
        # Gains differ at ~1e-9 relative, so knife-edge merge *selections*
        # can legitimately differ; end-to-end revenue stays within a
        # fraction of a percent (the golden test pins the sorted path
        # bit-for-bit).
        band = algo_factory("band").fit(RevenueEngine(small_wtp)).expected_revenue
        srt = algo_factory("sorted").fit(RevenueEngine(small_wtp)).expected_revenue
        assert srt == pytest.approx(band, rel=0.01)

    def test_per_run_override_restores_engine_setting(self, small_wtp):
        engine = RevenueEngine(small_wtp, mixed_kernel="band")
        IterativeMatching(strategy="mixed", mixed_kernel="sorted").fit(engine)
        assert engine.mixed_kernel == "band"

    def test_override_validation(self):
        with pytest.raises(ValidationError):
            GreedyMerge(strategy="mixed", mixed_kernel="fastest")
        assert GreedyMerge(strategy="mixed").mixed_kernel is None

    def test_pure_strategy_unaffected_by_kernel(self, small_wtp):
        band = IterativeMatching(strategy="pure").fit(
            RevenueEngine(small_wtp, mixed_kernel="band")
        )
        srt = IterativeMatching(strategy="pure").fit(
            RevenueEngine(small_wtp, mixed_kernel="sorted")
        )
        assert srt.expected_revenue == band.expected_revenue
