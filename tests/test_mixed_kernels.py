"""The shipped step-histogram mixed kernel against the band-scan oracle.

:func:`~repro.core.pricing.price_mixed_bundle_batch` is the one batch
mixed pricer, and the adoption model alone picks its body: the
step-histogram scan under step adoption, the band scan under sigmoid
adoption.  The step body computes each pair's optimum from one histogram
of margin buckets per block of pairs (a count and a payment-weighted
``bincount``, then suffix sums over levels), O(M + T) per pair.  The
reference is the level-by-user band scan of ``tests/mixed_oracles.py``,
O(T'·M) per pair.  Because the two accumulate per-user payments in
different orders, gains agree to float-accumulation precision (~1e-9
relative), while ``prices``, ``upgraded`` counts, and ``feasible`` flags —
which depend only on the upgrade *sets* and the shared level grid — must
match exactly.

Property-style randomized instances cover: step adoption with bias/offset,
varied floors/ceilings (including infeasible intervals), WTP values sitting
*exactly* on grid levels (exercising ``DECISION_RTOL``), all-zero columns, and
the streaming layer's chunk/worker matrix (serial and ``n_workers=4``,
chunked and unchunked).  The shipped kernel itself must additionally be
*bit-identical* across every chunk/worker configuration: each pair's
computation is independent, and each histogram bin sums its users in user
order.  ``tests/test_mixed_scan.py`` holds the step body to an exact
oracle.  The ``mixed_kernel`` option that once chose between the two scans
is gone; the tests below named after it check that no surface accepts it.
"""

import numpy as np
import pytest

from repro.algorithms.greedy import GreedyMerge
from repro.algorithms.matching_iterative import IterativeMatching
from repro.api import AlgorithmSpec, EngineConfig
from repro.core import pricing
from repro.core.adoption import DECISION_RTOL, SigmoidAdoption, StepAdoption
from repro.core.kernels import stream_mixed_merges
from repro.core.pricing import PriceGrid, price_mixed_bundle_batch
from repro.core.revenue import RevenueEngine
from repro.errors import PricingError, ValidationError

from mixed_oracles import band_mixed_batch, use_band_scan
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


def spy_bodies(monkeypatch):
    """Count the calls reaching each body of the batch mixed pricer."""
    calls = {"step": 0, "sigmoid": 0}
    for kind in calls:
        name = f"_price_mixed_{kind}"
        body = getattr(pricing, name)

        def counted(*args, _body=body, _kind=kind, **kwargs):
            calls[_kind] += 1
            return _body(*args, **kwargs)

        monkeypatch.setattr(pricing, name, counted)
    return calls


def merge_scan(engine, n=10):
    singles = engine.price_components()
    states = engine.offer_states(singles)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return engine.mixed_merge_gains(singles, states, pairs)


class TestKernelSelection:
    def test_auto_resolution(self, monkeypatch):
        """The adoption model alone resolves the body of the batch pricer:
        step adoption runs the step histogram."""
        calls = spy_bodies(monkeypatch)
        rng = np.random.default_rng(7)
        for adoption in (StepAdoption(), StepAdoption(alpha=1.1, epsilon=1e-6)):
            price_mixed_bundle_batch(*random_instance(rng), adoption, PriceGrid(40))
        assert calls == {"step": 2, "sigmoid": 0}

    def test_sorted_rejects_stochastic_adoption(self, monkeypatch):
        """Sigmoid adoption never reaches the step histogram; it runs the
        band scan."""
        calls = spy_bodies(monkeypatch)
        rng = np.random.default_rng(8)
        adoption = SigmoidAdoption(gamma=2.0)
        price_mixed_bundle_batch(*random_instance(rng), adoption, PriceGrid(40))
        assert calls == {"step": 0, "sigmoid": 1}

    def test_sorted_requires_linspace(self):
        for adoption in (StepAdoption(), SigmoidAdoption(gamma=2.0)):
            with pytest.raises(PricingError):
                price_mixed_bundle_batch(
                    np.ones((4, 1)), np.zeros((4, 1)), np.zeros((4, 1)),
                    np.array([1.0]), np.array([3.0]), adoption,
                    PriceGrid(mode="exact"),
                )

    def test_engine_validates_kernel_at_construction(self, small_wtp):
        """``mixed_kernel`` is no engine option: neither the engine nor its
        config accepts it, and a serialized config carrying it is refused
        as an unknown key."""
        with pytest.raises(TypeError):
            RevenueEngine(small_wtp, mixed_kernel="sorted")
        with pytest.raises(TypeError):
            EngineConfig(mixed_kernel="sorted")
        with pytest.raises(ValidationError, match="unknown EngineConfig keys"):
            EngineConfig.from_dict(
                {**EngineConfig().to_dict(), "mixed_kernel": "sorted"}
            )
        assert "mixed_kernel" not in EngineConfig().to_dict()
        assert not hasattr(RevenueEngine(small_wtp), "mixed_kernel")

    def test_per_run_override_fails_before_pricing_work(self):
        """The algorithms take no per-run kernel override."""
        for algorithm in (GreedyMerge, IterativeMatching):
            with pytest.raises(TypeError):
                algorithm(strategy="mixed", mixed_kernel="sorted")
            assert not hasattr(algorithm(strategy="mixed"), "mixed_kernel")


class TestSortedMatchesBand:
    """Randomized property-style equivalence, batch-function level: the
    shipped step body against the band oracle."""

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
        band = band_mixed_batch(*instance, adoption, grid)
        srt = price_mixed_bundle_batch(*instance, adoption, grid)
        assert band[3].any()  # the instance prices something
        assert_equivalent(band, srt)

    @pytest.mark.parametrize("seed", range(4))
    def test_wtp_exactly_on_grid_levels(self, seed):
        """Knife-edge margins (WTP on grid levels) exercise DECISION_RTOL."""
        rng = np.random.default_rng(1000 + seed)
        adoption = StepAdoption()
        instance = random_instance(rng, adoption=adoption, on_grid=6)
        grid = PriceGrid(n_levels=100)
        band = band_mixed_batch(*instance, adoption, grid)
        srt = price_mixed_bundle_batch(*instance, adoption, grid)
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
        band = band_mixed_batch(w_b, scores, pays, floors, ceilings, adoption, grid)
        srt = price_mixed_bundle_batch(
            w_b, scores, pays, floors, ceilings, adoption, grid
        )
        assert_equivalent(band, srt)
        assert not srt[3].any()

    def test_no_pairs(self):
        out = price_mixed_bundle_batch(
            np.empty((5, 0)), np.empty((5, 0)), np.empty((5, 0)),
            np.empty(0), np.empty(0), StepAdoption(), PriceGrid(10),
        )
        assert all(a.size == 0 for a in out)

    def test_single_feasible_level(self):
        """A Guiltinan band one grid level wide."""
        rng = np.random.default_rng(5)
        adoption, grid = StepAdoption(), PriceGrid(n_levels=10)
        w_b = rng.uniform(1.0, 10.0, size=(30, 6))
        scores = rng.uniform(0.0, 3.0, size=(30, 6))
        pays = rng.uniform(0.0, 4.0, size=(30, 6))
        tops = w_b.max(axis=0)
        step = tops / grid.n_levels
        floors = 6.0 * step - step / 2  # only level 6 inside (floor, ceiling)
        ceilings = 6.0 * step + step / 2
        band = band_mixed_batch(w_b, scores, pays, floors, ceilings, adoption, grid)
        srt = price_mixed_bundle_batch(
            w_b, scores, pays, floors, ceilings, adoption, grid
        )
        assert srt[3].any()
        assert_equivalent(band, srt)


class TestStreamedEquivalence:
    """The shipped kernel against the band oracle through the full
    streaming layer (engine-level)."""

    @pytest.fixture(scope="class")
    def parity_wtp(self):
        return random_wtp(np.random.default_rng(99))

    def band_scan(self, monkeypatch, engine):
        with monkeypatch.context() as patch:
            use_band_scan(patch)
            return merge_scan(engine)

    @pytest.mark.parametrize("n_workers", [1, 4])
    @pytest.mark.parametrize("chunk_elements", [256, None])
    def test_scan_equivalence(self, monkeypatch, parity_wtp, chunk_elements, n_workers):
        engine = RevenueEngine(
            parity_wtp, chunk_elements=chunk_elements, n_workers=n_workers
        )
        band = self.band_scan(monkeypatch, engine)
        srt = merge_scan(engine)
        for b, s in zip(band, srt):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-9)

    def test_sorted_scan_bit_stable_across_chunks_and_workers(self, parity_wtp):
        """Per-pair work is independent and sequentially ordered, so the
        shipped kernel is exactly invariant to the chunk schedule and
        worker count."""
        reference = merge_scan(RevenueEngine(parity_wtp, chunk_elements=None))
        for chunk_elements, n_workers in ((256, 1), (256, 4), (997, 4), (None, 4)):
            got = merge_scan(
                RevenueEngine(
                    parity_wtp, chunk_elements=chunk_elements, n_workers=n_workers
                )
            )
            for g, w in zip(got, reference):
                assert (g.price, g.gain, g.upgraded, g.feasible) == (
                    w.price,
                    w.gain,
                    w.upgraded,
                    w.feasible,
                )

    def test_auto_matches_sorted_under_step(self, monkeypatch, parity_wtp):
        """A step engine's mixed scan runs the step-histogram body only."""
        calls = spy_bodies(monkeypatch)
        for engine in (
            RevenueEngine(parity_wtp, chunk_elements=256),
            RevenueEngine(parity_wtp, adoption=StepAdoption(alpha=1.1, epsilon=1e-6)),
        ):
            merge_scan(engine)
        assert calls["step"] > 0
        assert calls["sigmoid"] == 0

    def test_auto_falls_back_to_band_under_sigmoid(self, monkeypatch, parity_wtp):
        """A sigmoid engine's mixed scan runs the band scan only."""
        calls = spy_bodies(monkeypatch)
        merge_scan(
            RevenueEngine(
                parity_wtp, adoption=SigmoidAdoption(gamma=2.0), chunk_elements=256
            )
        )
        assert calls["sigmoid"] > 0
        assert calls["step"] == 0

    def test_stream_rejects_bad_kernel(self):
        """The streamed scan takes no kernel argument."""
        with pytest.raises(TypeError):
            stream_mixed_merges(
                lambda *a: (0.0, 1.0), 1, 4, StepAdoption(), PriceGrid(10),
                mixed_kernel="band",
            )

    def test_float32_states_widened_identically(self, monkeypatch, parity_wtp):
        """The shipped kernel sees the same widened float64 columns the band
        oracle does (the fill path widens before the kernel runs)."""
        engine = RevenueEngine(parity_wtp, chunk_elements=256, state_dtype="float32")
        band = self.band_scan(monkeypatch, engine)
        srt = merge_scan(engine)
        for b, s in zip(band, srt):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-9)


@pytest.mark.slow
class TestScaleSpeedup:
    """Multi-minute scale check (deselected from tier-1; run with -m slow).

    Clones the benchmark workload to clone factor 250 (100k users) and runs
    one full mixed merge scan through the shipped step kernel and one
    through the band oracle, on the same filled pair blocks: the shipped
    kernel must beat the oracle by the committed ≥5× while agreeing on
    every pair.  The committed artifact (``BENCH_scalability.json``)
    records the same comparison through the full benchmark harness.
    """

    def test_sorted_kernel_speedup_at_clone_factor_250(self, monkeypatch):
        import time

        from repro.data.synthetic import amazon_books_like
        from repro.data.wtp_mapping import wtp_from_ratings

        dataset = amazon_books_like(n_users=400, n_items=60, seed=2)
        wtp = wtp_from_ratings(dataset, conversion=1.25).clone_users(250)
        engine = RevenueEngine(wtp, state_dtype="float32")
        singles = engine.price_components()
        states = engine.offer_states(singles)
        pairs = engine.co_supported_pairs([o.bundle for o in singles])
        walls, results = {}, {}
        for kernel in ("sorted", "band"):
            with monkeypatch.context() as patch:
                if kernel == "band":
                    use_band_scan(patch)
                started = time.perf_counter()
                results[kernel] = engine.mixed_merge_gains(singles, states, pairs)
                walls[kernel] = time.perf_counter() - started
        speedup = walls["band"] / walls["sorted"]
        assert speedup >= 5.0, f"shipped kernel only {speedup:.1f}x faster"
        for b, s in zip(results["band"], results["sorted"]):
            assert s.feasible == b.feasible
            assert s.price == b.price
            assert s.upgraded == b.upgraded
            assert s.gain == pytest.approx(b.gain, rel=RTOL, abs=1e-6)


class TestEndToEndKernels:
    """Whole-algorithm agreement between the shipped kernel and the oracle."""

    @pytest.mark.parametrize(
        "algo_factory",
        [
            lambda: IterativeMatching(strategy="mixed"),
            lambda: GreedyMerge(strategy="mixed"),
        ],
        ids=["matching", "greedy"],
    )
    def test_mixed_revenue_close_between_kernels(
        self, monkeypatch, small_wtp, algo_factory
    ):
        # Gains differ at ~1e-9 relative, so knife-edge merge *selections*
        # can legitimately differ; end-to-end revenue stays within a
        # fraction of a percent (the golden test pins the shipped path
        # bit-for-bit).
        with monkeypatch.context() as patch:
            use_band_scan(patch)
            band = algo_factory().fit(RevenueEngine(small_wtp)).expected_revenue
        srt = algo_factory().fit(RevenueEngine(small_wtp)).expected_revenue
        assert srt == pytest.approx(band, rel=0.01)

    def test_override_validation(self):
        """The registry refuses a kernel option like any unknown one."""
        for name in ("mixed_greedy", "mixed_matching"):
            with pytest.raises(ValidationError, match="mixed_kernel"):
                AlgorithmSpec(name, {"mixed_kernel": "sorted"})

    def test_pure_strategy_unaffected_by_kernel(self, monkeypatch, small_wtp):
        calls = spy_bodies(monkeypatch)
        pure = IterativeMatching(strategy="pure").fit(RevenueEngine(small_wtp))
        assert pure.expected_revenue > 0
        assert calls == {"step": 0, "sigmoid": 0}
