"""Tests for the data substrate: ratings, synthesis, WTP mapping, loaders."""

import numpy as np
import pytest

from repro.data.loaders import (
    load_ratings_csv,
    load_wtp_npz,
    save_ratings_csv,
    save_wtp_npz,
)
from repro.data.ratings import (
    AMAZON_BOOKS_RATING_MARGINAL,
    DatasetStats,
    RatingsDataset,
)
from repro.data.synthetic import (
    amazon_books_like,
    generate_ratings,
    sample_prices,
)
from repro.data.toy import TABLE6_TITLES, table1_wtp, table6_wtp
from repro.data.wtp_mapping import list_price_revenue, wtp_from_ratings
from repro.errors import DataError, ValidationError


class TestRatingsDataset:
    def test_basic_properties(self):
        ds = RatingsDataset([0, 0, 1], [0, 1, 1], [5, 4, 3], [9.99, 19.99])
        assert ds.n_users == 2 and ds.n_items == 2 and ds.n_ratings == 3
        assert ds.density == pytest.approx(0.75)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            RatingsDataset([0, 0], [1, 1], [5, 4], [1.0, 2.0])

    def test_rating_range_enforced(self):
        with pytest.raises(DataError):
            RatingsDataset([0], [0], [6], [1.0])
        with pytest.raises(DataError):
            RatingsDataset([0], [0], [0], [1.0])

    def test_prices_must_cover_items(self):
        with pytest.raises(DataError):
            RatingsDataset([0], [3], [5], [1.0, 2.0])

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DataError):
            RatingsDataset([0], [0], [5], [0.0])

    def test_rating_histogram(self):
        ds = RatingsDataset([0, 0, 1, 1], [0, 1, 0, 1], [5, 5, 5, 1], [1.0, 2.0])
        hist = ds.rating_histogram()
        assert hist[4] == pytest.approx(0.75)
        assert hist[0] == pytest.approx(0.25)

    def test_stats_price_shares(self):
        ds = RatingsDataset([0, 1], [0, 1], [5, 5], [5.0, 15.0])
        stats = ds.stats()
        assert isinstance(stats, DatasetStats)
        assert stats.price_share_below_10 == pytest.approx(0.5)
        assert stats.price_share_10_to_20 == pytest.approx(0.5)


class TestKCore:
    def test_removes_sparse_users_and_items(self):
        # item 2 is rated once; user 2 rates once -> both drop.
        users = [0, 0, 1, 1, 2]
        items = [0, 1, 0, 1, 2]
        ds = RatingsDataset(users, items, [5] * 5, [1.0, 2.0, 3.0])
        core = ds.kcore(2)
        assert core.n_users == 2 and core.n_items == 2
        assert core.n_ratings == 4

    def test_iterative_cascade(self):
        # Removing item 2 drops user 2 below threshold, cascading.
        users = [0, 0, 1, 1, 2, 2]
        items = [0, 1, 0, 1, 1, 2]
        ds = RatingsDataset(users, items, [5] * 6, [1.0] * 3)
        core = ds.kcore(2)
        assert core.n_items == 2
        for item in range(core.n_items):
            assert np.sum(core.item_ids == item) >= 2
        for user in range(core.n_users):
            assert np.sum(core.user_ids == user) >= 2

    def test_everything_removed_raises(self):
        ds = RatingsDataset([0], [0], [5], [1.0])
        with pytest.raises(DataError):
            ds.kcore(5)

    def test_post_condition_holds(self, small_dataset):
        core = small_dataset.kcore(3)
        user_counts = np.bincount(core.user_ids)
        item_counts = np.bincount(core.item_ids)
        assert user_counts.min() >= 3 and item_counts.min() >= 3


class TestSynthetic:
    def test_rating_marginal_matches_target(self):
        ds = generate_ratings(300, 60, seed=0)
        hist = ds.rating_histogram()
        for observed, target in zip(hist, AMAZON_BOOKS_RATING_MARGINAL):
            assert observed == pytest.approx(target, abs=0.01)

    def test_price_buckets_match_target(self):
        prices = sample_prices(4000, rng=np.random.default_rng(0))
        assert np.mean(prices < 10) == pytest.approx(0.50, abs=0.04)
        assert np.mean(prices > 20) == pytest.approx(0.04, abs=0.02)

    def test_reproducible_by_seed(self):
        a = generate_ratings(100, 20, seed=5)
        b = generate_ratings(100, 20, seed=5)
        np.testing.assert_array_equal(a.ratings, b.ratings)
        np.testing.assert_array_equal(a.item_prices, b.item_prices)

    def test_different_seeds_differ(self):
        a = generate_ratings(100, 20, seed=5)
        b = generate_ratings(100, 20, seed=6)
        assert not np.array_equal(a.item_prices, b.item_prices)

    def test_min_ratings_respected(self):
        ds = generate_ratings(50, 30, avg_ratings_per_user=6, min_ratings_per_user=6, seed=1)
        counts = np.bincount(ds.user_ids)
        assert counts.min() >= 6

    def test_series_share_price(self):
        ds = generate_ratings(50, 40, seed=2)
        # Items in a series share one price: fewer unique prices than items.
        assert np.unique(ds.item_prices).size < ds.n_items

    def test_series_share_audience(self):
        """Series mates must have near-identical rater sets (pre-k-core)."""
        ds = generate_ratings(200, 40, seed=3)
        wtp = wtp_from_ratings(ds)
        support = wtp.values > 0
        # Find two items with identical prices (same series) and compare.
        prices = ds.item_prices
        overlaps = []
        for i in range(ds.n_items - 1):
            if prices[i] == prices[i + 1]:
                a, b = support[:, i], support[:, i + 1]
                union = np.sum(a | b)
                if union:
                    overlaps.append(np.sum(a & b) / union)
        assert overlaps and max(overlaps) > 0.9

    def test_amazon_books_like_applies_kcore(self):
        ds = amazon_books_like(n_users=200, n_items=40, seed=0, kcore=10)
        assert np.bincount(ds.user_ids).min() >= 10
        assert np.bincount(ds.item_ids).min() >= 10

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            generate_ratings(0, 10)
        with pytest.raises(DataError):
            generate_ratings(10, 5, min_ratings_per_user=9)


class TestWTPMapping:
    def test_linear_formula(self):
        # Paper's example: lambda=1.25, price=10: rating 5 -> 12.50, 4 -> 10.
        ds = RatingsDataset([0, 1], [0, 0], [5, 4], [10.0])
        wtp = wtp_from_ratings(ds, conversion=1.25)
        assert wtp.values[0, 0] == pytest.approx(12.5)
        assert wtp.values[1, 0] == pytest.approx(10.0)

    def test_unrated_is_zero(self):
        ds = RatingsDataset([0], [0], [5], [10.0, 20.0])
        wtp = wtp_from_ratings(ds)
        assert wtp.values[0, 1] == 0.0

    def test_lambda_below_one_rejected(self):
        ds = RatingsDataset([0], [0], [5], [10.0])
        with pytest.raises(ValidationError):
            wtp_from_ratings(ds, conversion=0.9)

    def test_list_price_revenue(self):
        ds = RatingsDataset([0, 1], [0, 0], [5, 2], [10.0])
        wtp = wtp_from_ratings(ds, conversion=1.25)  # wtps 12.5 and 5
        assert list_price_revenue(ds, wtp) == pytest.approx(10.0)

    def test_list_price_revenue_shape_check(self):
        ds = RatingsDataset([0, 0], [0, 1], [5, 4], [10.0, 12.0])
        with pytest.raises(ValidationError):
            list_price_revenue(ds, wtp_from_ratings(ds).subset_items([0]))


class TestLoaders:
    def test_ratings_roundtrip(self, tmp_path, small_dataset):
        ratings_file = tmp_path / "ratings.csv"
        prices_file = tmp_path / "prices.csv"
        save_ratings_csv(small_dataset, ratings_file, prices_file)
        loaded = load_ratings_csv(ratings_file, prices_file)
        np.testing.assert_array_equal(loaded.user_ids, small_dataset.user_ids)
        np.testing.assert_array_equal(loaded.ratings, small_dataset.ratings)
        np.testing.assert_allclose(loaded.item_prices, small_dataset.item_prices)

    def test_wtp_roundtrip(self, tmp_path, handmade_wtp):
        path = tmp_path / "wtp.npz"
        save_wtp_npz(handmade_wtp, path)
        loaded = load_wtp_npz(path)
        np.testing.assert_allclose(loaded.values, handmade_wtp.values)
        assert loaded.item_labels == handmade_wtp.item_labels

    def test_float32_wtp_archive_loads_as_float64(self, tmp_path, handmade_wtp):
        """A float32 ``values`` archive widens to float64 on load."""
        half = np.asarray(handmade_wtp.values, dtype=np.float32)
        path = tmp_path / "half.npz"
        np.savez_compressed(path, values=half)
        loaded = load_wtp_npz(path)
        assert loaded.values.dtype == np.float64
        np.testing.assert_array_equal(loaded.values, half.astype(np.float64))

    def test_csc_triplet_archive_rejected(self, tmp_path):
        """Only the dense ``values`` layout loads; a CSC triplet is named."""
        path = tmp_path / "sparse.npz"
        np.savez_compressed(
            path,
            shape=np.array([2, 2]),
            data=np.array([1.0, 2.0]),
            indices=np.array([0, 1]),
            indptr=np.array([0, 1, 2]),
        )
        with pytest.raises(ValidationError, match="CSC-triplet"):
            load_wtp_npz(path)

    def test_bad_header_rejected(self, tmp_path):
        ratings = tmp_path / "r.csv"
        prices = tmp_path / "p.csv"
        ratings.write_text("a,b,c\n1,2,3\n")
        prices.write_text("item,price\n0,1.0\n")
        with pytest.raises(DataError):
            load_ratings_csv(ratings, prices)


class TestToyDatasets:
    def test_table1_values(self):
        wtp = table1_wtp()
        assert wtp.values[0, 0] == 12.0 and wtp.values[2, 1] == 11.0
        assert wtp.item_labels == ("A", "B")

    def test_table6_shape(self):
        wtp = table6_wtp()
        assert wtp.n_users == 29 and wtp.n_items == 3
        assert wtp.item_labels == TABLE6_TITLES
