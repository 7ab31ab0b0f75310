"""CSV / NPZ round-trip for ratings datasets and WTP matrices.

Plain-text persistence so generated experiment inputs can be inspected,
versioned, and reloaded without regeneration.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.core.wtp import WTPMatrix
from repro.data.ratings import RatingsDataset
from repro.errors import DataError


def save_ratings_csv(dataset: RatingsDataset, ratings_path, prices_path) -> None:
    """Write ratings to ``user,item,rating`` rows and prices to ``item,price``."""
    ratings_path = Path(ratings_path)
    prices_path = Path(prices_path)
    with ratings_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user", "item", "rating"])
        for user, item, rating in zip(dataset.user_ids, dataset.item_ids, dataset.ratings):
            writer.writerow([int(user), int(item), float(rating)])
    with prices_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item", "price"])
        for item, price in enumerate(dataset.item_prices):
            writer.writerow([item, float(price)])


def load_ratings_csv(ratings_path, prices_path, rating_max: int = 5) -> RatingsDataset:
    """Inverse of :func:`save_ratings_csv`."""
    ratings_path = Path(ratings_path)
    prices_path = Path(prices_path)
    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []
    with ratings_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["user", "item", "rating"]:
            raise DataError(f"unexpected ratings header: {reader.fieldnames}")
        for row in reader:
            users.append(int(row["user"]))
            items.append(int(row["item"]))
            ratings.append(float(row["rating"]))
    prices: dict[int, float] = {}
    with prices_path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["item", "price"]:
            raise DataError(f"unexpected prices header: {reader.fieldnames}")
        for row in reader:
            prices[int(row["item"])] = float(row["price"])
    if not prices:
        raise DataError("prices file contains no rows")
    price_array = np.empty(max(prices) + 1, dtype=np.float64)
    price_array.fill(np.nan)
    for item, price in prices.items():
        price_array[item] = price
    if np.any(np.isnan(price_array)):
        raise DataError("prices file skips some item ids")
    return RatingsDataset(users, items, ratings, price_array, rating_max=rating_max)


def save_wtp_npz(wtp: WTPMatrix, path) -> None:
    """Persist a WTP matrix (and labels, if any) to a compressed ``.npz``.

    Delegates to :meth:`WTPMatrix.save_npz` (the ``values`` layout).
    """
    wtp.save_npz(path)


def load_wtp_npz(path) -> WTPMatrix:
    """Inverse of :func:`save_wtp_npz`."""
    return WTPMatrix.load_npz(path)
