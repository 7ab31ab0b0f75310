"""Level-by-user band scan under step adoption: the reference for the
step-histogram body of :func:`repro.core.pricing.price_mixed_bundle_batch`.

Not used by the library.  It evaluates every grid level of each pair's
Guiltinan band over every user, O(T'·M) per pair, with the comparison the
scalar :func:`~repro.core.pricing.price_mixed_bundle` makes.  The shipped
kernel buckets users by margin instead, so ``prices``, ``upgraded`` and
``feasible`` must match this scan exactly, while ``gains`` agree to the
ulps of a different payment summation order (the shipped kernel's
docstring states the bound).
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.core.adoption import AdoptionModel, StepAdoption, decision_tolerance
from repro.core.pricing import DEFAULT_CHUNK_ELEMENTS, PriceGrid


def band_mixed_batch(
    bundle_wtps: np.ndarray,
    base_scores: np.ndarray,
    base_pays: np.ndarray,
    floors: np.ndarray,
    ceilings: np.ndarray,
    adoption: AdoptionModel | None = None,
    grid: PriceGrid | None = None,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(prices, gains, upgraded, feasible)`` by the band scan (step only).

    Same signature as :func:`~repro.core.pricing.price_mixed_bundle_batch`;
    ``chunk_elements`` bounds the (levels × users × pairs) temporaries.
    """
    adoption = adoption or StepAdoption()
    grid = grid or PriceGrid()
    assert adoption.is_deterministic, "the band oracle covers step adoption"
    assert grid.mode == "linspace", "the band oracle covers linspace grids"
    w_b = np.asarray(bundle_wtps, dtype=np.float64)
    n_users, n_pairs = w_b.shape
    floors = np.asarray(floors, dtype=np.float64)
    ceilings = np.asarray(ceilings, dtype=np.float64)
    effective = adoption.alpha * w_b + adoption.epsilon

    prices = np.zeros(n_pairs)
    gains = np.full(n_pairs, -np.inf)
    upgraded = np.zeros(n_pairs)
    feasible = np.zeros(n_pairs, dtype=bool)

    n_levels = grid.n_levels
    tops = effective.max(axis=0)
    if chunk_elements is None:
        chunk_elements = n_users * n_levels * n_pairs
    chunk = max(1, chunk_elements // max(1, n_users * n_levels))
    level_ranks = np.arange(1, n_levels + 1, dtype=np.float64)
    for start in range(0, n_pairs, chunk):
        stop = min(start + chunk, n_pairs)
        width = stop - start
        tops_c = tops[start:stop]
        all_levels = level_ranks[:, None] * (tops_c[None, :] / n_levels)  # (T, c)
        valid = (all_levels > floors[None, start:stop]) & (
            all_levels < ceilings[None, start:stop]
        )
        valid &= tops_c[None, :] > 0
        has_level = valid.any(axis=0)
        feasible[start:stop] = has_level
        if not np.any(has_level):
            continue
        # Only the band of levels that meets some pair's interval can win.
        band_rows = np.flatnonzero(valid.any(axis=1))
        lo, hi = int(band_rows[0]), int(band_rows[-1]) + 1
        levels = all_levels[lo:hi]  # (T', c)
        utility = effective[None, :, start:stop] - levels[:, None, :]  # (T', M, c)
        in_market = (w_b[:, start:stop] > 0)[None, :, :]
        delta = levels[:, None, :] - base_pays[None, :, start:stop]
        tol = decision_tolerance(levels)[:, None, :]
        take = (utility >= base_scores[None, :, start:stop] - tol) & in_market
        np.multiply(take, delta, out=delta)
        gain_levels = np.full((n_levels, width), -np.inf)
        gain_levels[lo:hi] = delta.sum(axis=1)
        upg_levels = np.zeros((n_levels, width))
        upg_levels[lo:hi] = take.sum(axis=1)
        gain_levels = np.where(valid, gain_levels, -np.inf)
        best = np.argmax(gain_levels, axis=0)  # first (lowest) level on ties
        span = np.arange(width)
        prices[start:stop] = np.where(has_level, all_levels[best, span], 0.0)
        gains[start:stop] = np.where(has_level, gain_levels[best, span], -np.inf)
        upgraded[start:stop] = np.where(has_level, upg_levels[best, span], 0.0)
    return prices, gains, upgraded, feasible


def use_band_scan(monkeypatch) -> None:
    """Route the streamed mixed scan of :mod:`repro.core.kernels` through
    :func:`band_mixed_batch`, so whole engine scans and fits can be compared
    against the shipped kernel."""
    monkeypatch.setattr(kernels, "price_mixed_bundle_batch", band_mixed_batch)
