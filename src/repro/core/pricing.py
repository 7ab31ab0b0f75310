"""Price search for a single bundle (paper, Section 4.2).

The seller works with a *price list* of ``T`` discretized levels.  For a
bundle with willingness-to-pay vector ``w`` the expected revenue at price
``p`` is ``p · Σ_u P(adopt | p, w_u)`` (Equations 2 and 5); the optimal price
is found by scanning the levels, which costs O(M) per bundle.

Two pricing problems are solved here:

* **Pure pricing** (:func:`price_pure_batch`) — the bundle is offered
  alone, so its price is independent of everything else.  This one kernel
  prices the fits' pair scans, the engine's standalone prices, warm refit
  and :func:`price_pure` (a one-column wrapper), so every path that asks
  for a bundle's price gets the same bits.
* **Mixed bundle pricing** (:func:`price_mixed_bundle`,
  :func:`price_mixed_bundle_batch`) — a bundle ``b = b1 ∪ b2`` is offered
  *in addition to* its components, whose prices are already fixed (the
  paper's incremental policy).  The bundle price is constrained to the open
  interval ``(max(p1, p2), p1 + p2)`` (the usual mixed-bundling constraints
  of Guiltinan [18]) and is chosen to maximize the *additional* expected
  revenue over the covered offers' choice state, under the consumer-choice
  model of :mod:`repro.core.choice`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adoption import AdoptionModel, StepAdoption, decision_tolerance
from repro.core.bundle import Bundle
from repro.errors import PricingError, ValidationError
from repro.utils.validation import check_positive_int

#: Paper default (Section 4.2): "For experiments, we use 100 buckets".
DEFAULT_PRICE_LEVELS = 100

#: Default element budget for chunked buffers (~32 MB of float64 each):
#: the batch kernels' (levels × users × columns) temporaries here, and the
#: streaming fill buffers of :mod:`repro.core.kernels` (which re-exports
#: this).  Callers that never think about chunking stay memory-bounded;
#: passing ``None`` explicitly disables chunking everywhere.
DEFAULT_CHUNK_ELEMENTS = 4_000_000


class PriceGrid:
    """Candidate price levels for the optimal-price scan.

    Modes
    -----
    ``"linspace"`` (paper's setting):
        ``T`` equi-spaced levels covering ``(0, max effective WTP]``.
    ``"exact"``:
        Every distinct positive effective-WTP value is a candidate.  Under
        the step adoption model this is provably optimal (the revenue curve
        only changes at WTP values); used as a reference in tests.
    Explicit ``levels``:
        An arbitrary ascending price list, e.g. psychological price points.
    """

    def __init__(
        self,
        n_levels: int = DEFAULT_PRICE_LEVELS,
        mode: str = "linspace",
        levels=None,
    ) -> None:
        if levels is not None:
            array = np.asarray(levels, dtype=np.float64)
            if array.ndim != 1 or array.size == 0:
                raise ValidationError("explicit price levels must be a non-empty 1-D array")
            if np.any(array <= 0) or not np.all(np.isfinite(array)):
                raise ValidationError("explicit price levels must be finite and positive")
            if np.any(np.diff(array) <= 0):
                raise ValidationError("explicit price levels must be strictly ascending")
            self._explicit: np.ndarray | None = array.copy()
            self.mode = "explicit"
            self.n_levels = int(array.size)
            return
        if mode not in ("linspace", "exact"):
            raise ValidationError(f"unknown price grid mode: {mode!r}")
        self._explicit = None
        self.mode = mode
        self.n_levels = check_positive_int(n_levels, "n_levels")

    def candidates(self, effective_wtp: np.ndarray) -> np.ndarray:
        """Ascending candidate prices for a bundle with this effective WTP."""
        if self._explicit is not None:
            return self._explicit
        values = np.asarray(effective_wtp, dtype=np.float64)
        positive = values[values > 0]
        if positive.size == 0:
            return np.empty(0, dtype=np.float64)
        if self.mode == "exact":
            return np.unique(positive)
        # The batch kernels' level arithmetic: level t sits at t · (top / T).
        top = float(positive.max())
        return (top / self.n_levels) * np.arange(1, self.n_levels + 1)

    def __repr__(self) -> str:
        if self._explicit is not None:
            return f"PriceGrid(levels=<{self.n_levels} explicit>)"
        return f"PriceGrid(n_levels={self.n_levels}, mode={self.mode!r})"


@dataclass(frozen=True)
class PricedBundle:
    """A bundle with its revenue-maximizing price (Equation 2).

    ``revenue`` and ``buyers`` are expectations under the adoption model;
    with :class:`~repro.core.adoption.StepAdoption` they are exact counts.
    """

    bundle: Bundle
    price: float
    revenue: float
    buyers: float

    @property
    def size(self) -> int:
        return self.bundle.size

    def __repr__(self) -> str:
        return (
            f"PricedBundle({self.bundle!r}, price={self.price:.4f}, "
            f"revenue={self.revenue:.4f}, buyers={self.buyers:.2f})"
        )


@dataclass(frozen=True)
class MixedMerge:
    """Result of pricing ``b1 ∪ b2`` offered alongside ``b1`` and ``b2``.

    ``gain`` is the expected *additional* revenue over the components-only
    offer; ``upgraded`` the expected number of consumers choosing the new
    bundle.  ``feasible`` is False when the Guiltinan price interval
    contains no grid level or the bundle attracts nobody.
    """

    bundle: Bundle
    price: float
    gain: float
    upgraded: float
    feasible: bool


# ------------------------------------------------------- deterministic sums
def tree_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along *axis* with a fixed halving tree (float64 accumulation).

    numpy's built-in pairwise summation blocks along the innermost memory
    loop, so the accumulation order of ``array.sum(axis=...)`` — and hence
    the last-ulp result — can change with the shape of the *other* axes.
    The streaming kernels price candidates in chunks whose width depends on
    the ``chunk_elements`` budget, which would make the float-accumulation
    paths (sigmoid adoption, explicit grids) chunk-variant to ulps.

    This reduction instead folds the upper half of the axis onto the lower
    half until one slice remains: the tree's shape depends only on the axis
    *length* (the number of users — never chunked), so results are
    bit-identical for every chunk width and worker count.  Cost is one
    float64 copy of the block plus the same number of additions as a plain
    sum.
    """
    work = np.array(np.moveaxis(values, axis, 0), dtype=np.float64, copy=True)
    if work.shape[0] == 0:
        return np.zeros(work.shape[1:], dtype=np.float64)
    n = work.shape[0]
    while n > 1:
        half = (n + 1) // 2
        work[: n - half] += work[half:n]
        n = half
    return work[0]


# --------------------------------------------------------------------- pure
def price_pure(
    wtp: np.ndarray,
    adoption: AdoptionModel | None = None,
    grid: PriceGrid | None = None,
    bundle: Bundle | None = None,
) -> PricedBundle:
    """Revenue-maximizing price for a bundle offered on its own.

    One column of :func:`price_pure_batch`, so a standalone price carries
    the same bits as the same bundle priced inside a fit's pair scan.
    Returns a :class:`PricedBundle`; a bundle nobody values gets price and
    revenue 0.  Ties in revenue break toward the lower price (more buyers,
    more consumer surplus, same revenue).
    """
    wtp = np.asarray(wtp, dtype=np.float64)
    if wtp.ndim != 1:
        raise ValidationError(f"wtp must be 1-D, got shape {wtp.shape}")
    prices, revenues, buyers = price_pure_batch(wtp[:, None], adoption, grid)
    return PricedBundle(
        bundle if bundle is not None else Bundle.of(0),
        float(prices[0]),
        float(revenues[0]),
        float(buyers[0]),
    )


def price_pure_batch(
    wtp_columns: np.ndarray,
    adoption: AdoptionModel | None = None,
    grid: PriceGrid | None = None,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Revenue-maximizing standalone prices for the columns of an ``(M, B)`` array.

    Returns ``(prices, revenues, buyers)`` arrays of length ``B``.  This is
    the one pure pricer: the hot path of the configuration algorithms (one
    call prices a block of candidate pairs), and, one column at a time,
    :func:`price_pure`, the engine's standalone prices and warm refit.
    Every computation is column-independent, so results are bit-identical
    however the caller batches the columns — the streaming kernels of
    :mod:`repro.core.kernels` and the single-column callers rely on this.

    Zero-WTP consumers follow :mod:`repro.core.adoption`: under the step
    model they adopt at any level up to their effective WTP ``ε`` (so
    they count as buyers only when ``ε > 0``), under the sigmoid model
    never.

    For the deterministic model the scan uses a per-column histogram of
    effective WTP over the grid (O(M + T) per column, fully vectorized) in a
    handful of ``M × B`` passes: no affine pass when ``alpha = 1`` and
    ``epsilon = 0``, no copy when every column is live, one work buffer for
    the bucket division, and one ``bincount`` over the bucket ids of all
    columns.  Its working memory is about two ``M × B`` buffers whatever
    ``chunk_elements`` says, so callers bound ``B`` (the streamed scans of
    :mod:`repro.core.kernels` pass cache-sized blocks).  Column-major
    (Fortran-order) input keeps every pass contiguous; any layout gives
    the same bits.

    For the sigmoid model the expected buyers at each level are summed
    exactly over users (:func:`_sigmoid_buyers_exact`).  ``chunk_elements``
    bounds the explicit-grid and sigmoid paths' (levels × users × columns)
    temporaries (bounded at the 4M-element default for callers that never
    think about chunking; ``None`` disables the bound).  Those paths reduce
    per-user values through :func:`tree_sum`, so the budget never changes a
    bit of the result.
    """
    adoption = adoption or StepAdoption()
    grid = grid or PriceGrid()
    columns = np.asarray(wtp_columns, dtype=np.float64)
    if columns.ndim != 2:
        raise ValidationError(f"wtp_columns must be 2-D, got shape {columns.shape}")
    n_users, n_bundles = columns.shape
    if grid.mode == "explicit":
        return _price_explicit_batch(columns, adoption, grid.candidates(None), chunk_elements)
    if grid.mode == "exact":
        return _price_exact_batch(columns, adoption, chunk_elements)

    if adoption.alpha == 1.0 and adoption.epsilon == 0.0:
        effective = columns  # α·x + ε is x itself; skip the pass
    else:
        effective = adoption.alpha * columns + adoption.epsilon
    tops = effective.max(axis=0)
    n_levels = grid.n_levels
    prices = np.zeros(n_bundles)
    revenues = np.zeros(n_bundles)
    buyers_out = np.zeros(n_bundles)
    live = tops > 0
    if not np.any(live):
        return prices, revenues, buyers_out

    all_live = bool(live.all())
    eff_live = effective if all_live else effective[:, live]
    tops_live = tops if all_live else tops[live]
    step = tops_live / n_levels  # level t (1-based) sits at t * step
    levels = step[None, :] * np.arange(1, n_levels + 1)[:, None]

    if adoption.is_deterministic:
        # Bucket users: level index such that user adopts at levels <= idx.
        # The tolerance keeps WTP values that sit exactly on a level (common
        # with ratings-derived WTP) in the bucket they belong to.  The cast
        # truncates rather than floors; after the integer clip to [0, T] the
        # two agree on every input (they differ only below zero, where both
        # clip to 0).  The clip must stay after the cast, in integers: when
        # a subnormal top makes step == 0, zero-WTP users divide to nan,
        # which only the cast-then-clip sends to bucket 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            work = np.divide(eff_live, step)
            work += 1e-6
            idx = work.astype(np.intp)
        np.clip(idx, 0, n_levels, out=idx)
        # buyers at level t = #users with idx >= t.  One bincount over
        # (column, level) keys — column k owns bins k·(T+1) .. k·(T+1)+T —
        # gives exact integer counts; ravel(order="K") walks idx in memory
        # order without a copy.
        n_cols = idx.shape[1]
        idx += np.arange(0, n_cols * (n_levels + 1), n_levels + 1)
        counts = np.bincount(
            idx.ravel(order="K"), minlength=(n_levels + 1) * n_cols
        ).reshape(n_cols, n_levels + 1)
        # Level t (1-based) -> count of idx >= t: a suffix sum over levels.
        from_top = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]
        buyers_levels = from_top.T.astype(np.float64)
        revenue_levels = levels * buyers_levels
    else:
        gamma = getattr(adoption, "gamma", 1.0)
        buyers_levels = _sigmoid_buyers_exact(
            columns[:, live], eff_live, levels, gamma, chunk_elements=chunk_elements
        )
        revenue_levels = levels * buyers_levels

    best = np.argmax(revenue_levels, axis=0)
    take = np.arange(best.size)
    best_rev = revenue_levels[best, take]
    best_price = levels[best, take]
    best_buyers = buyers_levels[best, take]
    positive = best_rev > 0
    live_indices = np.flatnonzero(live)
    prices[live_indices[positive]] = best_price[positive]
    revenues[live_indices[positive]] = best_rev[positive]
    buyers_out[live_indices[positive]] = best_buyers[positive]
    return prices, revenues, buyers_out


def _sigmoid_buyers_exact(
    wtp_columns: np.ndarray,
    effective: np.ndarray,
    levels: np.ndarray,
    gamma: float,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
) -> np.ndarray:
    """Exact expected buyers per level: Σ_u σ(γ(effective_u − p_t)).

    Computed per (level, user, column) in memory-bounded chunks
    (``chunk_elements=None`` disables chunking).  Consumers with zero
    willingness to pay never adopt (see the adoption module); a
    consumer-bucketing approximation (the paper's own device) was tried
    here but misplaces the rating classes that sit exactly on grid levels,
    so the exact scan is used — it is the hot path only for the stochastic
    sweep experiments, which run at reduced scale.  The per-user reduction
    goes through :func:`tree_sum`, so results are bit-identical for every
    chunk width.
    """
    n_users, n_cols = effective.shape
    n_levels = levels.shape[0]
    buyers = np.empty((n_levels, n_cols), dtype=np.float64)
    in_market = wtp_columns > 0
    budget = chunk_elements if chunk_elements is not None else n_users * n_levels * n_cols
    chunk = max(1, budget // max(1, n_users * n_levels))
    for start in range(0, n_cols, chunk):
        stop = min(start + chunk, n_cols)
        z = np.clip(
            gamma * (effective[None, :, start:stop] - levels[:, None, start:stop]),
            -500.0,
            500.0,
        )
        probs = 1.0 / (1.0 + np.exp(-z))
        probs *= in_market[None, :, start:stop]
        buyers[:, start:stop] = tree_sum(probs, axis=1)
    return buyers


def _price_explicit_batch(
    columns: np.ndarray,
    adoption: AdoptionModel,
    levels: np.ndarray,
    chunk_elements: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized explicit-grid pricing (arbitrary ascending price list).

    Adopter counts for all levels and a chunk of columns are computed in
    one broadcast comparison (deterministic) or sigmoid evaluation
    (stochastic).  Zero-WTP consumers follow the adoption model's rule
    (see :mod:`repro.core.adoption`), revenue ties break toward the lower
    price, and columns whose best revenue is non-positive come back as all
    zeros.
    """
    n_users, n_bundles = columns.shape
    n_levels = levels.size
    prices = np.zeros(n_bundles)
    revenues = np.zeros(n_bundles)
    buyers_out = np.zeros(n_bundles)
    if n_bundles == 0 or n_levels == 0:
        return prices, revenues, buyers_out
    effective = adoption.alpha * columns + adoption.epsilon
    in_market = columns > 0
    deterministic = adoption.is_deterministic
    if deterministic:
        compare = levels - decision_tolerance(levels)
    gamma = getattr(adoption, "gamma", 1.0)
    budget = chunk_elements if chunk_elements is not None else n_users * n_levels * n_bundles
    chunk = max(1, budget // max(1, n_users * n_levels))
    for start in range(0, n_bundles, chunk):
        stop = min(start + chunk, n_bundles)
        eff = effective[:, start:stop]
        if deterministic:
            # Integer adopter counts: exact under any chunking.
            adopter = eff[None, :, :] >= compare[:, None, None]
            buyers_levels = adopter.sum(axis=1).astype(np.float64)  # (T, c)
        else:
            z = np.clip(gamma * (eff[None, :, :] - levels[:, None, None]), -500.0, 500.0)
            probs = 1.0 / (1.0 + np.exp(-z))
            probs *= in_market[None, :, start:stop]
            buyers_levels = tree_sum(probs, axis=1)
        revenue_levels = levels[:, None] * buyers_levels
        best = np.argmax(revenue_levels, axis=0)  # first (lowest) level on ties
        span = np.arange(stop - start)
        best_rev = revenue_levels[best, span]
        positive = best_rev > 0
        window = slice(start, stop)
        prices[window] = np.where(positive, levels[best], 0.0)
        revenues[window] = np.where(positive, best_rev, 0.0)
        buyers_out[window] = np.where(positive, buyers_levels[best, span], 0.0)
    return prices, revenues, buyers_out


def _price_exact_batch(
    columns: np.ndarray,
    adoption: AdoptionModel,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-free pricing: every effective-WTP value is a candidate price.

    Under the step model the revenue curve only changes at those values,
    so the optimum is ``max (i+1)·v_i`` over each column's values sorted
    descending.  Under the sigmoid model each column's in-market values
    are scanned as levels, O(M²) per column (a reference, not a hot
    path).  Ties break toward the lower price.
    """
    effective = adoption.alpha * columns + adoption.epsilon
    n_users, n_bundles = effective.shape
    if adoption.is_deterministic:
        levels = -np.sort(-effective, axis=0)
        ranks = np.arange(1, n_users + 1, dtype=np.float64)[:, None]
        buyers = np.broadcast_to(ranks, levels.shape)
        revenue = levels * ranks
        revenue[levels <= 0] = 0.0
        # The last maximum in descending order is the lowest tied price.
        best = n_users - 1 - np.argmax(revenue[::-1], axis=0)
    else:
        # In-market values ascending; the out-of-market slots sort last and
        # become level 0, which earns nothing.
        levels = np.sort(np.where(columns > 0, effective, np.inf), axis=0)
        levels[np.isinf(levels)] = 0.0
        buyers = _sigmoid_buyers_exact(
            columns, effective, levels, getattr(adoption, "gamma", 1.0), chunk_elements
        )
        revenue = levels * buyers
        best = np.argmax(revenue, axis=0)
    take = np.arange(n_bundles)
    revenues = revenue[best, take]
    dead = revenues <= 0
    return (
        np.where(dead, 0.0, levels[best, take]),
        np.where(dead, 0.0, revenues),
        np.where(dead, 0.0, buyers[best, take]),
    )


# -------------------------------------------------------------------- mixed
def feasible_levels(
    grid: PriceGrid, effective: np.ndarray, floor: float, ceiling: float
) -> np.ndarray:
    """Grid levels strictly inside the mixed-bundling interval (floor, ceiling)."""
    levels = grid.candidates(effective)
    if levels.size == 0:
        return levels
    return levels[(levels > floor) & (levels < ceiling)]


def price_mixed_bundle(
    bundle_wtp: np.ndarray,
    base_score: np.ndarray,
    base_pay: np.ndarray,
    floor: float,
    ceiling: float,
    adoption: AdoptionModel | None = None,
    grid: PriceGrid | None = None,
    bundle: Bundle | None = None,
) -> MixedMerge:
    """Price a bundle offered on top of an existing sub-offer state.

    ``base_score``/``base_pay`` describe the per-consumer choice state of
    the offers the bundle would cover (see
    :class:`repro.core.choice.SubtreeState`): under deterministic adoption,
    the best achievable surplus and the payment at that choice; under
    stochastic adoption, the log partition function and the expected
    payment.  The bundle price is searched over the grid levels strictly
    inside ``(floor, ceiling)`` — the Guiltinan constraints with the
    covered offers' prices — maximizing the expected *additional* revenue

        gain(p) = Σ_u  P(upgrade at p) · (p − base_pay_u),

    where P(upgrade) is an indicator ``u_b ≥ base_score`` (deterministic;
    ties toward the bundle, the paper's Table 1 convention) or
    ``σ(u_b − base_score)`` (multinomial logit, the exact multi-option
    generalization of Equation 6).
    """
    adoption = adoption or StepAdoption()
    grid = grid or PriceGrid()
    placeholder = bundle if bundle is not None else Bundle.of(0)
    w_b = np.asarray(bundle_wtp, dtype=np.float64)
    effective = adoption.alpha * w_b + adoption.epsilon
    levels = feasible_levels(grid, effective, floor, ceiling)
    if levels.size == 0 or ceiling <= floor:
        return MixedMerge(placeholder, 0.0, 0.0, 0.0, feasible=False)
    gamma = 1.0 if adoption.is_deterministic else getattr(adoption, "gamma", 1.0)
    utility = gamma * (effective[None, :] - levels[:, None])  # (T', M)
    if adoption.is_deterministic:
        tol = decision_tolerance(levels)[:, None]
        take = (utility >= base_score[None, :] - tol) & (w_b > 0)[None, :]
    else:
        take = 1.0 / (1.0 + np.exp(-np.clip(utility - base_score[None, :], -500.0, 500.0)))
        take = take * (w_b > 0)[None, :]
    gains = (take * (levels[:, None] - base_pay[None, :])).sum(axis=1)
    upgraded = take.sum(axis=1).astype(np.float64)
    best = int(np.argmax(gains))
    return MixedMerge(
        bundle=placeholder,
        price=float(levels[best]),
        gain=float(gains[best]),
        upgraded=float(upgraded[best]),
        feasible=True,
    )


def price_mixed_bundle_batch(
    bundle_wtps: np.ndarray,
    base_scores: np.ndarray,
    base_pays: np.ndarray,
    floors: np.ndarray,
    ceilings: np.ndarray,
    adoption: AdoptionModel | None = None,
    grid: PriceGrid | None = None,
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`price_mixed_bundle` across ``P`` candidate merges.

    All per-consumer inputs are column-stacked ``(M, P)`` arrays; ``floors``
    and ``ceilings`` are ``(P,)``.  Returns ``(prices, gains, upgraded,
    feasible)``.  Requires a linspace grid (the algorithms' hot path); grid
    levels outside a pair's Guiltinan interval are never selected.  This is
    the one batch mixed pricer, and the adoption model alone picks its
    body: the step-histogram scan (:func:`_price_mixed_step`, O(M + T) per
    pair) under deterministic adoption, the Guiltinan-band level scan
    (:func:`_price_mixed_sigmoid`, O(T'·M) per pair) under sigmoid
    adoption.  Both are column-independent and bit-identical for any
    column batching, chunk budget and worker count.
    """
    adoption = adoption or StepAdoption()
    grid = grid or PriceGrid()
    if grid.mode != "linspace":
        raise PricingError("batch mixed pricing requires a linspace grid")
    w_b = np.asarray(bundle_wtps, dtype=np.float64)
    if w_b.ndim != 2:
        raise ValidationError(f"bundle_wtps must be 2-D, got shape {w_b.shape}")
    floors = np.asarray(floors, dtype=np.float64)
    ceilings = np.asarray(ceilings, dtype=np.float64)
    if adoption.is_deterministic:
        return _price_mixed_step(
            w_b, base_scores, base_pays, floors, ceilings, adoption, grid.n_levels
        )
    return _price_mixed_sigmoid(
        w_b, base_scores, base_pays, floors, ceilings, adoption, grid.n_levels,
        chunk_elements,
    )


def _price_mixed_sigmoid(
    w_b: np.ndarray,
    base_scores: np.ndarray,
    base_pays: np.ndarray,
    floors: np.ndarray,
    ceilings: np.ndarray,
    adoption: AdoptionModel,
    n_levels: int,
    chunk_elements: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band-scan body of :func:`price_mixed_bundle_batch` (sigmoid adoption).

    Every user upgrades at every level with probability ``σ(γ(u_b − p) −
    base_score)``, so each level of the Guiltinan band is evaluated over
    every user: O(T'·M) per pair.  ``chunk_elements`` bounds the
    (levels × users × pairs) temporaries; ``None`` disables chunking — the
    same convention as :func:`price_pure_batch`.
    """
    n_users, n_pairs = w_b.shape
    effective = adoption.alpha * w_b + adoption.epsilon

    prices = np.zeros(n_pairs)
    gains = np.full(n_pairs, -np.inf)
    upgraded = np.zeros(n_pairs)
    feasible = np.zeros(n_pairs, dtype=bool)

    tops = effective.max(axis=0)
    gamma = getattr(adoption, "gamma", 1.0)

    budget = chunk_elements if chunk_elements is not None else n_users * n_levels * n_pairs
    chunk = max(1, budget // max(1, n_users * n_levels))
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
        # Only the contiguous band of levels that intersects some pair's
        # Guiltinan interval is ever selected (everything else is masked to
        # -inf below), so the O(T·M·c) work is restricted to that band.
        # Level rows are computed independently — each (level, pair) gain
        # reduces over the same per-user values in the same order — so the
        # surviving results are bit-identical to the full-grid scan.
        band_rows = np.flatnonzero(valid.any(axis=1))
        lo, hi = int(band_rows[0]), int(band_rows[-1]) + 1
        levels = all_levels[lo:hi]  # (T', c)
        utility = effective[None, :, start:stop] - levels[:, None, :]  # (T', M, c)
        if gamma != 1.0:
            utility *= gamma
        in_market = (w_b[:, start:stop] > 0)[None, :, :]
        delta = levels[:, None, :] - base_pays[None, :, start:stop]
        logit = np.clip(utility - base_scores[None, :, start:stop], -500.0, 500.0)
        take = 1.0 / (1.0 + np.exp(-logit))
        take = take * in_market
        # Probability sums are float accumulations: fixed-tree reduction
        # keeps the path bit-stable under any chunk width.
        np.multiply(take, delta, out=delta)
        gain_levels = np.full((n_levels, width), -np.inf)
        gain_levels[lo:hi] = tree_sum(delta, axis=1)
        upg_levels = np.zeros((n_levels, width))
        upg_levels[lo:hi] = tree_sum(take, axis=1)
        gain_levels = np.where(valid, gain_levels, -np.inf)
        best = np.argmax(gain_levels, axis=0)
        span = np.arange(width)
        prices[start:stop] = np.where(has_level, all_levels[best, span], 0.0)
        gains[start:stop] = np.where(has_level, gain_levels[best, span], -np.inf)
        upgraded[start:stop] = np.where(has_level, upg_levels[best, span], 0.0)
    return prices, gains, upgraded, feasible


def _price_mixed_step(
    w_b: np.ndarray,
    base_scores: np.ndarray,
    base_pays: np.ndarray,
    floors: np.ndarray,
    ceilings: np.ndarray,
    adoption: AdoptionModel,
    n_levels: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step-histogram body of :func:`price_mixed_bundle_batch` (step adoption).

    Under the step model, user ``u`` upgrades to the merged bundle at level
    ``t`` iff ``compare_t ≤ margin_u``, where ``compare_t = level_t −
    decision_tolerance(level_t)`` and ``margin_u = effective_u −
    base_score_u`` (below every threshold for users with zero bundle
    WTP).  The
    thresholds ascend, so each user upgrades at exactly the levels
    ``1..b_u`` for a *bucket* ``b_u = #{t : compare_t ≤ margin_u}`` in
    ``[0, T]``, and for one pair

        gain(t) = level_t · #{b_u ≥ t}  −  Σ(base_pay | b_u ≥ t).

    The whole ``(M, P)`` block is priced in one pass, with no per-pair
    loop: margins for every column at once; buckets from the float
    estimate ``margin / step`` clipped to ``[0, T]``, then raised level by
    level while the next threshold is at or below the margin (exact, even
    for tiny tops where the slack spans several levels); one ``bincount``
    of buckets and one weighted by base payment over per-column offsets;
    suffix sums over levels; ``gain`` inside the Guiltinan band; the first
    (lowest) argmax.  Only pairs with a feasible level are priced.

    The level grid, the slack and the tie-break are those of the
    level-by-user scan of :func:`price_mixed_bundle`, and the threshold
    test is its comparison rearranged, so ``prices``, ``upgraded`` and
    ``feasible`` depend only on the integer upgrade sets.  ``gains`` differ
    from a level-by-user scan's by payment summation order (ulps of the
    payment sums): a merge whose exact gain is zero comes out as about
    ±1e-13, and that sign, or the winning level of an exact tie, can
    differ between the two.

    The body's working memory is a few ``M × P`` buffers, so callers bound
    ``P``: the streamed scan of :mod:`repro.core.kernels` passes
    cache-sized blocks.  Column-major (Fortran-order) input keeps every
    pass contiguous; any layout gives the same bits, and each bin sums its
    users in user order, so results are bit-identical for any column
    batching, chunk budget and worker count.
    """
    n_users, n_pairs = w_b.shape
    prices = np.zeros(n_pairs)
    gains = np.full(n_pairs, -np.inf)
    upgraded = np.zeros(n_pairs)
    feasible = np.zeros(n_pairs, dtype=bool)
    if n_pairs == 0 or n_users == 0:
        return prices, gains, upgraded, feasible

    if adoption.alpha == 1.0 and adoption.epsilon == 0.0:
        effective = w_b
    else:
        effective = adoption.alpha * w_b + adoption.epsilon
    tops = effective.max(axis=0)
    step = tops / n_levels
    # The level arithmetic of PriceGrid.candidates: rank · (top / T).
    levels = step[:, None] * np.arange(1, n_levels + 1, dtype=np.float64)
    valid = (levels > floors[:, None]) & (levels < ceilings[:, None])
    valid &= (tops > 0)[:, None]
    live = valid.any(axis=1)
    feasible[:] = live
    if not live.any():
        return prices, gains, upgraded, feasible
    if not live.all():
        cols = np.flatnonzero(live)
        w_b, effective = w_b[:, cols], effective[:, cols]
        base_scores, base_pays = base_scores[:, cols], base_pays[:, cols]
        step, levels, valid = step[cols], levels[cols], valid[cols]
    width = w_b.shape[1]

    # margin, then buckets, in one column-major buffer each; ravel(order="F")
    # walks users within a column, so every bin sums its users in order.
    margin = np.subtract(effective, base_scores, order="F", dtype=np.float64)
    # Out-of-market users (zero WTP) sit below every threshold: bucket 0.
    # Adding the lowest float is branch-free; a masked -inf store
    # mispredicts on every scattered zero and costs several passes.
    margin += (w_b <= 0) * np.finfo(np.float64).min
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        estimate = np.divide(margin, step, order="F")
    # fmax/fmin send nan (a zero step) to 0 and ±inf to the range ends.
    np.fmax(estimate, 0.0, out=estimate)
    np.fmin(estimate, n_levels, out=estimate)
    key = estimate.astype(np.intp, order="F")
    del estimate
    # Column k owns slots k·(T+2) .. k·(T+2)+T+1 of the threshold table:
    # slot t holds compare_t, slot T+1 is +inf so a probe never runs off.
    span = n_levels + 2
    key += np.arange(0, width * span, span)
    thresholds = np.empty((width, span))
    thresholds[:, 1 : n_levels + 1] = levels - decision_tolerance(levels)
    thresholds[:, 0] = -np.inf
    thresholds[:, -1] = np.inf
    next_threshold = thresholds.ravel()[1:]
    flat_key = key.ravel(order="F")
    flat_margin = margin.ravel(order="F")
    # The estimate never overshoots (the slack, >= 1e-9 absolute and
    # relative, dwarfs the rounding of one division), so the correction
    # only ever raises a bucket: one full probe, then the stragglers.
    moving = np.flatnonzero(next_threshold.take(flat_key) <= flat_margin)
    while moving.size:
        flat_key[moving] += 1
        moving = moving[
            next_threshold.take(flat_key[moving]) <= flat_margin[moving]
        ]
    del margin

    n_bins = width * span
    counts = np.bincount(flat_key, minlength=n_bins).reshape(width, span)
    paid = np.bincount(
        flat_key, weights=base_pays.ravel(order="F"), minlength=n_bins
    ).reshape(width, span)
    # Level t counts the users with bucket >= t: suffix sums over slots.
    count_levels = np.cumsum(counts[:, :0:-1], axis=1)[:, :0:-1].astype(np.float64)
    pay_levels = np.cumsum(paid[:, :0:-1], axis=1)[:, :0:-1]
    gain_levels = levels * count_levels - pay_levels
    gain_levels[~valid] = -np.inf
    best = np.argmax(gain_levels, axis=1)  # first (lowest) level on ties
    rows = np.arange(width)
    prices[live] = levels[rows, best]
    gains[live] = gain_levels[rows, best]
    upgraded[live] = count_levels[rows, best]
    return prices, gains, upgraded, feasible
