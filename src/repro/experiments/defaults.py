"""Default parameter settings (paper, Table 3) and experiment scales.

====================  =======================================  =============
Notation              Description                              Default value
====================  =======================================  =============
λ (``LAMBDA``)        ratings → WTP conversion factor          1.25
θ (``THETA``)         bundling coefficient (Equation 1)        0
k (``K``)             max bundle size                          ∞ (``None``)
γ (``GAMMA``)         stochastic sensitivity to price          1e6 (step)
α (``ALPHA``)         stochastic bias for adoption             1 (unbiased)
T (``PRICE_LEVELS``)  discretized price levels (Section 4.2)   100
====================  =======================================  =============

The paper runs on 4,449 users × 5,028 items; the default *bench scale*
here is 800 × 120 (and 500 × 80 for the stochastic sweeps) so every
table/figure regenerates in minutes of pure Python — see EXPERIMENTS.md
for the scale discussion.
"""

from __future__ import annotations

from repro.core.adoption import StepAdoption
from repro.core.revenue import RevenueEngine
from repro.core.wtp import WTPMatrix
from repro.data.ratings import RatingsDataset
from repro.data.synthetic import amazon_books_like
from repro.data.wtp_mapping import wtp_from_ratings

#: Table 3 defaults.
LAMBDA = 1.25
THETA = 0.0
K = None
GAMMA = 1.0e6
ALPHA = 1.0
PRICE_LEVELS = 100

#: Default bench-scale dataset (scaled from the paper's 4,449 × 5,028).
BENCH_USERS = 800
BENCH_ITEMS = 120
BENCH_SEED = 0

#: Smaller scale for the stochastic (sigmoid) sweeps of Figures 3–4.
SWEEP_USERS = 500
SWEEP_ITEMS = 80


def bench_dataset(
    n_users: int = BENCH_USERS, n_items: int = BENCH_ITEMS, seed=BENCH_SEED, **kwargs
) -> RatingsDataset:
    """The default experiment dataset (seeded, k-core filtered)."""
    return amazon_books_like(n_users=n_users, n_items=n_items, seed=seed, **kwargs)


def bench_wtp(dataset: RatingsDataset | None = None, conversion: float = LAMBDA) -> WTPMatrix:
    """WTP matrix of the default dataset under the Table 3 λ."""
    if dataset is None:
        dataset = bench_dataset()
    return wtp_from_ratings(dataset, conversion=conversion)


def default_engine(
    wtp: WTPMatrix,
    theta: float = THETA,
    adoption=None,
    n_levels: int = PRICE_LEVELS,
    **engine_kwargs,
) -> RevenueEngine:
    """Engine under the Table 3 defaults (step adoption, 100 levels).

    .. deprecated::
        This is a thin shim over :class:`repro.api.EngineConfig` — the
        typed, validated, serializable engine recipe that new code should
        construct directly (``EngineConfig(...).build(wtp)``).  The shim
        routes the legacy ``**engine_kwargs`` (``chunk_elements=``,
        ``n_workers=``, ``state_dtype=``) through the config, so unknown
        knobs now fail validation instead of reaching
        :class:`RevenueEngine` as a ``TypeError``.

    Step adoption prices mixed merges with the step-histogram kernel; the
    golden snapshot is produced on that path.

    Values the config schema cannot describe — a custom
    :class:`AdoptionModel` subclass, an explicit ``grid=`` or
    ``objective=`` — keep their historical pass-through to
    :class:`RevenueEngine` (the backend knobs are still config-validated).
    """
    from repro.api.config import AdoptionSpec, EngineConfig
    from repro.core.adoption import SigmoidAdoption
    from repro.core.pricing import PriceGrid
    from repro.errors import ValidationError

    extras = {
        key: engine_kwargs.pop(key)
        for key in ("grid", "objective")
        if key in engine_kwargs
    }
    if extras.get("grid") is not None and n_levels != PRICE_LEVELS:
        # Historically grid= next to a conflicting n_levels could not
        # happen (both reached RevenueEngine's single grid parameter only
        # via separate call sites); refuse rather than pick one silently.
        raise ValidationError(
            "pass either grid= or n_levels=, not both"
        )
    adoption = adoption or StepAdoption()
    # Only exact Step/Sigmoid instances are losslessly describable by an
    # AdoptionSpec; a subclass (overridden behaviour) must reach the engine
    # untouched, not be rebuilt as its base class.
    describable = type(adoption) in (StepAdoption, SigmoidAdoption)
    try:
        config = EngineConfig(
            theta=theta,
            n_levels=n_levels,
            adoption=(
                AdoptionSpec.from_model(adoption) if describable else AdoptionSpec()
            ),
            **engine_kwargs,
        )
    except TypeError as exc:
        # Unknown legacy kwargs used to surface as a TypeError deep inside
        # RevenueEngine; the typed config turns them into validation errors.
        # Other TypeErrors (bad values for known options) propagate as-is.
        if "unexpected keyword argument" not in str(exc):
            raise
        raise ValidationError(f"unknown engine option: {exc}") from exc
    if describable and not extras:
        return config.build(wtp)
    # Escape hatch: construct directly, engine-side validation applying to
    # the real adoption/grid combination.
    return RevenueEngine(
        wtp,
        theta=config.theta,
        adoption=adoption,
        grid=extras.get("grid") or PriceGrid(n_levels=config.n_levels),
        objective=extras.get("objective"),
        chunk_elements=config.chunk_elements,
        n_workers=config.n_workers,
        state_dtype=config.state_dtype,
        drift_threshold=config.drift_threshold,
    )
