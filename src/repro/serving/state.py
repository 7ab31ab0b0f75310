"""Warm serving state: a solution's menu precomputed for batched quoting.

:meth:`repro.api.BundlingSolution.quote` is correct but *cold*: every call
re-validates the solution, rebuilds a :class:`RevenueEngine` from the stored
config and rebuilds the adoption model — menu-side work that never changes
between requests.  :class:`ServingState` does that work exactly once:

* the **compiled offer forest**, the configuration's own
  :class:`~repro.core.choice.ForestPlan` (a pure menu's is every offer
  as a root), and a single built adoption model;
* the solution **fingerprint**, stamped on every response so clients can
  detect version skew across hot reloads.

Bit-identity is the design constraint: a quote answered from warm state
must equal ``solution.quote()`` to the last ulp.  The warm path therefore
runs the *same* code as the cold one — the plan, and the configuration's
revenue rule — only the per-call rebuild work is skipped.  A pure menu's
revenue is Σ price · buyers, so its batch runs one
:meth:`~repro.core.choice.ForestPlan.evaluate_ranges` pass that reduces
each request's buyers over its own rows; a mixed menu's revenue is the
payments' sum, so its batch asks the plan for payments only.  Because
every per-user quantity in the plan is computed elementwise (or reduced
along each user's own row), stacking many requests' rows into one batch
matrix and pricing them with one kernel call yields, for each request,
exactly the payments, revenue, and coverage that quoting its rows alone
would have produced.  That claim is pinned by ``tests/test_serving.py``
across batch sizes, adoption models, and engine configurations.  One
exception: numpy sums a one-row bundle gather pairwise and a gather of
more rows left to right, so where those sums round (bundles of 8+ items
on WTP off the ratings grid) a one-row request priced inside a larger
batch can differ in the last bit from the same row quoted alone (ROADMAP
item 3).

The ``quote_batch`` fault site lives here: when armed it raises
:class:`~repro.errors.ServingError` before pricing, standing in for a
faulting batched kernel so the micro-batcher's sequential fallback can be
exercised deterministically.  The sequential path
(:meth:`ServingState.quote_single`) never consults the site — it *is* the
degraded mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import faults
from repro.core.choice import ChoiceOutcome, ForestPlan
from repro.core.wtp import WTPMatrix
from repro.errors import ServingError, ValidationError

#: The pure strategy tag (mirrors :mod:`repro.algorithms.base`).
_PURE = "pure"


@dataclass(frozen=True)
class PreparedRows:
    """One request's consumer rows, validated.

    ``raw`` keeps the rows exactly as received so a request admitted under
    one :class:`ServingState` can be re-prepared coherently if a hot reload
    swaps the state before its batch is priced.  ``matrix`` is the rows as
    a :class:`WTPMatrix`, exactly as a cold ``quote()`` builds them, and
    ``total_wtp`` its aggregate WTP — the coverage denominator, computed on
    this request's rows alone so it matches the cold path bit-for-bit.
    """

    raw: object
    matrix: WTPMatrix
    total_wtp: float
    state: "ServingState"

    @property
    def n_users(self) -> int:
        return self.matrix.n_users


@dataclass(frozen=True)
class ServedQuote:
    """One request's priced outcome, as served.

    ``payments``/``revenue``/``coverage`` are bit-identical to the
    :class:`~repro.api.solution.QuoteResult` fields of
    ``solution.quote(rows)`` for the same rows.  ``fingerprint`` names the
    exact solution that priced this request — across a hot reload, every
    response is stamped with the state that actually served it.
    ``batched`` is False when the micro-batcher degraded this request to
    the sequential path.
    """

    payments: np.ndarray
    revenue: float
    coverage: float
    fingerprint: str
    batched: bool = True

    @property
    def n_users(self) -> int:
        return int(self.payments.size)


class ServingState:
    """A frozen, precomputed view of one :class:`BundlingSolution`'s menu.

    Instances are immutable by convention (nothing mutates after
    construction) and safe to share across threads: hot reload swaps the
    *reference* to a fresh state atomically rather than mutating one in
    place, so a batch priced under a captured state reference is coherent
    even while a reload lands.
    """

    def __init__(self, solution) -> None:
        config = solution.engine_config
        self.solution = solution
        self.fingerprint: str = solution.fingerprint()
        self.strategy: str = solution.strategy
        self.algorithm: str = solution.algorithm
        self.n_items: int = solution.n_items
        self.theta: float = config.theta
        self.adoption = config.adoption.build()
        self.configuration = solution.configuration
        self.offers = self.configuration.offers
        self.plan: ForestPlan = self.configuration.plan()

    # -------------------------------------------------------------- admission
    def prepare_rows(self, rows) -> PreparedRows:
        """Validate one request's WTP rows for serving.

        Mirrors the cold path's input handling exactly: the rows are built
        into a (validating) :class:`WTPMatrix` — non-numeric, ragged,
        negative, NaN, or infinite input raises
        :class:`~repro.errors.ValidationError` here, before the request is
        ever queued.
        """
        if isinstance(rows, WTPMatrix):
            raise ValidationError(
                "serving expects raw consumer rows (list / ndarray / SciPy "
                "sparse), not a WTPMatrix — the server validates rows itself"
            )
        matrix = WTPMatrix(rows)
        if matrix.n_items != self.n_items:
            raise ValidationError(
                f"quote rows have {matrix.n_items} items; the serving solution "
                f"was fitted on {self.n_items}"
            )
        return PreparedRows(raw=rows, matrix=matrix, total_wtp=matrix.total, state=self)

    # ---------------------------------------------------------------- pricing
    def quote_batch(self, blocks: list[PreparedRows]) -> list[ServedQuote]:
        """Price several requests' rows with one warm kernel pass.

        The blocks' converted matrices are stacked into one batch matrix
        and priced together; each block's slice of the result is assembled
        into a :class:`ServedQuote` whose payments, revenue, and coverage
        are bit-identical to quoting that block alone.  Consults the
        ``quote_batch`` fault site first, so resilience tests can make the
        batched kernel fail on demand.
        """
        if faults.fire("quote_batch") is not None:
            raise ServingError("injected quote_batch fault")
        return self._quote_blocks(blocks, batched=True)

    def quote_single(self, block: PreparedRows) -> ServedQuote:
        """Price one request sequentially (the degraded fallback path)."""
        return self._quote_blocks([block], batched=False)[0]

    def _quote_blocks(
        self, blocks: list[PreparedRows], batched: bool
    ) -> list[ServedQuote]:
        if not blocks:
            return []
        for block in blocks:
            if block.matrix.n_items != self.n_items:
                raise ValidationError(
                    f"quote rows have {block.matrix.n_items} items; the serving "
                    f"solution was fitted on {self.n_items}"
                )
        if len(blocks) == 1:
            matrix = blocks[0].matrix
        else:
            matrix = WTPMatrix.stack([block.matrix for block in blocks])
        bounds = np.cumsum([0] + [block.n_users for block in blocks]).tolist()
        if self.strategy == _PURE:
            # Pure revenue is Σ price · buyers, so each request's buyers
            # come from the one pass, reduced over its own rows.
            outcomes = self.plan.evaluate_ranges(
                matrix, self.theta, self.adoption, bounds
            )
        else:
            # Mixed revenue is the payments' sum: no buyers pass.
            payments = self.plan.payments(matrix, self.theta, self.adoption)
            outcomes = [
                ChoiceOutcome(payments=payments[lo:hi], buyers_per_offer={})
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        quotes = []
        for block, outcome in zip(blocks, outcomes):
            revenue = self.configuration.revenue(outcome)
            quotes.append(
                ServedQuote(
                    payments=outcome.payments.copy(),
                    revenue=revenue,
                    coverage=self._coverage(revenue, block.total_wtp),
                    fingerprint=self.fingerprint,
                    batched=batched,
                )
            )
        return quotes

    # ------------------------------------------------------------- internals
    @staticmethod
    def _coverage(revenue: float, total_wtp: float) -> float:
        """``RevenueEngine.coverage`` against a precomputed denominator."""
        if total_wtp <= 0:
            return 0.0
        return revenue / total_wtp

    def __repr__(self) -> str:
        return (
            f"ServingState({self.algorithm}/{self.strategy}, "
            f"{len(self.offers)} offers over {self.n_items} items, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )
