"""Adoption models (paper, Section 4.1 / Equation 6 / Figure 1).

A consumer ``u`` adopts a bundle ``b`` priced at ``p`` with probability

    P(ν=1 | p, w) = 1 / (1 + exp(−γ(α·w − p + ε)))

where ``w`` is the consumer's willingness to pay, γ is the *stochastic
sensitivity* to price (γ→∞ recovers the classical step function "buy iff
w ≥ p"), α is a *bias* for adoption (α>1 shifts the curve toward buying),
and ε is a small offset (the paper uses ε=1e-6 together with γ=1e6 to
emulate the step function).

Two concrete models are provided:

* :class:`SigmoidAdoption` — Equation 6 verbatim.
* :class:`StepAdoption` — the exact γ→∞ limit, deterministic and cheaper;
  it still honours α and ε, adopting iff ``α·w − p + ε ≥ 0``.

Consumers with *zero* willingness to pay never adopt under the sigmoid
model: the paper builds transactions from "items for which this consumer
has non-zero willingness to pay" (Section 6.1.3) — a non-rater is outside
the item's market, not a coin-flip buyer.  Without this rule a flat
sigmoid (small γ) would sell high-priced bundles to consumers who do not
want them at all, and coverage would *fall* with γ instead of rising
(Figure 3's trend).  The step model applies its rule as written: a
zero-WTP consumer's surplus is ``ε − p``, so with ε > 0 they adopt at
prices up to ε (never at the default ε = 0).  Standalone pricing
(:func:`repro.core.pricing.price_pure_batch`) and evaluation count them
that way; the mixed-merge kernels still leave them out of an upgrade.

Both expose the *utility* ``γ(α·w − p + ε)`` used by the consumer-choice
layer (:mod:`repro.core.choice`): Equation 6 is exactly the binary-logit
probability for that utility against an outside option of utility 0.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive

#: Parameter defaults from Table 3 of the paper.
PAPER_STEP_GAMMA = 1e6
PAPER_EPSILON = 1e-6

#: Relative tolerance of the deterministic adoption decision.  Grid price
#: levels are computed with floating-point arithmetic and routinely land
#: one ulp away from the WTP values they were derived from; "adopt iff
#: w >= p" must not drop a whole rating class over that ulp.
DECISION_RTOL = 1e-9


def decision_tolerance(price) -> np.ndarray:
    """Absolute comparison slack for a deterministic decision at *price*."""
    return DECISION_RTOL * (1.0 + np.abs(np.asarray(price, dtype=np.float64)))


class AdoptionModel(ABC):
    """Maps (willingness to pay, price) to adoption probabilities."""

    #: True when probabilities are only ever exactly 0 or 1.
    is_deterministic: bool = False

    @abstractmethod
    def probability(self, wtp, price) -> np.ndarray:
        """P(adopt) for each WTP value; broadcasts ``wtp`` against ``price``."""

    @abstractmethod
    def surplus(self, wtp, price) -> np.ndarray:
        """Effective consumer surplus ``α·w − p + ε`` (sign decides adoption)."""

    @abstractmethod
    def utility(self, wtp, price) -> np.ndarray:
        """Logit utility ``γ(α·w − p + ε)`` of buying versus not buying."""

    def sample(self, wtp, price, rng=None) -> np.ndarray:
        """Draw Bernoulli adoption indicators with :meth:`probability`."""
        rng = ensure_rng(rng)
        probs = self.probability(wtp, price)
        return rng.random(size=np.shape(probs)) < probs


class SigmoidAdoption(AdoptionModel):
    """Equation 6: ``P = σ(γ(α·w − p + ε))``.

    Parameters
    ----------
    gamma:
        Price sensitivity γ > 0.  Small γ flattens the curve (more adoption
        uncertainty); large γ approaches the step function.
    alpha:
        Adoption bias α > 0; α>1 biases toward adoption, α<1 against.
    epsilon:
        Offset ε ≥ 0 (paper default 1e-6).
    """

    is_deterministic = False

    def __init__(self, gamma: float = 1.0, alpha: float = 1.0, epsilon: float = 0.0) -> None:
        self.gamma = check_positive(gamma, "gamma")
        self.alpha = check_positive(alpha, "alpha")
        self.epsilon = check_non_negative(epsilon, "epsilon")

    @classmethod
    def step_like(cls) -> "SigmoidAdoption":
        """The paper's default: γ=1e6, ε=1e-6, emulating a step function."""
        return cls(gamma=PAPER_STEP_GAMMA, alpha=1.0, epsilon=PAPER_EPSILON)

    def surplus(self, wtp, price) -> np.ndarray:
        wtp = np.asarray(wtp, dtype=np.float64)
        return self.alpha * wtp - np.asarray(price, dtype=np.float64) + self.epsilon

    def utility(self, wtp, price) -> np.ndarray:
        wtp = np.asarray(wtp, dtype=np.float64)
        utility = self.gamma * self.surplus(wtp, price)
        # Zero-WTP consumers are outside the market (see module docstring).
        return np.where(wtp > 0, utility, -1.0e9)

    def probability(self, wtp, price) -> np.ndarray:
        # Numerically-stable logistic: exp overflow is avoided by clipping
        # the argument; beyond |37| the result is 0/1 at double precision.
        z = np.clip(self.utility(wtp, price), -500.0, 500.0)
        return 1.0 / (1.0 + np.exp(-z))

    def __repr__(self) -> str:
        return f"SigmoidAdoption(gamma={self.gamma!r}, alpha={self.alpha!r}, epsilon={self.epsilon!r})"


class StepAdoption(AdoptionModel):
    """The deterministic γ→∞ limit: adopt iff ``α·w − p + ε ≥ 0``.

    This is the convention of the classical bundling literature ([1] in the
    paper) and the paper's experimental default (Table 3 sets γ=1e6 to
    "simulate the step function").  Using the exact limit keeps the default
    experiments deterministic.
    """

    is_deterministic = True

    def __init__(self, alpha: float = 1.0, epsilon: float = 0.0) -> None:
        self.alpha = check_positive(alpha, "alpha")
        self.epsilon = check_non_negative(epsilon, "epsilon")

    def surplus(self, wtp, price) -> np.ndarray:
        wtp = np.asarray(wtp, dtype=np.float64)
        return self.alpha * wtp - np.asarray(price, dtype=np.float64) + self.epsilon

    def utility(self, wtp, price) -> np.ndarray:
        # The step model's utility is ±∞ conceptually; the sign (and the
        # magnitude, for tie-breaking between options) of the surplus is
        # what the choice layer needs.
        return self.surplus(wtp, price)

    def probability(self, wtp, price) -> np.ndarray:
        tolerance = decision_tolerance(price)
        return (self.surplus(wtp, price) >= -tolerance).astype(np.float64)

    def sample(self, wtp, price, rng=None) -> np.ndarray:
        # Deterministic: no randomness needed.
        return self.surplus(wtp, price) >= -decision_tolerance(price)

    def __repr__(self) -> str:
        return f"StepAdoption(alpha={self.alpha!r}, epsilon={self.epsilon!r})"
