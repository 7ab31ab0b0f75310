"""Typed configuration objects for the public fit/serve API.

Before this module existed, every backend knob of
:class:`~repro.core.revenue.RevenueEngine` travelled the codebase as loose
``**engine_kwargs`` — threaded separately through
:func:`~repro.experiments.defaults.default_engine`, the algorithm registry,
the experiment harness, the benchmarks, and the CLI — and an algorithm run
was described by a name string plus an ad-hoc kwargs dict.  The two frozen
dataclasses here replace that plumbing with *validated, serializable*
values:

:class:`EngineConfig`
    Everything needed to (re)build a :class:`RevenueEngine` around a WTP
    matrix: the model parameters the paper sweeps (θ, the adoption model,
    the number of price levels) and the performance backends the streaming
    kernels grew (chunk budget, workers, state dtype).  Invalid values
    fail at construction, not mid-scan.

:class:`AlgorithmSpec`
    A registry algorithm name plus its constructor kwargs, validated
    against the algorithm's actual signature at construction (an unknown
    kwarg raises instead of being swallowed).

Both round-trip losslessly through ``to_dict``/``from_dict`` (plain-JSON
payloads; Python's ``json`` preserves float values exactly via shortest
round-trip repr), which is what lets a
:class:`~repro.api.solution.BundlingSolution` record *how* it was produced
and rebuild an identical serving engine later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from repro.algorithms.registry import validate_algorithm_kwargs
from repro.core.adoption import AdoptionModel, SigmoidAdoption, StepAdoption
from repro.core.kernels import (
    DEFAULT_CHUNK_ELEMENTS,
    check_chunk_elements,
    check_n_workers,
)
from repro.core.pricing import DEFAULT_PRICE_LEVELS, PriceGrid
from repro.core.revenue import (
    DEFAULT_DRIFT_THRESHOLD,
    RevenueEngine,
    check_drift_threshold,
)
from repro.errors import ValidationError
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)

#: Adoption model families the spec can describe (Section 4.1).
ADOPTION_KINDS = ("step", "sigmoid")

_DTYPE_CHOICES = (None, "float64", "float32")


def _check_choice(value, choices, name: str):
    if value not in choices:
        raise ValidationError(f"{name} must be one of {choices}, got {value!r}")
    return value


def _checked_payload(cls, payload, name: str) -> dict:
    """Validate a ``from_dict`` payload: a dict with no unknown keys."""
    if not isinstance(payload, dict):
        raise ValidationError(
            f"{name} payload must be a dict, got {type(payload).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValidationError(
            f"unknown {name} keys: {', '.join(unknown)}; known: "
            f"{', '.join(sorted(known))}"
        )
    return payload


# ------------------------------------------------------------------ adoption
@dataclass(frozen=True)
class AdoptionSpec:
    """Serializable description of an adoption model (Equation 6 family).

    ``kind="step"`` builds :class:`~repro.core.adoption.StepAdoption`
    (γ is ignored — the step model is the exact γ→∞ limit);
    ``kind="sigmoid"`` builds :class:`~repro.core.adoption.SigmoidAdoption`.
    """

    kind: str = "step"
    gamma: float = 1.0
    alpha: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        _check_choice(self.kind, ADOPTION_KINDS, "adoption kind")
        object.__setattr__(self, "gamma", float(check_positive(self.gamma, "gamma")))
        if self.kind == "step":
            # Step ignores gamma (it is the exact γ→∞ limit); normalize —
            # after validation, so bogus values never load silently — so
            # value-equal specs describe value-equal models and from_model
            # of a built step spec round-trips to an equal spec.
            object.__setattr__(self, "gamma", 1.0)
        object.__setattr__(self, "alpha", float(check_positive(self.alpha, "alpha")))
        object.__setattr__(
            self, "epsilon", float(check_non_negative(self.epsilon, "epsilon"))
        )

    def build(self) -> AdoptionModel:
        """A fresh adoption model instance described by this spec."""
        if self.kind == "step":
            return StepAdoption(alpha=self.alpha, epsilon=self.epsilon)
        return SigmoidAdoption(gamma=self.gamma, alpha=self.alpha, epsilon=self.epsilon)

    @classmethod
    def from_model(cls, adoption: AdoptionModel) -> "AdoptionSpec":
        """Capture an adoption model instance as a spec (inverse of :meth:`build`).

        Only exact :class:`StepAdoption`/:class:`SigmoidAdoption` instances
        are capturable — a subclass may override behaviour the spec cannot
        describe, and rebuilding it as its base class would silently change
        results, so it raises instead.
        """
        if type(adoption) is StepAdoption:
            return cls(kind="step", alpha=adoption.alpha, epsilon=adoption.epsilon)
        if type(adoption) is SigmoidAdoption:
            return cls(
                kind="sigmoid",
                gamma=adoption.gamma,
                alpha=adoption.alpha,
                epsilon=adoption.epsilon,
            )
        raise ValidationError(
            f"cannot capture adoption model of type {type(adoption).__name__} "
            "as an AdoptionSpec"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AdoptionSpec":
        return cls(**_checked_payload(cls, payload, "AdoptionSpec"))


# -------------------------------------------------------------------- engine
@dataclass(frozen=True)
class EngineConfig:
    """Validated, serializable recipe for a :class:`RevenueEngine`.

    Model parameters
    ----------------
    theta:
        Bundling coefficient θ of Equation 1 (> −1; Table 3 default 0).
    n_levels:
        Price levels T of the linspace grid (Section 4.2 default 100).
    adoption:
        An :class:`AdoptionSpec` (or its dict form).

    Backend parameters (see :class:`RevenueEngine` for full semantics)
    ------------------------------------------------------------------
    ``chunk_elements`` is the streaming buffers' memory ceiling (both pair
    scans work in smaller cache-sized blocks below it; ``None`` disables
    chunking); ``n_workers`` fans chunk scans out over
    that many threads (1, the default, runs them in order);
    ``state_dtype`` stores mixed-strategy subtree states in float32;
    ``drift_threshold`` is the relative revenue drift beyond which a warm ``refit`` falls back to a cold ``fit``
    (see :meth:`~repro.api.solver.BundlingSolver.refit`).
    """

    theta: float = 0.0
    n_levels: int = DEFAULT_PRICE_LEVELS
    adoption: AdoptionSpec = field(default_factory=AdoptionSpec)
    chunk_elements: int | None = DEFAULT_CHUNK_ELEMENTS
    n_workers: int = 1
    state_dtype: str | None = None
    drift_threshold: float = DEFAULT_DRIFT_THRESHOLD

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if theta <= -1.0:
            raise ValidationError(f"theta must be > -1, got {theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(
            self, "n_levels", check_positive_int(self.n_levels, "n_levels")
        )
        adoption = self.adoption
        if isinstance(adoption, dict):
            adoption = AdoptionSpec.from_dict(adoption)
        if not isinstance(adoption, AdoptionSpec):
            raise ValidationError(
                f"adoption must be an AdoptionSpec or dict, got {type(adoption).__name__}"
            )
        object.__setattr__(self, "adoption", adoption)
        _check_choice(self.state_dtype, _DTYPE_CHOICES, "state_dtype")
        object.__setattr__(
            self, "chunk_elements", check_chunk_elements(self.chunk_elements)
        )
        object.__setattr__(self, "n_workers", check_n_workers(self.n_workers))
        object.__setattr__(
            self, "drift_threshold", check_drift_threshold(self.drift_threshold)
        )

    # ------------------------------------------------------------- building
    def build(self, wtp) -> RevenueEngine:
        """A fresh engine for *wtp* under this configuration.

        ``wtp`` is anything :class:`~repro.core.wtp.WTPMatrix` accepts (an
        existing matrix, a dense array, or a SciPy sparse matrix, which is
        densified).
        """
        return RevenueEngine(
            wtp,
            theta=self.theta,
            adoption=self.adoption.build(),
            grid=PriceGrid(n_levels=self.n_levels),
            chunk_elements=self.chunk_elements,
            n_workers=self.n_workers,
            state_dtype=self.state_dtype,
            drift_threshold=self.drift_threshold,
        )

    @classmethod
    def from_engine(cls, engine: RevenueEngine) -> "EngineConfig":
        """Capture a live engine's configuration (inverse of :meth:`build`).

        Only engines the config schema can describe are capturable: a
        linspace price grid and no generalized objective.  Rebuilding
        against the same matrix reproduces the engine exactly.
        """
        if engine.grid.mode != "linspace":
            raise ValidationError(
                "only linspace-grid engines can be captured as an EngineConfig; "
                f"this engine's grid mode is {engine.grid.mode!r}"
            )
        if engine.objective is not None and not engine.objective.is_pure_revenue:
            raise ValidationError(
                "engines with a generalized objective cannot be captured as an "
                "EngineConfig"
            )
        return cls(
            theta=engine.theta,
            n_levels=engine.grid.n_levels,
            adoption=AdoptionSpec.from_model(engine.adoption),
            chunk_elements=engine.chunk_elements,
            n_workers=engine.n_workers,
            state_dtype=engine.state_dtype.name,
            drift_threshold=engine.drift_threshold,
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "n_levels": self.n_levels,
            "adoption": self.adoption.to_dict(),
            "chunk_elements": self.chunk_elements,
            "n_workers": self.n_workers,
            "state_dtype": self.state_dtype,
            "drift_threshold": self.drift_threshold,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        return cls(**_checked_payload(cls, payload, "EngineConfig"))


# ----------------------------------------------------------------- algorithm
@dataclass(frozen=True)
class AlgorithmSpec:
    """A registry algorithm name plus validated constructor kwargs.

    Construction fails on an unknown algorithm name *and* on any kwarg the
    algorithm's constructor does not accept — the spec is checkable long
    before ``fit`` time, and a saved spec always rebuilds.
    """

    name: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kwargs, dict):
            raise ValidationError(
                f"algorithm kwargs must be a dict, got {type(self.kwargs).__name__}"
            )
        # Validates the name against the registry and every kwarg against
        # the algorithm's constructor signature.
        validate_algorithm_kwargs(self.name, self.kwargs)
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would raise on the dict
        # field; hash the canonical content instead (with a name-only
        # fallback for unhashable kwarg values — a collision, not an error).
        try:
            return hash((self.name, tuple(sorted(self.kwargs.items()))))
        except TypeError:
            return hash(self.name)

    def build(self):
        """A fresh algorithm instance (a :class:`BundlingAlgorithm`)."""
        from repro.algorithms.registry import make_algorithm

        return make_algorithm(self.name, **self.kwargs)

    def to_dict(self) -> dict:
        payload = {"name": self.name, "kwargs": dict(self.kwargs)}
        try:
            json.dumps(payload)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"algorithm kwargs for {self.name!r} are not JSON-serializable: {exc}"
            ) from exc
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AlgorithmSpec":
        payload = _checked_payload(cls, payload, "AlgorithmSpec")
        if "name" not in payload:
            raise ValidationError("AlgorithmSpec payload requires a 'name'")
        return cls(payload["name"], dict(payload.get("kwargs") or {}))

    @classmethod
    def coerce(cls, spec) -> "AlgorithmSpec":
        """Normalize a spec, a bare name, or a payload dict to a spec."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(spec)
        if isinstance(spec, dict):
            return cls.from_dict(spec)
        raise ValidationError(
            f"cannot interpret {type(spec).__name__} as an AlgorithmSpec"
        )
