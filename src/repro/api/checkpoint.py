"""Iteration-boundary fit checkpoints: crash a fit, lose one iteration.

A 1M-user fit runs for minutes; before this module a crash anywhere in that
window lost everything.  Both heuristics now emit a :class:`FitCheckpoint`
at the end of each iteration (cadence: ``checkpoint_every``) through
:meth:`repro.api.BundlingSolver.fit(..., checkpoint_path=...)`, and
:meth:`repro.api.BundlingSolver.resume` restarts from the last completed
iteration.

Bit-exactness is the design constraint, not an afterthought: a resumed fit
must reproduce the uninterrupted fit's solution exactly.  Three properties
deliver it:

* offer prices/revenues are persisted with ``float.hex`` fields (the same
  scheme as :class:`~repro.api.solution.BundlingSolution`), and the
  remaining scalars ride on JSON's exact shortest-repr float round-trip;
* mixed-strategy subtree-state arrays — whose float contents depend on the
  merge history and cannot be recomputed bit-identically from the menu —
  are persisted verbatim in an ``.npz`` sidecar, in their stored dtype;
* the greedy heap is *rebuilt canonically* on resume (see
  :meth:`repro.algorithms.greedy.GreedyMerge._rebuild_heap`): gains are
  re-evaluated by the same chunk-pure scans and re-pushed in original
  insertion order, so every tie-break replays identically.

Durability: both files are written atomically (temp + ``os.replace``),
arrays first, and the JSON records the sidecar's SHA-256 — a crash between
the two replaces (or a half-written sidecar after power loss) is detected
at load as :class:`~repro.errors.CheckpointError` instead of silently
resuming from inconsistent state.

The ``fit_crash`` fault site lives here: ``REPRO_FAULT_INJECT=fit_crash:N``
SIGKILLs the fitting process right after it writes the checkpoint for the
first iteration ≥ N — the deterministic hard-kill half of the
checkpoint/resume tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.solution import _float_fields, _read_float
from repro.core import faults
from repro.core.bundle import Bundle
from repro.core.pricing import PricedBundle
from repro.errors import CheckpointError, ReproError

#: Version tag of the checkpoint layout; bump on incompatible changes.
CHECKPOINT_FORMAT_VERSION = 5

#: Name suffix of the array sidecar next to the checkpoint JSON.
ARRAYS_SUFFIX = ".arrays.npz"


def _offer_entry(offer: PricedBundle) -> dict:
    """One offer as a bit-exact JSON entry (hex floats beside decimals)."""
    entry = {"items": [int(item) for item in offer.bundle.items]}
    entry.update(_float_fields(offer.price, "price"))
    entry.update(_float_fields(offer.revenue, "revenue"))
    entry.update(_float_fields(offer.buyers, "buyers"))
    return entry


def _read_offer(entry: dict) -> PricedBundle:
    """Inverse of :func:`_offer_entry`."""
    return PricedBundle(
        Bundle(entry["items"]),
        _read_float(entry, "price"),
        _read_float(entry, "revenue"),
        _read_float(entry, "buyers"),
    )


def _arrays_path(path: Path) -> Path:
    return path.with_name(path.name + ARRAYS_SUFFIX)


@dataclass
class FitCheckpoint:
    """The complete restartable state of one fit at an iteration boundary.

    ``state`` holds the algorithm-specific scalars (live offers, retained
    offers, creation batches, …); ``arrays`` holds the per-consumer numpy
    arrays (mixed subtree states) keyed by name.  ``engine_config`` and
    ``algorithm_spec`` are the *solver's* payloads verbatim, so a resumed
    solution records identical provenance to an uninterrupted one.
    """

    kind: str
    strategy: str
    engine_config: dict
    algorithm_spec: dict
    iteration: int
    checkpoint_every: int
    trace: list = field(default_factory=list)
    state: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ save
    def save(self, path) -> Path:
        """Atomically write the JSON checkpoint (and its array sidecar)."""
        path = Path(path)
        digest = None
        if self.arrays:
            digest = _write_arrays(_arrays_path(path), self.arrays)
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": self.kind,
            "strategy": self.strategy,
            "engine_config": self.engine_config,
            "algorithm_spec": self.algorithm_spec,
            "iteration": self.iteration,
            "checkpoint_every": self.checkpoint_every,
            "trace": self.trace,
            "state": self.state,
            "arrays_sha256": digest,
        }
        try:
            text = json.dumps(payload, indent=1)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state is not JSON-serializable: {exc}"
            ) from exc
        scratch = path.with_name(path.name + ".tmp")
        try:
            scratch.write_text(text + "\n")
            os.replace(scratch, path)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        finally:
            scratch.unlink(missing_ok=True)
        return path

    # ------------------------------------------------------------------ load
    @classmethod
    def load(cls, path) -> "FitCheckpoint":
        """Read and verify a checkpoint written by :meth:`save`."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path} must hold a JSON object")
        version = payload.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format_version {version!r} "
                f"(this build reads {CHECKPOINT_FORMAT_VERSION})"
            )
        digest = payload.get("arrays_sha256")
        arrays: dict = {}
        if digest is not None:
            arrays = _read_arrays(_arrays_path(path), digest)
        try:
            return cls(
                kind=str(payload["kind"]),
                strategy=str(payload["strategy"]),
                engine_config=dict(payload["engine_config"]),
                algorithm_spec=dict(payload["algorithm_spec"]),
                iteration=int(payload["iteration"]),
                checkpoint_every=int(payload["checkpoint_every"]),
                trace=list(payload.get("trace") or []),
                state=dict(payload.get("state") or {}),
                arrays=arrays,
            )
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"malformed checkpoint {path}: {exc!r}") from exc

    # ----------------------------------------------------------------- checks
    def check_algorithm(self, algorithm) -> None:
        """Raise unless *algorithm* is the one this checkpoint belongs to."""
        if self.kind != algorithm.name or self.strategy != algorithm.strategy:
            raise CheckpointError(
                f"checkpoint was written by {self.kind!r} ({self.strategy}); "
                f"cannot resume with {algorithm.name!r} ({algorithm.strategy})"
            )

    def check_population(self, n_users: int) -> None:
        """Raise unless the persisted arrays match the resuming population."""
        for name, array in self.arrays.items():
            if array.shape != (n_users,):
                raise CheckpointError(
                    f"checkpoint array {name!r} covers {array.shape[0]} users; "
                    f"the resuming WTP matrix has {n_users} — resume must use "
                    "the same population the fit ran on"
                )

    def read_trace(self) -> list:
        """The persisted trace as :class:`IterationRecord` objects."""
        from repro.algorithms.base import IterationRecord

        try:
            return [
                IterationRecord(
                    index=int(record["index"]),
                    revenue=float(record["revenue"]),
                    elapsed=float(record["elapsed"]),
                    n_top_bundles=int(record["n_top_bundles"]),
                    merges=int(record["merges"]),
                )
                for record in self.trace
            ]
        except (TypeError, ValueError, KeyError) as exc:
            raise CheckpointError(f"malformed checkpoint trace: {exc!r}") from exc


def _write_arrays(sidecar: Path, arrays: dict) -> str:
    """Atomically write the npz sidecar; returns its SHA-256 hex digest."""
    scratch = sidecar.with_name(sidecar.name + ".tmp")
    try:
        with open(scratch, "wb") as handle:
            np.savez(handle, **arrays)
        digest = hashlib.sha256(scratch.read_bytes()).hexdigest()
        os.replace(scratch, sidecar)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint arrays {sidecar}: {exc}"
        ) from exc
    finally:
        scratch.unlink(missing_ok=True)
    return digest


def _read_arrays(sidecar: Path, digest: str) -> dict:
    """Read the npz sidecar, verifying it is the one the JSON references."""
    try:
        raw = sidecar.read_bytes()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint arrays sidecar {sidecar} is missing or unreadable: {exc}"
        ) from exc
    actual = hashlib.sha256(raw).hexdigest()
    if actual != digest:
        raise CheckpointError(
            f"checkpoint arrays sidecar {sidecar} does not match its "
            "checkpoint (interrupted write?); the checkpoint is unusable"
        )
    try:
        with np.load(sidecar, allow_pickle=False) as handle:
            return {name: handle[name] for name in handle.files}
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"cannot read checkpoint arrays {sidecar}: {exc}"
        ) from exc


def write_fit_checkpoint(
    algorithm,
    engine,
    iteration: int,
    trace,
    state: dict,
    arrays: dict,
) -> None:
    """Persist one iteration boundary for *algorithm* (the base-class hook).

    Provenance payloads come from the solver when it armed checkpointing
    (``_checkpoint_provenance``), so resumed solutions record the exact
    config the caller supplied — ``None`` wildcards included — and match an
    uninterrupted fit byte for byte.  A directly-driven algorithm (no
    solver) falls back to capturing the engine and a bare spec.
    """
    from repro.api.config import AlgorithmSpec, EngineConfig

    provenance = getattr(algorithm, "_checkpoint_provenance", None)
    if provenance is not None:
        engine_config, algorithm_spec = provenance
        engine_payload = engine_config.to_dict()
        spec_payload = algorithm_spec.to_dict()
    else:
        engine_payload = EngineConfig.from_engine(engine).to_dict()
        try:
            spec_payload = AlgorithmSpec(algorithm.name).to_dict()
        except ReproError as exc:
            raise CheckpointError(
                f"cannot checkpoint algorithm {algorithm.name!r} outside a "
                "BundlingSolver: its name is not a registry spec"
            ) from exc
    checkpoint = FitCheckpoint(
        kind=algorithm.name,
        strategy=algorithm.strategy,
        engine_config=engine_payload,
        algorithm_spec=spec_payload,
        iteration=iteration,
        checkpoint_every=algorithm.checkpoint_every,
        trace=[
            {
                "index": record.index,
                "revenue": record.revenue,
                "elapsed": record.elapsed,
                "n_top_bundles": record.n_top_bundles,
                "merges": record.merges,
            }
            for record in trace
        ],
        state=state,
        arrays=arrays,
    )
    checkpoint.save(algorithm.checkpoint_path)
    threshold = faults.fire("fit_crash")
    if threshold is not None and iteration >= int(threshold):
        os.kill(os.getpid(), signal.SIGKILL)


# --------------------------------------------------------- graceful interrupt
#: Set by the ``graceful_sigint`` handler; observed at iteration boundaries.
_INTERRUPT = threading.Event()


def interrupt_requested() -> bool:
    """True once a SIGINT has asked the running fit to stop gracefully."""
    return _INTERRUPT.is_set()


@contextmanager
def graceful_sigint():
    """Turn SIGINT into a checkpoint-flushing stop for the enclosed fit.

    While active, the first Ctrl-C sets a flag instead of raising
    :class:`KeyboardInterrupt`; the fit loop observes it at its next
    iteration boundary (:meth:`BundlingAlgorithm._emit_checkpoint`),
    flushes a final checkpoint regardless of the ``checkpoint_every``
    cadence, and raises :class:`~repro.errors.FitInterruptedError` — so an
    interrupted run always leaves a resumable artifact (CLI exit code
    130).  A *second* SIGINT falls back to the default ``KeyboardInterrupt``
    for users who really mean "now", even mid-iteration.

    Only installable from the main thread (signal semantics); the previous
    handler is restored and the flag cleared on exit either way.
    """

    def _handler(signum, frame):
        if _INTERRUPT.is_set():
            raise KeyboardInterrupt
        _INTERRUPT.set()

    previous = signal.signal(signal.SIGINT, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        _INTERRUPT.clear()
