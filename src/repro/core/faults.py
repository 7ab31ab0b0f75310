"""Deterministic fault injection for resilience testing.

Production throws faults the unit tests never do: a thread pool that cannot
start, a fitting process killed mid-checkpoint, a serving worker that dies
mid-batch or goes silent.  The recovery paths — the in-order fallback of
:mod:`repro.core.kernels`, checkpoint resume, the serving fleet's supervision
— exist to survive exactly those events, and this module makes them
reproducible on demand, so ``tests/test_resilience.py``,
``tests/test_supervisor.py`` and the CI chaos job can exercise every
recovery path deterministically.

Faults are declared in the ``REPRO_FAULT_INJECT`` environment variable (so
spawned worker processes inherit them) as a comma-separated list of
``site:trigger`` rules::

    REPRO_FAULT_INJECT="worker_crash:0.1,thread_pool:once,fit_crash:3"

Sites consulted by the engine stack:

``thread_pool``
    A streamed scan's thread pool fails to start (as if the process hit
    its thread limit), exercising the scan's fall back to the in-order
    loop.
``fit_crash``
    The fitting process SIGKILLs itself while writing a checkpoint — the
    hard-kill half of the checkpoint/resume tests.

Sites consulted by the serving stack (:mod:`repro.serving`):

``quote_batch``
    :meth:`~repro.serving.state.ServingState.quote_batch` raises
    :class:`~repro.errors.ServingError` before pricing, as if the batched
    kernel faulted — exercising the batched → sequential degradation rung
    of the micro-batcher (the per-request fallback path does not consult
    the site; it *is* the recovery).
``reload``
    :meth:`~repro.serving.server.QuoteServer.reload` raises
    :class:`~repro.errors.ReloadError` after loading the replacement
    solution but before the atomic state swap — the server must keep
    serving from the old state with its old fingerprint.
``slow_client``
    The HTTP front end sleeps for the rule's numeric argument (seconds)
    before reading a request, simulating a stalled (slow-loris) client so
    the per-connection read timeout trips and the connection is closed
    with 408 instead of pinning a handler forever.

Sites consulted by the serving *fleet* (:mod:`repro.serving.supervisor` /
:mod:`repro.serving.worker`):

``worker_crash``
    A fleet worker process SIGKILLs itself before pricing a batch — the
    supervisor must detect the death, retry the batch's requests on a
    sibling, and respawn the worker (only ever fires inside a worker
    process — a SIGKILL in the supervisor would take the fleet down).
``worker_spawn``
    A freshly spawned fleet worker exits before reporting ready, as if
    its interpreter failed to come up — exercising the supervisor's
    respawn-with-backoff path.  Use ``latch:`` to fail exactly one spawn;
    ``always`` makes the fleet unstartable (the startup-failure path).
``heartbeat``
    A fleet worker stops sending heartbeats *permanently* once the rule
    first fires (a single missed beat is below the detection threshold) —
    the supervisor's heartbeat timeout must kill and respawn it.
``route``
    The supervisor treats the worker it just picked as failed without
    contacting it — deterministic food for the per-worker circuit
    breaker (failover to a sibling, closed → open → half-open).

Trigger grammar (per rule):

``once``
    Fire on the first consultation (per process), never again.
``always``
    Fire on every consultation.
``0.25`` (a float in ``(0, 1)``, written with a decimal point)
    Fire with that probability, drawn from a :class:`random.Random` seeded
    by ``REPRO_FAULT_SEED`` (default 0) — deterministic per process.
``probability=0.25``
    The same, spelled explicitly (any float in ``(0, 1)`` is accepted,
    decimal point or not).
``3`` (any other number)
    Fire on every consultation with ``3.0`` as the numeric argument
    (:func:`fire` returns it; the ``slow_client`` site reads it as a
    sleep duration, ``fit_crash`` as the 1-based consultation index to die
    on).
``latch:/path/to/file``
    Fire exactly once *across processes*: the first consulting process to
    atomically create the latch file fires, everyone else (and every later
    consultation) passes.  This is how a test arranges "exactly one fleet
    worker crashes, its respawn succeeds".

Consultation is cheap (one env read + dict lookup when no spec is set), and
parsing is cached per spec string, so tests can flip the env var between
cases without explicit resets.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import zlib

from repro.errors import ValidationError

#: Environment variable holding the fault spec (inherited by spawned workers).
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Environment variable seeding probabilistic triggers (default 0).
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

#: Trigger modes a rule can carry.
_MODES = ("once", "always", "probability", "value", "latch")


class FaultRule:
    """One parsed ``site:trigger`` rule with its per-process firing state."""

    __slots__ = ("site", "mode", "value", "path", "_fired", "_count", "_rng")

    def __init__(self, site: str, mode: str, value: float = 1.0, path: str | None = None):
        if mode not in _MODES:
            raise ValidationError(f"unknown fault mode {mode!r} for site {site!r}")
        self.site = site
        self.mode = mode
        self.value = float(value)
        self.path = path
        self._fired = False
        self._count = 0
        seed = 0
        try:
            seed = int(os.environ.get(FAULT_SEED_ENV, "0"))
        except ValueError:
            pass
        # Offset by the site name (stable CRC, not the per-process str
        # hash) so two probabilistic sites in one spec do not share a
        # decision sequence, yet the sequence is identical across runs.
        self._rng = random.Random(seed ^ zlib.crc32(site.encode("utf-8")))

    def consult(self) -> float | None:
        """The rule's numeric argument when the fault fires, else ``None``."""
        self._count += 1
        if self.mode == "once":
            if self._fired:
                return None
            self._fired = True
            return self.value
        if self.mode == "always" or self.mode == "value":
            return self.value
        if self.mode == "probability":
            return self.value if self._rng.random() < self.value else None
        # latch: first process to create the file wins the (single) fault.
        assert self.path is not None
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        except OSError:
            return None  # unreachable latch directory: fail open (no fault)
        os.close(fd)
        return self.value

    def __repr__(self) -> str:
        return f"FaultRule(site={self.site!r}, mode={self.mode!r}, value={self.value})"


def parse_fault_spec(spec: str) -> dict[str, FaultRule]:
    """Parse a ``REPRO_FAULT_INJECT`` value into site-keyed rules."""
    rules: dict[str, FaultRule] = {}
    for raw in spec.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if ":" not in raw:
            raise ValidationError(
                f"fault rule {raw!r} must look like 'site:trigger' "
                f"(spec: {spec!r})"
            )
        site, trigger = raw.split(":", 1)
        site = site.strip()
        trigger = trigger.strip()
        if not site:
            raise ValidationError(f"fault rule {raw!r} is missing a site name")
        if site in rules:
            raise ValidationError(f"duplicate fault rule for site {site!r}")
        if trigger == "once":
            rules[site] = FaultRule(site, "once")
        elif trigger == "always":
            rules[site] = FaultRule(site, "always")
        elif trigger.startswith("latch:"):
            path = trigger[len("latch:"):]
            if not path:
                raise ValidationError(f"fault rule {raw!r} needs a latch path")
            rules[site] = FaultRule(site, "latch", path=path)
        elif trigger.startswith("probability="):
            raw_value = trigger[len("probability="):]
            try:
                value = float(raw_value)
            except ValueError:
                raise ValidationError(
                    f"fault probability {raw_value!r} for site {site!r} is "
                    "not a number"
                ) from None
            if not 0.0 < value < 1.0:
                raise ValidationError(
                    f"fault probability for site {site!r} must be in (0, 1), "
                    f"got {value}"
                )
            rules[site] = FaultRule(site, "probability", value)
        else:
            try:
                value = float(trigger)
            except ValueError:
                raise ValidationError(
                    f"fault trigger {trigger!r} for site {site!r} is not "
                    "once/always/latch:<path>/a number"
                ) from None
            if value <= 0:
                raise ValidationError(
                    f"fault trigger for site {site!r} must be positive, got {value}"
                )
            if "." in trigger and value < 1.0:
                rules[site] = FaultRule(site, "probability", value)
            else:
                rules[site] = FaultRule(site, "value", value)
    return rules


# Parsed rules are cached per spec string: rule state (once-fired flags,
# RNG position, counters) must persist across consultations, and tests
# flipping the env var get a fresh rule set automatically.
_CACHE_LOCK = threading.Lock()
_CACHED_SPEC: str | None = None
_CACHED_RULES: dict[str, FaultRule] = {}


def _rules() -> dict[str, FaultRule]:
    global _CACHED_SPEC, _CACHED_RULES
    spec = os.environ.get(FAULT_ENV, "")
    with _CACHE_LOCK:
        if spec != _CACHED_SPEC:
            _CACHED_RULES = parse_fault_spec(spec) if spec else {}
            _CACHED_SPEC = spec
        return _CACHED_RULES


def fire(site: str) -> float | None:
    """Consult the injector for *site*.

    Returns the rule's numeric argument when the fault fires, ``None`` when
    no fault is configured for the site or the trigger does not fire.  The
    no-spec fast path is one env read and one dict lookup.
    """
    rule = _rules().get(site)
    if rule is None:
        return None
    return rule.consult()


def reset() -> None:
    """Drop cached rule state (tests re-arming ``once`` triggers)."""
    global _CACHED_SPEC, _CACHED_RULES
    with _CACHE_LOCK:
        _CACHED_SPEC = None
        _CACHED_RULES = {}


def in_worker() -> bool:
    """True inside a multiprocessing worker (``worker_crash`` never fires
    in the supervisor — a SIGKILL there would take the whole fleet down)."""
    return multiprocessing.parent_process() is not None
