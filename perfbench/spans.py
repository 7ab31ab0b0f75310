"""Spans recorded from outside the program, around calls into its layers.

:func:`installed` swaps each traced entry point for a wrapper that records
one span — name, start, end, parent — into a :class:`SpanRecorder` held in
memory, plus per-call counts taken from the arguments and the result.  The
originals are restored on exit.  The program itself is not modified: the
wrappers replace the module and class attributes through which the fit
and refit paths reach each layer.

A layer's *self* time is its spans' duration minus the part covered by
their child spans; the root span (``algorithms.fit`` or ``api.refit``)
keeps as self time what no traced layer accounts for.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """Spans and counts held in memory until the benchmark reads them."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def wrap(self, name: str, func, count=None):
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            span = [name, time.perf_counter(), None, parent]
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                recorder._stack.pop()
            recorder.counts[f"{name}.calls"] += 1
            if count is not None:
                for key, value in count(args, result).items():
                    recorder.counts[f"{name}.{key}"] += value
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Busy and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _parent) in enumerate(self.spans):
            table[name]["busy_s"] += end - start
            table[name]["self_s"] += end - start - child_time[index]
        return dict(table)


def _targets():
    """``(span name, owner, attribute, count)`` for every traced entry point."""
    import repro.algorithms.base as algorithms_base
    import repro.algorithms.matching_iterative as matching_iterative
    import repro.api.solver as api_solver
    from repro.api import BundlingSolver
    from repro.core.delta import IncrementalMenuPricer
    from repro.core.revenue import RevenueEngine

    def co_support(args, result):
        n_bundles = len(args[1])
        return {
            "pairs_in": n_bundles * (n_bundles - 1) // 2,
            "pairs_out": len(result),
        }

    return [
        ("algorithms.fit", BundlingSolver, "fit", None),
        ("api.refit", BundlingSolver, "refit", None),
        ("core.price_components", RevenueEngine, "price_components", None),
        ("core.co_supported_pairs", RevenueEngine, "co_supported_pairs", co_support),
        (
            "core.pure_merge_gains",
            RevenueEngine,
            "pure_merge_gains",
            lambda args, result: {"pairs": len(args[2])},
        ),
        (
            "core.mixed_merge_gains",
            RevenueEngine,
            "mixed_merge_gains",
            lambda args, result: {"pairs": len(args[3])},
        ),
        ("core.merged_mixed_state", RevenueEngine, "merged_mixed_state", None),
        (
            "matching.solve_matching",
            matching_iterative,
            "solve_matching",
            lambda args, result: {"edges": len(args[0]), "matched": len(result)},
        ),
        # ``evaluate`` is imported by name into the algorithm base (the
        # fit's final evaluation) and the solver (refit re-evaluation).
        ("core.evaluate", algorithms_base, "evaluate", None),
        ("core.evaluate", api_solver, "evaluate", None),
        ("core.delta.apply", IncrementalMenuPricer, "apply", None),
        ("core.delta.price", IncrementalMenuPricer, "price", None),
    ]


@contextmanager
def installed(recorder: SpanRecorder):
    """Route every traced entry point through *recorder* for the block."""
    saved = []
    try:
        for name, owner, attribute, count in _targets():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, count))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
