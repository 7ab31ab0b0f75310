"""Benchmark entry point: one workload, one seed, one line of results.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit_tall --seed 1 --seconds 34 --trace 0

Each run sets up its inputs from ``--seed`` (three times, reporting the
median set-up time), fits in a child process, serves quotes over HTTP in
closed, open and churn phases, and then checks the outputs: every fit of
the run has one fingerprint, every warm refit equals a cold re-price,
every served quote sampled equals a cold ``solution.quote`` bit for bit
under the fingerprint the server stamped on it, and every ``POST /refit``
reports mode ``warm`` with the fingerprint a local replay produces.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Lines before it give a readable report, the noise
readings (steal, generator lateness, window spread) and, when traced, the
per-layer table.  The exit code is 1 when any check failed.

``--smoke`` runs the same code paths on toy sizes, in seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Shares of ``--seconds`` given to each measured phase.
FIT_SHARE, CLOSED_SHARE, OPEN_SHARE = 0.3, 0.125, 0.3125
SETUP_ROUNDS = 3
CLOSED_WINDOWS = 5
#: Refits sent between closed-loop windows, and during the churn phase.
QUIET_REFITS, CHURN_REFITS = 15, 5
IN_PROCESS_REFITS = 4
#: Latency limit for the open-loop percentiles, in milliseconds.
LATENCY_LIMIT_MS = 50.0
#: Gated timings are scaled to a host on which the reference job of
#: ``hostinfo.reference_seconds`` takes this long.
NOMINAL_REFERENCE_S = 0.05


class Ledger:
    """Operations attempted and failed, with the first few failures named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


# ------------------------------------------------------------------ set-up
def _set_up(workload, sub_seeds, work_dir: Path, ledger: Ledger, rounds: int):
    """Generate the inputs and fit the served menu *rounds* times.

    Returns the first round's inputs, the per-round set-up seconds (boot
    not yet included for the last round), a reference-job time after each
    round, and the data-layer timings.
    """
    import numpy as np

    from hostinfo import reference_seconds
    from repro.api import BundlingSolver, EngineConfig
    from repro.core.wtp import WTPMatrix
    from workloads import THETA, generate_population

    inputs = None
    setup_seconds, references, data_timings = [], [], []
    for number in range(rounds):
        timings: dict[str, float] = {}
        started = time.perf_counter()
        fit_wtp = generate_population(
            workload.fit_users, workload.fit_items, sub_seeds["fit_population"], timings
        )
        serve_wtp = generate_population(
            workload.serve_users + workload.held_out_users,
            workload.serve_items,
            sub_seeds["serve_population"],
            timings,
        )
        values = serve_wtp.values
        n_fit = min(workload.serve_users, values.shape[0] // 2)
        population = WTPMatrix(values[:n_fit])
        menu = BundlingSolver("mixed_matching", EngineConfig(theta=THETA)).fit(population)
        menu.save(work_dir / "menu.json")
        population.save_npz(work_dir / "population.npz")
        elapsed = time.perf_counter() - started
        data_timings.append(timings)
        if inputs is None:
            inputs = {
                "fit_values": fit_wtp.values,
                "population": population,
                "held_out": values[n_fit:],
                "fingerprint": menu.fingerprint(),
            }
        else:
            ledger.check(
                "set-up is not deterministic",
                np.array_equal(fit_wtp.values, inputs["fit_values"])
                and menu.fingerprint() == inputs["fingerprint"],
            )
        if number < rounds - 1:
            started = time.perf_counter()
            server = _boot(work_dir, f"boot{number}")
            server.stop()
            elapsed += time.perf_counter() - started
        setup_seconds.append(elapsed)
        references.append(reference_seconds())
    return inputs, setup_seconds, references, data_timings


def _boot(work_dir: Path, tag: str):
    from servebench import ServerProcess

    server = ServerProcess(
        work_dir / "menu.json", work_dir / "population.npz", work_dir / f"server-{tag}.log"
    )
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server


# -------------------------------------------------------------------- fit
def _check_fits(record: dict, ledger: Ledger) -> None:
    fits = record["fits"] + record.get("traced_fits", [])
    first = fits[0]
    for fit in fits:
        ledger.check(
            "fit fingerprint differs between fits of one run",
            fit["fingerprint"] == first["fingerprint"]
            and fit["coverage"] == first["coverage"],
        )
    for refit in record["refits"]:
        ledger.check("in-process refit fell back to cold", refit["mode"] == "warm")
        ledger.check("warm refit differs from a cold re-price", refit["identical"])


# ---------------------------------------------------------------- serving
async def _drive(server, pool: list[bytes], refit_bodies, seconds: float):
    """The load phases plus ``/metrics`` scrapes between them.

    The first ``QUIET_REFITS`` refit bodies go out between closed-loop
    windows, with no quote in flight; the rest during the churn phase.  The
    reference job runs after each closed-loop window and after the open and
    churn phases.
    """
    from hostinfo import process_cpu_seconds, reference_seconds, rss_mb
    from repro.obs.metrics import parse_exposition
    from servebench import LoadGenerator
    from workloads import OPEN_RATE

    generator = LoadGenerator(server.port, pool)
    scrapes = {}
    pid = server.proc.pid

    async def scrape(name):
        status, body = await generator.get("/metrics")
        scrapes[name] = parse_exposition(body.decode()) if status == 200 else {}

    n_open = max(1, round(OPEN_SHARE * seconds * OPEN_RATE))
    try:
        await scrape("start")
        # The closed loop runs as consecutive windows with quiet refits
        # between them, so a burst of host contention spoils only the
        # windows and refits it overlaps.
        windows, quiet_refits, references = [], [], []
        per_gap = QUIET_REFITS // CLOSED_WINDOWS
        for number in range(CLOSED_WINDOWS):
            windows.append(await generator.closed(CLOSED_SHARE * seconds / CLOSED_WINDOWS))
            for index in range(number * per_gap, (number + 1) * per_gap):
                quiet_refits.append(await generator.refit_one(index, refit_bodies[index]))
            references.append(reference_seconds())
        await scrape("closed")
        open_phase = await generator.open(
            OPEN_RATE,
            n_open,
            probe=lambda: process_cpu_seconds(pid),
        )
        await scrape("open")
        references.append(reference_seconds())
        churn = await generator.open(
            OPEN_RATE,
            n_open,
            refits=list(enumerate(refit_bodies))[QUIET_REFITS:],
        )
        await scrape("churn")
        references.append(reference_seconds())
        rss = rss_mb(pid)
    finally:
        await generator.close()
    return {
        "closed": windows,
        "open": open_phase,
        "churn": churn,
        "quiet_refits": quiet_refits,
        "references": references,
        "rss_mb": rss,
        "scrapes": scrapes,
    }


def _check_serving(driven, inputs, deltas, populations, work_dir, ledger):
    """Refits against a local replay; quotes against cold ``solution.quote``."""
    import numpy as np

    from repro.api import BundlingSolution, BundlingSolver
    from workloads import churn_helpers, cold_identical

    menu = BundlingSolution.load(work_dir / "menu.json")
    ledger.check("served menu differs from the set-up fit", menu.fingerprint() == inputs["fingerprint"])
    chain = {menu.fingerprint(): menu}
    solver = BundlingSolver(menu.algorithm_spec, menu.engine_config)
    current = menu
    _, check_warm_identity = churn_helpers()
    for refit in sorted(driven["churn"].refits + driven["quiet_refits"], key=lambda r: r.index):
        expected = solver.refit(current, populations[refit.index], deltas[refit.index])
        current = expected.solution
        chain[current.fingerprint()] = current
        ledger.check(
            f"POST /refit {refit.index} failed or diverged from a local replay",
            refit.status == 200
            and refit.payload.get("mode") == "warm"
            and refit.payload.get("fingerprint") == current.fingerprint(),
        )
        ledger.check(
            f"refit {refit.index} differs from a cold re-price",
            cold_identical(current, populations[refit.index + 1], check_warm_identity),
        )

    held_out = inputs["held_out"]
    cold_cache = {}
    phases = [("closed", window) for window in driven["closed"]]
    phases += [("open", driven["open"]), ("churn", driven["churn"])]
    for name, phase in phases:
        for sample in phase.samples:
            ok = ledger.check(
                f"{name} quote answered {sample.status} or an unknown fingerprint",
                sample.status == 200 and sample.fingerprint in chain,
            )
            if not ok or sample.body is None:
                continue
            key = (sample.fingerprint, sample.pool_index)
            if key not in cold_cache:
                rows = held_out[inputs["request_rows"][sample.pool_index]]
                cold = chain[sample.fingerprint].quote(rows)
                cold_cache[key] = (
                    [float(p).hex() for p in np.asarray(cold.payments, dtype=np.float64)],
                    float(cold.revenue).hex(),
                )
            payload = json.loads(sample.body)
            payments_hex, revenue_hex = cold_cache[key]
            ledger.check(
                f"{name} quote differs from a cold solution.quote",
                payload.get("payments_hex") == payments_hex
                and payload.get("revenue_hex") == revenue_hex
                and payload.get("fingerprint") == sample.fingerprint,
            )


# ------------------------------------------------------------------ figures
def _ok(phase) -> int:
    return sum(1 for sample in phase.samples if sample.status == 200)


def _window_rates(windows) -> list[float]:
    """Successful quotes per second in each closed-loop window."""
    return [_ok(window) / (window.ended - window.started) for window in windows]


def _cpu_per_quote_ms(phase) -> float:
    """Server CPU per successful quote between the first and last probe."""
    (start, cpu_start), (end, cpu_end) = phase.probes[0], phase.probes[-1]
    done = sum(1 for s in phase.samples if s.status == 200 and start <= s.done < end)
    return _ratio((cpu_end - cpu_start) * 1e3, done)


def _latencies_ms(phase) -> list[float]:
    # A failed request misses every latency limit.
    return [
        (s.latency * 1e3) if s.status == 200 else float("inf") for s in phase.samples
    ]


def _timings(setup_seconds, fit_record, driven) -> dict[str, float]:
    """The run's timings as measured, each a median over many samples."""
    from hostinfo import median, percentile

    return {
        "setup_s": median(setup_seconds),
        "fit_s": median(fit["wall_s"] for fit in fit_record["fits"]),
        "refit_s": median(r.done - r.sent for r in driven["quiet_refits"] if r.status == 200),
        "quote_qps": median(_window_rates(driven["closed"])),
        "quote_cpu_ms": _cpu_per_quote_ms(driven["open"]),
        "quote_p50_ms": percentile(_latencies_ms(driven["open"]), 50),
    }


def _end_to_end(timings, slowdown: float, fit_record, driven) -> dict[str, float]:
    """The gated figures: *timings* divided by the host's *slowdown* (rates
    multiplied by it), memory and revenue coverage as measured.

    A shared host can run this process up to 2x slower for minutes at a
    time, with no steal reported.  The fastest run of the fixed reference
    job in a run, over ``NOMINAL_REFERENCE_S``, measures how slow the host
    was during that run; dividing by it keeps the figures of runs on a
    slow and a fast host comparable.  The unscaled timings print ungated.
    """
    figures = {
        name: value * slowdown if name == "quote_qps" else value / slowdown
        for name, value in timings.items()
    }
    figures.update(
        fit_peak_rss_mb=(fit_record["peak_rss_kib"] - fit_record["baseline_rss_kib"])
        / 1024.0,
        revenue_coverage=fit_record["fits"][0]["coverage"],
        serve_rss_mb=driven["rss_mb"],
    )
    return figures


def _delta(scrapes, before: str, after: str, name: str, **labels) -> float:
    from servebench import scrape

    return scrape(scrapes[after], name, **labels) - scrape(scrapes[before], name, **labels)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _fit_layers(fit_record, data_timings) -> dict[str, float]:
    from hostinfo import median

    traced = fit_record["traced_fits"]

    def busy(name, key="busy_s"):
        return median(f["layers"].get(name, {}).get(key, 0.0) for f in traced)

    counts = traced[0]["counts"]
    fit_busy = busy("algorithms.fit")
    figures = {
        "data.generate.busy_s": median(t["data.generate"] for t in data_timings),
        "data.wtp_from_ratings.busy_s": median(
            t["data.wtp_from_ratings"] for t in data_timings
        ),
        "algorithms.fit.busy_s": fit_busy,
        "algorithms.fit.self_s": busy("algorithms.fit", "self_s"),
        "algorithms.iterations": traced[0]["iterations"],
    }
    for layer in FIT_LAYERS:
        figures[f"{layer}.busy_s"] = busy(layer)
        figures[f"{layer}.self_s"] = busy(layer, "self_s")
        figures[f"{layer}.share"] = _ratio(busy(layer), fit_busy)
        figures[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0.0)
    for key in (
        "core.co_supported_pairs.pairs_out",
        "core.pure_merge_gains.pairs",
        "core.mixed_merge_gains.pairs",
        "matching.solve_matching.edges",
        "matching.solve_matching.matched",
    ):
        figures[key] = counts.get(key, 0.0)
    figures["core.co_support.kept_ratio"] = _ratio(
        counts.get("core.co_supported_pairs.pairs_out", 0.0),
        counts.get("core.co_supported_pairs.pairs_in", 0.0),
    )
    figures["algorithms.merge_yield"] = _ratio(
        figures["matching.solve_matching.matched"],
        figures["core.pure_merge_gains.pairs"] + figures["core.mixed_merge_gains.pairs"],
    )
    # Fastest against fastest, as fit_s is reported.
    untraced = min(f["wall_s"] for f in fit_record["fits"])
    traced_wall = min(f["wall_s"] for f in traced)
    figures["trace.fit_untraced_s"] = untraced
    figures["trace.fit_traced_s"] = traced_wall
    figures["trace.fit_overhead_s"] = traced_wall - untraced
    figures["trace.fit_overhead_share"] = _ratio(traced_wall - untraced, untraced)

    refits = fit_record["refits"]
    figures["api.refit.warm_s"] = median(r["warm_s"] for r in refits)
    figures["api.refit.cold_fallbacks"] = sum(r["mode"] != "warm" for r in refits)
    for layer in ("core.delta.apply", "core.delta.price"):
        figures[f"{layer}.busy_s"] = median(
            r["layers"].get(layer, {}).get("busy_s", 0.0) for r in refits
        )
    return figures


def _serve_layers(driven) -> dict[str, float]:
    scrapes = driven["scrapes"]
    request_ms = 1e3 * _ratio(
        _delta(scrapes, "start", "closed", "repro_http_request_seconds_sum", route="/quote"),
        _delta(scrapes, "start", "closed", "repro_http_request_seconds_count", route="/quote"),
    )
    batch_ms = 1e3 * _ratio(
        _delta(scrapes, "start", "closed", "repro_batch_seconds_sum"),
        _delta(scrapes, "start", "closed", "repro_batch_seconds_count"),
    )
    ok = [s for window in driven["closed"] for s in window.samples if s.status == 200]
    client_ms = 1e3 * _ratio(sum(s.done - s.sent for s in ok), len(ok))
    return {
        "serving.client_ms.mean": client_ms,
        "serving.http_request_ms.mean": request_ms,
        "serving.wire_ms": client_ms - request_ms,
        "serving.batch_ms.mean": batch_ms,
        "serving.batch_size.mean": _ratio(
            _delta(scrapes, "start", "closed", "repro_batch_size_sum"),
            _delta(scrapes, "start", "closed", "repro_batch_size_count"),
        ),
        "serving.queue_wait_ms": request_ms - batch_ms,
        "serving.refit_ms": 1e3
        * _ratio(
            _delta(scrapes, "open", "churn", "repro_refit_duration_seconds_sum"),
            _delta(scrapes, "open", "churn", "repro_refit_duration_seconds_count"),
        ),
        "serving.refits": _delta(scrapes, "open", "churn", "repro_refit_total"),
        "serving.shed": _delta(scrapes, "start", "churn", "repro_admission_shed_total"),
        "serving.expired": _delta(scrapes, "start", "churn", "repro_quote_expired_total"),
        "serving.failed": _delta(scrapes, "start", "churn", "repro_quote_failed_total"),
        "serving.degraded_batches": _delta(
            scrapes, "start", "churn", "repro_batch_degraded_total"
        ),
    }


def _noise(driven, fit_record, steal_share: float, timings, references) -> dict[str, float]:
    from hostinfo import cpu_count, median, percentile, relative_spread

    lateness = driven["open"].lateness + driven["churn"].lateness
    over = [
        latency > LATENCY_LIMIT_MS
        for phase in ("open", "churn")
        for latency in _latencies_ms(driven[phase])
    ]
    return {
        "host.steal_share": steal_share,
        "host.cpu_count": cpu_count(),
        "host.reference_s": min(references),
        "host.reference_median_s": median(references),
        **{f"raw.{name}": value for name, value in timings.items()},
        "client.late_ms.p99": percentile([1e3 * late for late in lateness], 99),
        "client.open_p90_ms": percentile(_latencies_ms(driven["open"]), 90),
        "client.open_p98_ms": percentile(_latencies_ms(driven["open"]), 98),
        "client.churn_p90_ms": percentile(_latencies_ms(driven["churn"]), 90),
        "client.churn_p98_ms": percentile(_latencies_ms(driven["churn"]), 98),
        "client.window_spread": relative_spread(_window_rates(driven["closed"])),
        "client.over_limit_share": _ratio(sum(over), len(over)),
        "client.open_samples": len(driven["open"].samples),
        "client.churn_samples": len(driven["churn"].samples),
    }


# -------------------------------------------------------------------- run
def run(args) -> dict:
    import numpy as np

    from fitbench import run_child
    from hostinfo import StealMeter
    from servebench import quote_request, refit_request
    from workloads import (
        CHURN,
        SMOKE_SERVE,
        SMOKE_SIZES,
        WORKLOADS,
        churn_helpers,
        seeds,
    )

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = replace(workload, **SMOKE_SIZES[args.workload], **SMOKE_SERVE)
    rounds = 2 if args.smoke else SETUP_ROUNDS
    n_refits = CHURN_REFITS + QUIET_REFITS
    steal = StealMeter()
    ledger = Ledger()
    sub_seeds = seeds(args.seed)
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    server = None
    try:
        inputs, setup_seconds, setup_references, data_timings = _set_up(
            workload, sub_seeds, work_dir, ledger, rounds
        )
        fit_record = run_child(
            inputs["fit_values"],
            work_dir,
            algorithm=workload.fit_algorithm,
            budget=FIT_SHARE * args.seconds,
            min_fits=2 if args.trace or args.smoke else 3,
            refits=IN_PROCESS_REFITS,
            seed=sub_seeds["deltas"],
            trace=bool(args.trace),
            timeout=150.0,
        )
        _check_fits(fit_record, ledger)

        started = time.perf_counter()
        server = _boot(work_dir, "serve")
        setup_seconds[-1] += time.perf_counter() - started

        # Requests and deltas are encoded before any timing starts.
        rng = np.random.default_rng(sub_seeds["requests"])
        held_out = inputs["held_out"]
        request_rows, pool = [], []
        for _ in range(1000):
            rows = rng.integers(0, held_out.shape[0], size=int(rng.integers(1, 17)))
            request_rows.append(rows)
            pool.append(quote_request(held_out[rows]))
        inputs["request_rows"] = request_rows
        make_delta, _ = churn_helpers()
        populations = [inputs["population"]]
        deltas = []
        for index in range(n_refits):
            delta = make_delta(populations[-1], CHURN, seed=sub_seeds["deltas"] + 1000 + index)
            deltas.append(delta)
            populations.append(delta.apply(populations[-1]))
        refit_bodies = [refit_request(delta) for delta in deltas]

        driven = asyncio.run(_drive(server, pool, refit_bodies, args.seconds))
        server.stop()
        server = None
        _check_serving(driven, inputs, deltas, populations, work_dir, ledger)
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    timings = _timings(setup_seconds, fit_record, driven)
    references = setup_references + driven["references"]
    references += [fit["reference_s"] for fit in fit_record["fits"]]
    figures = _end_to_end(timings, min(references) / NOMINAL_REFERENCE_S, fit_record, driven)
    noise = _noise(driven, fit_record, steal.share(), timings, references)
    if args.trace:
        figures = {
            **_fit_layers(fit_record, data_timings),
            **_serve_layers(driven),
            **noise,
        }
    return {"figures": figures, "noise": noise, "ledger": ledger}


FIT_LAYERS = (
    "core.price_components",
    "core.co_supported_pairs",
    "core.pure_merge_gains",
    "core.mixed_merge_gains",
    "core.merged_mixed_state",
    "matching.solve_matching",
    "core.evaluate",
)


def _print_layer_table(figures) -> None:
    """Per-layer busy and self time of one traced fit; the self times plus
    the fit's own self time add up to the traced fit's wall time."""
    print(f"  {'layer':<28} {'busy_s':>10} {'self_s':>10} {'share':>7} {'calls':>7}")
    for layer in FIT_LAYERS:
        print(
            f"  {layer:<28} {figures[layer + '.busy_s']:>10.4f} "
            f"{figures[layer + '.self_s']:>10.4f} {figures[layer + '.share']:>7.1%} "
            f"{figures[layer + '.calls']:>7.0f}"
        )
    fit_self = figures["algorithms.fit.self_s"]
    total = fit_self + sum(figures[layer + ".self_s"] for layer in FIT_LAYERS)
    print(f"  {'algorithms.fit (self)':<28} {'':>10} {fit_self:>10.4f}")
    print(
        f"  self times sum to {total:.4f} s of a {figures['algorithms.fit.busy_s']:.4f} s "
        f"traced fit; untraced fit {figures['trace.fit_untraced_s']:.4f} s, "
        f"tracing overhead {figures['trace.fit_overhead_share']:+.2%}"
    )


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    declared = _declared_metrics()["per_layer" if args.trace else "end_to_end"]
    # A SIGTERM unwinds through the clean-up like an interrupt does.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    outcome = run(args)
    figures, ledger = outcome["figures"], outcome["ledger"]
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for entry in declared:
        value = figures.get(entry["name"])
        if value is None:
            ledger.check(f"metric {entry['name']} was not measured", False)
            continue
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        direction = entry.get("better", "")
        print(f"  {entry['name']:<40} {_format(float(value)):>14} {entry['unit']:<6} {direction}")
    print("noise " + json.dumps(outcome["noise"]))
    if args.trace:
        _print_layer_table(figures)
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
