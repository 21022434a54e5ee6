"""Shared pieces of the three workloads: results, percentiles, memory,
the per-layer report and the correctness-gate error."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from tracing import Tracer


#: Scratch space for saved repositories and trace files, relative to the
#: checkout the benchmark runs from (listed in the root ``.gitignore``).
WORK_DIR = Path(".perfbench")


class GateError(AssertionError):
    """A correctness gate found an output that differs from its reference."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Generic end-to-end metrics (``BENCHMARK.json`` names) -> value.
    end_to_end: dict[str, float]
    #: The workload's own metric names -> (value, unit), printed as text.
    named: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    #: Per-layer metrics of the traced run (empty when tracing is off).
    layers: dict[str, float] = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples (failed ops) sort last."""
    if not values:
        raise GateError("no samples for a percentile")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(
    build: Callable[[], Any], repeats: int
) -> tuple[Any, list[float]]:
    """Run ``build`` ``repeats`` times; keep the last product and return
    it with the wall time of each run (their median is ``setup_s``)."""
    times = []
    product = None
    for _ in range(repeats):
        product = None  # let the previous set-up go before the next one
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
    return product, times


#: Per-layer metric -> (layer span name, statistic).  Statistics are the
#: tracer's ``calls``/``s``/``self_s``/``max_s``; ``max_s`` is reported
#: in milliseconds.
SPAN_METRICS: dict[str, tuple[str, str]] = {
    "storage.ingest_video.self_s": ("storage.ingest_video", "self_s"),
    "core.svaqd_run.calls": ("core.svaqd_run", "calls"),
    "core.svaqd_run.s": ("core.svaqd_run", "s"),
    "detectors.tracker.calls": ("detectors.tracker", "calls"),
    "detectors.tracker.s": ("detectors.tracker", "s"),
    "detectors.recognizer.calls": ("detectors.recognizer", "calls"),
    "detectors.recognizer.s": ("detectors.recognizer", "s"),
    "storage.save.s": ("storage.save", "s"),
    "storage.load.s": ("storage.load", "s"),
    "storage.table.calls": ("storage.table", "calls"),
    "storage.table.s": ("storage.table", "s"),
    "sql.parse_plan.s": ("sql.parse_plan", "s"),
    "core.result_sequences.s": ("core.result_sequences", "s"),
    "core.tbclip.next_batch.calls": ("core.tbclip.next_batch", "calls"),
    "core.tbclip.next_batch.s": ("core.tbclip.next_batch", "s"),
    "core.rvaq.top_k.self_s": ("core.rvaq.top_k", "self_s"),
    "core.session.process.calls": ("core.session.process", "calls"),
    "core.session.process.s": ("core.session.process", "s"),
    "core.evaluator.evaluate.calls": ("core.evaluator.evaluate", "calls"),
    "core.evaluator.evaluate_chunk.calls": (
        "core.evaluator.evaluate_chunk", "calls"),
    "core.fleet.advance.self_s": ("core.fleet.advance", "self_s"),
    "core.fleet.register.s": ("core.fleet.register", "s"),
    "core.fleet.cancel.s": ("core.fleet.cancel", "s"),
    "core.rate_book.flush.calls": ("core.rate_book.flush", "calls"),
    "core.rate_book.flush.s": ("core.rate_book.flush", "s"),
    "scanstats.rate_bank.s": ("scanstats.rate_bank", "s"),
    "detectors.cache.calls": ("detectors.cache", "calls"),
    "detectors.cache.s": ("detectors.cache", "s"),
    "detectors.cache.max_ms": ("detectors.cache", "max_s"),
    "service.step.calls": ("service.step", "calls"),
    "service.step.s": ("service.step", "s"),
    "service.step.max_ms": ("service.step", "max_s"),
    "service.register.s": ("service.register", "s"),
    "service.cancel.s": ("service.cancel", "s"),
    "service.health.s": ("service.health", "s"),
}

#: Layer metrics the workloads compute themselves (counts from results,
#: meters and the open-loop driver); zero where a workload has no such
#: layer activity.
DERIVED_METRICS: tuple[str, ...] = (
    "storage.save.bytes_per_clip_label",
    "core.rvaq.pairs",
    "core.rvaq.sorted_accesses",
    "core.rvaq.reverse_accesses",
    "core.rvaq.random_accesses",
    "core.rvaq.pairs_per_row",
    "detectors.fresh_units",
    "detectors.cached_units",
    "detectors.cache_hit_share",
    "detectors.model_ms_per_clip",
    "service.busy_share",
    "service.admission.refused",
    "service.backlog.max",
    "service.generator_lag_p99_ms",
    "trace.overhead",
    "trace.coverage",
    "trace.spans",
)


def layer_report(
    tracer: Tracer, root: int, derived: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric: span statistics plus ``derived`` values.

    ``trace.coverage`` is the share of the root span's wall time that its
    direct children (the top-level spans) account for.
    """
    stats = tracer.layer_stats()
    report: dict[str, float] = {}
    for metric, (layer, stat) in SPAN_METRICS.items():
        value = stats.get(layer, {}).get(stat, 0.0)
        report[metric] = value * 1000.0 if stat == "max_s" else value
    root_s = tracer.end[root] - tracer.start[root]
    report.update({name: 0.0 for name in DERIVED_METRICS})
    report.update(derived)
    report["trace.coverage"] = tracer.top_level_s(root) / root_s
    report["trace.spans"] = float(len(tracer.start))
    return report


def meter_layers(meter: Any, clips: int) -> dict[str, float]:
    """Detector-layer counts from a :class:`CostMeter`."""
    fresh = float(meter.units())
    cached = float(meter.cached_units())
    return {
        "detectors.fresh_units": fresh,
        "detectors.cached_units": cached,
        "detectors.cache_hit_share": (
            cached / (fresh + cached) if fresh + cached else 0.0
        ),
        "detectors.model_ms_per_clip": meter.ms() / clips if clips else 0.0,
    }
