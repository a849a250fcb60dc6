"""Metric assembly, the printed table, provenance and result files."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

from bench import reference, stats
from bench.spans import Tracer, probe_cost_seconds, self_times
from bench.workloads import SETUP_OP, Op, Outcome


@dataclass(frozen=True)
class Metric:
    """One printed figure: value, unit and the sample it came from."""

    value: float
    unit: str
    count: Optional[int] = None
    note: str = ""


def subject_medians(ops: List[Op]) -> List[float]:
    """Each subject's median time over the passes of a run (passed ops only).

    Every pass times every subject once, seconds apart, so a subject's
    median leaves out the pass where a collection or a burst of the host's
    other tenants happened to land on it.
    """
    times: Dict[str, List[float]] = {}
    for op in ops:
        if op.ok:
            times.setdefault(op.subject, []).append(op.ms)
    return [statistics.median(values) for values in times.values()]


def in_reference_units(outcome: Outcome) -> List[Op]:
    """The run's ops, each time scaled by the reference timed around it."""
    if not outcome.reference_ms:
        return outcome.ops
    return [replace(op, ms=op.ms * reference.REFERENCE_MS / reference.around(
        outcome.reference_at, outcome.reference_ms, op.started + op.ms / 2000.0))
        for op in outcome.ops]


def end_to_end(outcome: Outcome) -> Dict[str, Metric]:
    """Every end-to-end figure of one untraced (or traced) run."""
    times = subject_medians(in_reference_units(outcome))
    typical = statistics.median(outcome.reference_ms) if outcome.reference_ms else 0.0
    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if not op.ok)
    setup = statistics.median(outcome.setup_seconds)
    metrics = {
        "setup_s": Metric(setup * reference.REFERENCE_MS / typical if typical else setup, "s",
                          len(outcome.setup_seconds)),
        "reference_ms": Metric(typical, "ms", len(outcome.reference_ms), "median"),
        "ops_per_s": Metric(attempted / outcome.elapsed if outcome.elapsed else 0.0,
                            "1/s", attempted),
        "op_ms_mean": Metric(statistics.fmean(times) if times else 0.0, "ms", len(times)),
        "failed_ratio": Metric(failed / attempted if attempted else 1.0, "ratio", attempted),
        "peak_rss_mb": Metric(outcome.peak_rss_mb, "MB"),
        "reachable_reduction_pct": Metric(outcome.reduction_pct, "%"),
    }
    for q in (50, 75, 90):
        figure = stats.timing(times, q)
        if figure is not None:
            note = "" if figure.supported else (
                f"only {stats.samples_beyond(figure.count, q)} samples beyond")
            metrics[f"op_ms_p{q}"] = Metric(figure.value, "ms", figure.count, note)
    for name, mode, q in (("warm_ms_p50", "warm", 50), ("warm_ms_p90", "warm", 90),
                          ("cold_ms_p50", "cold", 50), ("rehydrate_ms_p50", "rehydrate", 50)):
        figure = stats.timing(outcome.mode_ms.get(mode, []), q)
        if figure is not None:
            note = "" if figure.supported else (
                f"only {stats.samples_beyond(figure.count, q)} samples beyond")
            metrics[name] = Metric(figure.value, "ms", figure.count, note)
    return metrics


#: Per-layer ``ms`` metric -> the span it reads: mean self time per call.
SPAN_METRICS = {
    "workloads.generate_ms": "workloads.generate",
    "core.analysis_ms.pta": "core.analysis.pta",
    "core.analysis_ms.skipflow": "core.analysis.skipflow",
    "core.analysis_ms.skipflow-at16": "core.analysis.skipflow-at16",
    "core.resume_ms": "core.resume",
    "image.metrics_ms": "image.metrics",
    "image.dce_ms": "image.dce",
    "image.size_ms": "image.size",
    "engine.program_store.load_ms": "engine.program_store.load",
    "engine.program_store.attach_ms": "engine.program_store.attach",
    "engine.program_store.store_ms": "engine.program_store.store",
    "engine.matrix_overhead_ms": "engine.matrix",
    "ir.arena.freeze_ms": "ir.arena.freeze",
    "ir.delta.apply_ms": "ir.delta.apply",
    "service.manager_ms.open": "service.manager.open",
    "service.manager_ms.update": "service.manager.update",
    "service.manager_ms.analyze": "service.manager.analyze",
    "service.manager_ms.evict": "service.manager.evict",
    "service.client_ms.open": "service.client.open",
    "service.client_ms.update": "service.client.update",
    "service.client_ms.analyze": "service.client.analyze",
}

#: Solver counters, reported per cold analysis.
COUNT_METRICS = ("core.steps", "core.joins", "core.transfers", "core.saturated_flows")

#: Per-layer figures a workload measures itself (``Outcome.layers``), by unit.
SERVICE_METRICS = {
    "service.wire_wait_ms": "ms",
    "service.mode.cold": "count",
    "service.mode.warm": "count",
    "service.mode.cached": "count",
    "service.mode.cold-fallback": "count",
    "service.warm_ratio": "ratio",
    "service.steps_paid": "count",
    "service.evictions": "count",
    "service.response_kb": "KB",
}


#: Layers whose work a workload does in set-up; every other ``ms`` metric
#: reads only spans recorded outside set-up.
SETUP_LAYERS = ("engine.program_store.store", "ir.arena.freeze")


def per_layer(outcome: Outcome, tracer: Tracer) -> Dict[str, Metric]:
    """Every per-layer figure of one traced run."""
    table = self_times([span for span in tracer.spans if span.op != SETUP_OP])
    table.update({name: own for name, own in self_times(tracer.spans).items()
                  if name in SETUP_LAYERS})
    ops = max(1, len(outcome.ops))
    metrics: Dict[str, Metric] = {}
    for name, span in SPAN_METRICS.items():
        own = table.get(span)
        metrics[name] = Metric(own.mean_ms if own else 0.0, "ms", own.calls if own else 0)
    analyses = tracer.counters.get("core.analyses", 0)
    for name in COUNT_METRICS:
        metrics[name] = Metric(tracer.counters.get(name, 0) / analyses if analyses else 0.0,
                               "count", int(analyses))
    freezes = tracer.counters.get("ir.arena.freezes", 0)
    metrics["ir.arena.bytes"] = Metric(
        tracer.counters.get("ir.arena.bytes", 0) / freezes if freezes else 0.0,
        "bytes", int(freezes))
    collections = outcome.gc
    metrics["runtime.gc_full_pause_ms"] = Metric(
        1000.0 * collections.pause_seconds / ops if collections else 0.0, "ms", ops)
    metrics["runtime.gc_full_collections"] = Metric(
        collections.collections / ops if collections else 0.0, "count", ops)
    for name, unit in SERVICE_METRICS.items():
        metrics[name] = Metric(outcome.layers.get(name, 0.0), unit)
    for name in ("warm_ms_p50", "warm_ms_p90", "cold_ms_p50", "rehydrate_ms_p50"):
        figure = end_to_end(outcome).get(name)
        metrics[name] = figure if figure is not None else Metric(0.0, "ms", 0)
    spans = len(tracer.spans)
    metrics["trace.spans"] = Metric(float(spans), "count")
    metrics["trace.overhead_est_pct"] = Metric(
        100.0 * spans * probe_cost_seconds() / outcome.elapsed if outcome.elapsed else 0.0,
        "%")
    return metrics


def self_time_table(tracer: Tracer) -> List[dict]:
    """Rows of the traced run's self-time table, heaviest layer first."""
    rows = [{"layer": name, "calls": own.calls, "self_ms": 1000.0 * own.seconds,
             "mean_self_ms": own.mean_ms}
            for name, own in self_times(tracer.spans).items()]
    return sorted(rows, key=lambda row: -row["self_ms"])


# ---------------------------------------------------------------------- #
# Provenance
# ---------------------------------------------------------------------- #
def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Where and how a result was measured."""
    from repro.engine.cache import compute_code_version

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(root),
        "code_version": compute_code_version(),
        "seed": seed,
        "workload": workload,
        "run_seconds": seconds,
        "traced": traced,
    }


def write_result(path: Path, document: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def format_table(metrics: Dict[str, Metric]) -> List[str]:
    lines = []
    for name, metric in metrics.items():
        count = f"n={metric.count}" if metric.count is not None else ""
        note = f"  ({metric.note})" if metric.note else ""
        lines.append(f"  {name:34s} {metric.value:14.4f} {metric.unit:6s} {count}{note}")
    return lines
