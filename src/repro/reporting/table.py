"""Rendering of comparison tables: Table 1 and its N-way generalizations.

Two renderers live here:

* :func:`format_matrix_table` — Table 1 and its N-configuration
  generalization over engine :class:`~repro.engine.runner.MatrixRow`
  objects (duck-typed): one line per (benchmark, configuration), deltas
  against the first — the reference — configuration.  A
  :func:`~repro.engine.runner.run_specs` row renders as the paper's PTA
  line and SkipFlow line;
* :func:`format_analysis_comparison` — one program under N analyzers
  (:class:`~repro.api.report.AnalysisReport` columns, duck-typed): metrics
  as rows, analyzers as columns, used by ``AnalysisSession.compare`` and
  ``repro compare``.

:data:`METRIC_NAMES` and :func:`metric_value` define Table 1's metrics for
the engine rows and the figures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: The metric columns of Table 1, in paper order: each metric's column
#: title and its value on a build report (an
#: :class:`~repro.image.builder.ImageBuildReport` or an engine
#: :class:`~repro.engine.runner.ReportView`).
_METRICS = {
    "analysis_time": ("Analysis[s]", lambda r: r.analysis_time_seconds),
    "total_time": ("Total[s]", lambda r: r.total_time_seconds),
    "reachable_methods": ("Reach.Methods", lambda r: r.metrics.reachable_methods),
    "type_checks": ("TypeChecks", lambda r: r.metrics.type_checks),
    "null_checks": ("NullChecks", lambda r: r.metrics.null_checks),
    "prim_checks": ("PrimChecks", lambda r: r.metrics.primitive_checks),
    "poly_calls": ("PolyCalls", lambda r: r.metrics.poly_calls),
    "binary_size": ("Binary[MB]", lambda r: r.binary_size_bytes),
}

METRIC_NAMES = tuple(_METRICS)


def metric_value(report, metric: str) -> float:
    """One Table 1 metric of a build report."""
    try:
        _, extract = _METRICS[metric]
    except KeyError:
        raise KeyError(f"unknown metric {metric!r}") from None
    return float(extract(report))


def _format_value(metric: str, value: float) -> str:
    if metric in ("analysis_time", "total_time"):
        return f"{value:.2f}"
    if metric == "binary_size":
        return f"{value / 1_000_000.0:.2f}"
    return f"{int(value)}"


def _render_fixed_width(table: List[List[str]], title: str) -> str:
    """Left-justified fixed-width rendering with a rule under the header."""
    widths = [max(len(line[col]) for line in table)
              for col in range(len(table[0]))]
    lines = [title, ""]
    for line_index, line in enumerate(table):
        rendered = "  ".join(cell.ljust(widths[col])
                             for col, cell in enumerate(line))
        lines.append(rendered.rstrip())
        if line_index == 0:
            lines.append("-" * len(rendered))
    return "\n".join(lines)


def matrix_table_rows(results: Sequence) -> List[Dict[str, str]]:
    """Structured rows for N-way engine results (one row per configuration).

    ``results`` are :class:`~repro.engine.runner.MatrixRow`-shaped objects
    (``benchmark``, ``suite``, ``names``, ``metric``, ``reduction_percent``).
    The first configuration is the reference: its rows carry plain values,
    every other configuration's rows carry values with percentage deltas
    against it, mirroring the PTA/SkipFlow layout of Table 1.
    """
    rows: List[Dict[str, str]] = []
    for result in results:
        reference = result.names[0]
        for name in result.names:
            row = {"suite": result.suite, "benchmark": result.benchmark,
                   "configuration": name}
            for metric in METRIC_NAMES:
                value = _format_value(metric, result.metric(metric, name))
                if name == reference:
                    row[metric] = value
                else:
                    delta = -result.reduction_percent(metric, name)
                    row[metric] = f"{value} ({delta:+.1f}%)"
            rows.append(row)
    return rows


def format_matrix_table(results: Sequence,
                        title: str = "N-way comparison") -> str:
    """Render engine results (Table 1 and its N-way form) as a fixed-width table."""
    rows = matrix_table_rows(results)
    headers = ["Benchmark", "Config"] + [heading for heading, _ in _METRICS.values()]
    table: List[List[str]] = [headers]
    previous_benchmark = None
    for row in rows:
        benchmark = row["benchmark"] if row["benchmark"] != previous_benchmark else ""
        previous_benchmark = row["benchmark"]
        table.append([benchmark, row["configuration"]]
                     + [row[m] for m in METRIC_NAMES])
    return _render_fixed_width(table, title)


#: The rows of an analyzer-comparison table: (label, extractor) pairs over
#: :class:`~repro.api.report.AnalysisReport`-shaped objects.  ``None``
#: values (metrics an algorithm cannot produce) render as ``n/a``.
_REPORT_ROWS = (
    ("reachable methods", lambda r: r.reachable_method_count),
    ("call edges", lambda r: r.call_edge_count),
    ("stub methods", lambda r: len(r.stub_methods)),
    ("poly calls", lambda r: r.poly_calls),
    ("solver steps", lambda r: r.solver_steps),
    ("analysis time [ms]", lambda r: f"{r.analysis_time_seconds * 1000:.1f}"),
)


def format_analysis_comparison(reports: Sequence,
                               title: Optional[str] = None) -> str:
    """Render N analyzer reports over one program, analyzers as columns.

    The first report is the reference: the reachable-methods row annotates
    every other column with its delta against it, which makes precision
    ladders (``cha → rta → pta → skipflow``) read directly off the table.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("format_analysis_comparison needs at least one report")
    headers = ["Metric"] + [report.analyzer for report in reports]
    table: List[List[str]] = [headers]
    reference = reports[0].reachable_method_count
    for label, extract in _REPORT_ROWS:
        cells = [label]
        for report in reports:
            value = extract(report)
            if value is None:
                cells.append("n/a")
                continue
            text = str(value)
            if label == "reachable methods" and report is not reports[0] and reference:
                delta = (value / reference - 1.0) * 100.0
                text = f"{text} ({delta:+.1f}%)"
            cells.append(text)
        table.append(cells)
    return _render_fixed_width(table, title or "Analysis comparison")


def summarize_reductions(rows: Sequence) -> Dict[str, float]:
    """Max / min / average reachable-method reduction across a suite.

    Each of the ``rows`` (:class:`~repro.engine.runner.MatrixRow`-shaped)
    contributes its last column's reduction against its first.
    """
    reductions = [row.reduction_percent("reachable_methods", row.names[-1])
                  for row in rows]
    if not reductions:
        return {"max": 0.0, "min": 0.0, "avg": 0.0}
    return {
        "max": max(reductions),
        "min": min(reductions),
        "avg": sum(reductions) / len(reductions),
    }
