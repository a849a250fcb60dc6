"""Figure 9: all metrics normalized to the baseline, per benchmark suite.

The functions read engine :class:`~repro.engine.runner.MatrixRow` objects
(duck-typed) and plot each row's last column against its first: SkipFlow
against PTA in a :func:`~repro.engine.runner.run_specs` row.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.reporting.table import METRIC_NAMES

#: Metrics plotted by Figure 9, in legend order.
FIGURE9_METRICS = METRIC_NAMES


def _normalized(row) -> Dict[str, float]:
    """The row's last column, every metric normalized to its first column."""
    return {metric: row.normalized(metric, row.names[-1])
            for metric in FIGURE9_METRICS}


def figure9_series(rows: Iterable) -> Dict[str, Dict[str, float]]:
    """Per-benchmark normalized metric values (1.0 = baseline, lower is better)."""
    return {row.benchmark: _normalized(row) for row in rows}


def _bar(value: float, width: int = 30) -> str:
    filled = max(0, min(width, int(round(value * width))))
    return "#" * filled


def format_figure9(rows: Sequence, suite_name: str,
                   bar_metric: str = "reachable_methods") -> str:
    """ASCII rendering of one Figure 9 panel.

    Every benchmark gets a bar for ``bar_metric`` (normalized to the baseline)
    plus the numeric values of all other metrics; anything below 1.0 is an
    improvement over the baseline, exactly as in the paper's figure.
    """
    series = figure9_series(rows)
    lines = [f"Figure 9 ({suite_name}): metrics normalized to PTA (lower is better)", ""]
    name_width = max((len(name) for name in series), default=10)
    for name, metrics in series.items():
        bar_value = metrics[bar_metric]
        lines.append(
            f"{name.ljust(name_width)}  {bar_metric}={bar_value:5.2f} "
            f"|{_bar(bar_value):<30}|"
        )
        details = "  ".join(
            f"{metric}={metrics[metric]:.2f}"
            for metric in FIGURE9_METRICS if metric != bar_metric
        )
        lines.append(f"{' ' * name_width}  {details}")
    averages = suite_averages(rows)
    lines.append("")
    lines.append(
        "suite averages: "
        + "  ".join(f"{metric}={averages[metric]:.2f}" for metric in FIGURE9_METRICS)
    )
    return "\n".join(lines)


def suite_averages(rows: Sequence) -> Dict[str, float]:
    """Average normalized value of every metric across a suite."""
    if not rows:
        return {metric: 1.0 for metric in FIGURE9_METRICS}
    series = [_normalized(row) for row in rows]
    return {metric: sum(values[metric] for values in series) / len(series)
            for metric in FIGURE9_METRICS}
