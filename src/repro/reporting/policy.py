"""The policy study: solver effort and precision across saturation policies.

The solver kernel (:mod:`repro.core.kernel`) makes the megamorphic-flow
saturation cutoff selectable, and this module renders what each policy
costs for one benchmark.  Every point is one engine column of a
``run_config_matrix`` row — one saturation policy — and the ``off`` point
(the bit-identical seed default) is the reference everything else is
measured against: saturation trades *precision* for effort, the reachable
delta against the exact reference is the precision loss, and the study
shows whether a smarter sentinel (``allocated-type``) keeps the loss — and
the re-inflation of solver steps it causes — smaller than the classic
``closed-world`` top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # import-time cycle: engine.runner renders via this module
    from repro.engine.runner import MatrixRow

#: The reference column label: the seed-identical kernel setup.
REFERENCE_LABEL = "off"


@dataclass(frozen=True)
class PolicyPoint:
    """One saturation policy's measurements for one spec."""

    label: str
    saturation: str
    reachable_methods: int
    solver_steps: int
    solver_joins: int
    saturated_flows: int
    analysis_time_seconds: float

    @property
    def is_reference(self) -> bool:
        return self.label == REFERENCE_LABEL


def policy_points(row: "MatrixRow") -> List[PolicyPoint]:
    """Extract the study points from one matrix row (columns keep order).

    Column names must be policy labels (``<saturation>`` with an optional
    ``@threshold`` suffix), which is what ``benchmarks/run_policy_study.py``
    passes to ``run_config_matrix``.
    """
    points = []
    for run in row.runs:
        points.append(PolicyPoint(
            label=run.name,
            saturation=run.name.partition("@")[0],
            reachable_methods=run.report.metrics.reachable_methods,
            solver_steps=run.report.solver_steps,
            solver_joins=run.report.solver_joins,
            saturated_flows=run.report.saturated_flows,
            analysis_time_seconds=run.report.analysis_time_seconds,
        ))
    return points


def _percent_change(value: float, reference: float) -> float:
    if reference == 0:
        return 0.0
    return 100.0 * (value - reference) / reference


def format_policy_study(benchmark: str,
                        points: Sequence[PolicyPoint]) -> str:
    """Render one benchmark's saturation sweep as a text table.

    Deltas are relative to the ``off`` reference, which must be present;
    positive reachable deltas are precision losses, and negative
    steps/joins/time deltas are savings.
    """
    reference = next((p for p in points if p.is_reference), None)
    if reference is None:
        raise ValueError(
            f"policy sweep needs the {REFERENCE_LABEL!r} reference point")

    headers = ["Saturation", "Reach.Methods", "Sat.Flows",
               "Steps", "Joins", "Analysis[ms]"]
    table: List[List[str]] = [headers]
    for point in points:
        if point.is_reference:
            reach = f"{point.reachable_methods}"
            steps = f"{point.solver_steps}"
            joins = f"{point.solver_joins}"
            elapsed = f"{point.analysis_time_seconds * 1000:.1f}"
        else:
            reach_delta = _percent_change(point.reachable_methods,
                                          reference.reachable_methods)
            steps_delta = _percent_change(point.solver_steps,
                                          reference.solver_steps)
            joins_delta = _percent_change(point.solver_joins,
                                          reference.solver_joins)
            time_delta = _percent_change(point.analysis_time_seconds,
                                         reference.analysis_time_seconds)
            reach = f"{point.reachable_methods} ({reach_delta:+.1f}%)"
            steps = f"{point.solver_steps} ({steps_delta:+.1f}%)"
            joins = f"{point.solver_joins} ({joins_delta:+.1f}%)"
            elapsed = (f"{point.analysis_time_seconds * 1000:.1f} "
                       f"({time_delta:+.1f}%)")
        table.append([point.label, reach,
                      f"{point.saturated_flows}", steps, joins, elapsed])

    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = [f"Policy study: {benchmark} "
             "(deltas vs off; +reach = precision loss, "
             "-steps/-joins/-time = savings)"]
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def summarize_policy_sweep(points: Sequence[PolicyPoint]) -> dict:
    """Headline numbers for one spec's sweep.

    Reports the cheapest non-reference point by solver steps, and — per
    saturation policy — the precision loss against the exact reference, so
    the study can answer "which policy is cheapest" and "which sentinel
    loses least" in one line each.
    """
    reference = next(p for p in points if p.is_reference)
    others = [p for p in points if not p.is_reference]
    cheapest = min(others, key=lambda p: p.solver_steps, default=reference)
    loss_by_saturation = {}
    for point in points:
        delta = _percent_change(point.reachable_methods,
                                reference.reachable_methods)
        current = loss_by_saturation.get(point.saturation)
        if current is None or delta > current:
            loss_by_saturation[point.saturation] = delta
    return {
        "cheapest_label": cheapest.label,
        "cheapest_steps_delta_percent": _percent_change(
            cheapest.solver_steps, reference.solver_steps),
        "reachable_loss_percent_by_saturation": loss_by_saturation,
    }
