"""The policy study: solver effort and precision across saturation cutoffs.

The solver kernel (:mod:`repro.core.kernel`) makes the megamorphic-flow
saturation cutoff selectable, and this module renders what each policy
costs, at each threshold, for one benchmark.  Every point is one engine
column of a ``run_config_matrix`` row — one saturation policy at one
threshold — and the ``off`` point (the bit-identical seed default) is the
reference everything else is measured against:

* **precision loss** — extra reachable methods and extra linked
  polymorphic call targets relative to the exact run (a saturated flow
  collapses to its policy's top, so guards over it can stop discharging);
* **solver cost** — steps, joins and wall time.  They can move either way:
  saturation skips joins into collapsed flows, yet an over-approximated
  reachable set adds flows (and joins, and steps) of its own, so the table
  reports signed deltas.

The study shows how much the reachability-refined
``allocated-type-reachable`` top recovers over ``allocated-type`` (the
sentinel a bare threshold engages) as the threshold shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # import-time cycle: engine.runner renders via this module
    from repro.engine.runner import MatrixRow

#: The reference column label: the seed-identical kernel setup.
REFERENCE_LABEL = "off"


@dataclass(frozen=True)
class PolicyPoint:
    """One (saturation policy, threshold) cell's measurements for one spec."""

    label: str
    saturation: str
    reachable_methods: int
    poly_calls: int
    solver_steps: int
    solver_joins: int
    saturated_flows: int
    analysis_time_seconds: float

    @property
    def is_reference(self) -> bool:
        return self.label == REFERENCE_LABEL

    @property
    def threshold(self) -> Optional[int]:
        """The cutoff parsed from the ``@threshold`` label suffix, if any."""
        _, _, threshold = self.label.partition("@")
        return int(threshold) if threshold else None


def policy_points(row: "MatrixRow") -> List[PolicyPoint]:
    """Extract the study points from one matrix row.

    Column names must be policy labels (``<saturation>`` with an optional
    ``@threshold`` suffix), which is what ``benchmarks/run_policy_study.py``
    passes to ``run_config_matrix``.  The reference comes first, then each
    saturation policy in column order with its thresholds ascending.
    """
    points = []
    for run in row.runs:
        metrics = run.report.metrics
        points.append(PolicyPoint(
            label=run.name,
            saturation=run.name.partition("@")[0],
            reachable_methods=metrics.reachable_methods,
            poly_calls=metrics.poly_calls,
            solver_steps=run.report.solver_steps,
            solver_joins=run.report.solver_joins,
            saturated_flows=run.report.saturated_flows,
            analysis_time_seconds=run.report.analysis_time_seconds,
        ))
    saturations = list(dict.fromkeys(point.saturation for point in points))
    return sorted(points, key=lambda point: (
        not point.is_reference, saturations.index(point.saturation),
        point.threshold or 0))


def _percent_change(value: float, reference: float) -> float:
    if reference == 0:
        return 0.0
    return 100.0 * (value - reference) / reference


def _cell(text: str, value: float, reference: float, delta: bool) -> str:
    """``text``, followed by its signed change against ``reference``."""
    if not delta:
        return text
    return f"{text} ({_percent_change(value, reference):+.1f}%)"


def format_policy_study(benchmark: str,
                        points: Sequence[PolicyPoint]) -> str:
    """Render one benchmark's policy × threshold sweep as a text table.

    Deltas are relative to the ``off`` reference, which must be present;
    positive reachable/poly-call deltas are precision losses, and negative
    steps/joins/time deltas are savings.
    """
    reference = next((p for p in points if p.is_reference), None)
    if reference is None:
        raise ValueError(
            f"policy sweep needs the {REFERENCE_LABEL!r} reference point")

    headers = ["Saturation", "Reach.Methods", "PolyCalls", "Sat.Flows",
               "Steps", "Joins", "Analysis[ms]"]
    table: List[List[str]] = [headers]
    for point in points:
        deltas = not point.is_reference
        table.append([
            point.label,
            _cell(f"{point.reachable_methods}", point.reachable_methods,
                  reference.reachable_methods, deltas),
            _cell(f"{point.poly_calls}", point.poly_calls,
                  reference.poly_calls, deltas),
            f"{point.saturated_flows}",
            _cell(f"{point.solver_steps}", point.solver_steps,
                  reference.solver_steps, deltas),
            _cell(f"{point.solver_joins}", point.solver_joins,
                  reference.solver_joins, deltas),
            _cell(f"{point.analysis_time_seconds * 1000:.1f}",
                  point.analysis_time_seconds,
                  reference.analysis_time_seconds, deltas),
        ])

    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = [f"Policy study: {benchmark} "
             "(deltas vs off; +reach/+poly = precision loss, "
             "-steps/-joins/-time = savings)"]
    for index, row in enumerate(table):
        lines.append("  ".join(text.rjust(width)
                               for text, width in zip(row, widths)))
        if index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def summarize_policy_sweep(points: Sequence[PolicyPoint]) -> dict:
    """Headline numbers for one spec's sweep.

    Reports the cheapest non-reference point by solver steps, and — per
    saturation policy — the worst precision loss over its thresholds
    against the exact reference, so the study can answer "which cell is
    cheapest" and "which sentinel loses least" in one line each.
    """
    reference = next(p for p in points if p.is_reference)
    others = [p for p in points if not p.is_reference]
    cheapest = min(others, key=lambda p: p.solver_steps, default=reference)
    loss_by_saturation: Dict[str, float] = {}
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
