"""Rendering of the evaluation artifacts: Table 1, Figure 9, the policy
(saturation) and incremental studies, and DOT exports."""

from repro.reporting.figures import figure9_series, format_figure9
from repro.reporting.graphviz import call_graph_to_dot, pvpg_to_dot
from repro.reporting.incremental import (
    IncrementalPoint,
    format_incremental_study,
    summarize_incremental,
)
from repro.reporting.policy import (
    PolicyPoint,
    format_policy_study,
    policy_points,
    summarize_policy_sweep,
)
from repro.reporting.records import BenchmarkComparison, compare_configurations
from repro.reporting.service import (
    LoadResult,
    ServicePoint,
    format_load_result,
    format_service_study,
    summarize_service,
)
from repro.reporting.table import (
    format_analysis_comparison,
    format_matrix_table,
    format_table1,
    matrix_table_rows,
    table1_rows,
)
from repro.reporting.trajectory import (
    TrajectoryRow,
    format_trend,
    load_history,
    write_trajectory,
)

__all__ = [
    "BenchmarkComparison",
    "IncrementalPoint",
    "LoadResult",
    "PolicyPoint",
    "ServicePoint",
    "TrajectoryRow",
    "call_graph_to_dot",
    "compare_configurations",
    "figure9_series",
    "format_analysis_comparison",
    "format_figure9",
    "format_incremental_study",
    "format_load_result",
    "format_matrix_table",
    "format_policy_study",
    "format_service_study",
    "format_table1",
    "format_trend",
    "load_history",
    "matrix_table_rows",
    "policy_points",
    "pvpg_to_dot",
    "summarize_incremental",
    "summarize_policy_sweep",
    "summarize_service",
    "table1_rows",
    "write_trajectory",
]
