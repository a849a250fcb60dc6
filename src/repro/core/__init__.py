"""SkipFlow core: predicated value propagation graphs and the fixed-point solve.

The public entry point is :class:`~repro.core.analysis.SkipFlowAnalysis`, which
wraps PVPG construction (Appendix B) and the value-propagation rules
(Appendix C) behind a small facade::

    from repro.core import SkipFlowAnalysis, AnalysisConfig

    analysis = SkipFlowAnalysis(program, AnalysisConfig.skipflow())
    result = analysis.run()
    print(result.reachable_method_count)
"""

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.compare import compare_states
from repro.core.flows import (
    FieldFlow,
    FilterCompareFlow,
    FilterTypeFlow,
    Flow,
    FlowKind,
    InvokeFlow,
    LoadFieldFlow,
    ParameterFlow,
    PhiFlow,
    PhiPredFlow,
    PredOnFlow,
    ReturnFlow,
    SourceFlow,
    StoreFieldFlow,
)
from repro.core.kernel import available_saturation_policies
from repro.core.pvpg import BranchKind, BranchRecord, MethodPVPG, ProgramPVPG
from repro.core.pvpg_builder import PVPGBuilder
from repro.core.results import AnalysisResult, MethodSummary
from repro.core.state import SnapshotMismatchError, SolverState, SolverStateError

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "BranchKind",
    "BranchRecord",
    "FieldFlow",
    "FilterCompareFlow",
    "FilterTypeFlow",
    "Flow",
    "FlowKind",
    "InvokeFlow",
    "LoadFieldFlow",
    "MethodPVPG",
    "MethodSummary",
    "ParameterFlow",
    "PhiFlow",
    "PhiPredFlow",
    "PredOnFlow",
    "ProgramPVPG",
    "PVPGBuilder",
    "ReturnFlow",
    "SkipFlowAnalysis",
    "SnapshotMismatchError",
    "SolverState",
    "SolverStateError",
    "SourceFlow",
    "StoreFieldFlow",
    "available_saturation_policies",
    "compare_states",
]
