"""The unified analysis API: registry, report facade, and sessions.

Everything the evaluation is built from — CHA, RTA, the PTA baseline,
SkipFlow, and its ablations — is reachable through three pieces:

* the **registry** (:mod:`repro.api.registry`): analyses are named,
  discoverable plug-ins satisfying the :class:`Analyzer` protocol;
* the **report facade** (:mod:`repro.api.report`): every analysis returns
  one :class:`AnalysisReport`, whatever shape its native result has;
* the **session** (:mod:`repro.api.session`): :class:`AnalysisSession` owns
  program loading and root resolution, and runs or N-way-compares analyses
  by name.

Quick tour::

    from repro.api import AnalysisSession, available_analyzers

    session = AnalysisSession.from_file("examples/app.java")
    report = session.run("skipflow")
    ladder = session.compare(["cha", "rta", "pta", "skipflow"])
    assert ladder.is_monotone_precision_ladder()

The old per-analysis entry points (``run_skipflow``, ``run_baseline``,
``run_pta``, ``ClassHierarchyAnalysis(...).run()``) keep working as thin
shims; see ``docs/api.md`` for the migration table.
"""

from repro.api.errors import (
    CheckFailedError,
    NoEntryPointError,
    ReproError,
    SchemaVersionError,
    ServiceProtocolError,
    SessionExistsError,
    SessionNotFoundError,
    SessionRehydrationError,
    UnknownAnalyzerError,
    exit_code_for,
    http_status_for,
)
from repro.api.registry import (
    Analyzer,
    CallGraphAnalyzer,
    ConfigAnalyzer,
    available_analyzers,
    config_backed_analyzers,
    get_analyzer,
    has_engine_config,
    register_analyzer,
    require_config_analyzer,
    unregister_analyzer,
)
from repro.api.report import (
    SCHEMA_VERSION,
    AnalysisReport,
    CallGraphView,
    call_graph_to_dict,
    wrap_result,
)
from repro.api.session import (
    AnalysisSession,
    ResumeFallbackWarning,
    SessionComparison,
    SessionUpdate,
    resolve_roots,
)
from repro.core.kernel import available_saturation_policies

__all__ = [
    "AnalysisReport",
    "AnalysisSession",
    "Analyzer",
    "CallGraphAnalyzer",
    "CallGraphView",
    "ConfigAnalyzer",
    "CheckFailedError",
    "NoEntryPointError",
    "ReproError",
    "ResumeFallbackWarning",
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "ServiceProtocolError",
    "SessionComparison",
    "SessionExistsError",
    "SessionNotFoundError",
    "SessionRehydrationError",
    "SessionUpdate",
    "UnknownAnalyzerError",
    "available_analyzers",
    "available_saturation_policies",
    "call_graph_to_dict",
    "config_backed_analyzers",
    "exit_code_for",
    "get_analyzer",
    "has_engine_config",
    "http_status_for",
    "register_analyzer",
    "require_config_analyzer",
    "resolve_roots",
    "unregister_analyzer",
    "wrap_result",
]
