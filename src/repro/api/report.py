"""The common analysis report: one facade over every analyzer's result.

The codebase grows results in two shapes: the propagation engine (PTA,
SkipFlow, and the ablations) produces a rich
:class:`~repro.core.results.AnalysisResult` with value states and solver
counters, while the classical call-graph baselines (CHA, RTA) produce a
lean :class:`~repro.baselines.cha.CallGraphResult`.  :class:`AnalysisReport`
wraps both behind one call-graph/metrics interface — reachable methods,
call edges, poly-call counts and solver statistics where available — so the
session API, the N-way comparison tables, and the CLI never need to know
which algorithm ran.

Fields that only the propagation engine can produce (``poly_calls``,
``solver_stats``) are ``None`` for the call-graph baselines; the original
result object stays reachable through ``raw`` for callers that need the
full shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Protocol, Tuple, runtime_checkable

from repro.api.errors import SchemaVersionError
from repro.baselines.cha import CallGraphResult
from repro.core.results import AnalysisResult, SolverStats

#: Version of the JSON report schema produced by :meth:`AnalysisReport.
#: to_dict` and consumed by :meth:`AnalysisReport.from_dict`.  One wire
#: format backs ``repro analyze --json``, the analysis daemon's responses,
#: and any stored report; bump it whenever a field changes meaning or shape,
#: and ``from_dict`` will refuse payloads it does not speak.
SCHEMA_VERSION = 1


@runtime_checkable
class CallGraphView(Protocol):
    """The call-graph slice every analysis result can answer for.

    Structural typing only: :class:`AnalysisReport` satisfies it, and so does
    any object exposing reachable methods and (caller, callee) edges.
    """

    @property
    def reachable_methods(self) -> FrozenSet[str]: ...

    @property
    def call_edges(self) -> Tuple[Tuple[str, str], ...]: ...

    def is_method_reachable(self, qualified_name: str) -> bool: ...

    def callees_of(self, qualified_name: str) -> FrozenSet[str]: ...


@dataclass(frozen=True)
class AnalysisReport:
    """What one analyzer computed for one program, algorithm-agnostic.

    ``analyzer`` is the registry name of the analysis that produced the
    report.  ``poly_calls`` and ``solver_stats`` are ``None`` when the
    algorithm does not produce them (CHA/RTA); everything else is defined
    for every analyzer, which is what makes N-way comparisons and precision
    ladders uniform.
    """

    analyzer: str
    reachable_methods: FrozenSet[str]
    stub_methods: FrozenSet[str]
    call_edges: Tuple[Tuple[str, str], ...]
    analysis_time_seconds: float
    poly_calls: Optional[int] = None
    solver_stats: Optional[SolverStats] = None
    raw: object = None

    # ------------------------------------------------------------------ #
    # CallGraphView
    # ------------------------------------------------------------------ #
    @property
    def reachable_method_count(self) -> int:
        return len(self.reachable_methods)

    @property
    def call_edge_count(self) -> int:
        return len(self.call_edges)

    def is_method_reachable(self, qualified_name: str) -> bool:
        return qualified_name in self.reachable_methods

    def callees_of(self, qualified_name: str) -> FrozenSet[str]:
        return frozenset(callee for caller, callee in self.call_edges
                         if caller == qualified_name)

    def callers_of(self, qualified_name: str) -> FrozenSet[str]:
        return frozenset(caller for caller, callee in self.call_edges
                         if callee == qualified_name)

    @property
    def solver_steps(self) -> Optional[int]:
        return self.solver_stats.steps if self.solver_stats is not None else None

    def as_dict(self) -> dict:
        """The scalar metrics of this report (for tables and JSON dumps)."""
        return {
            "analyzer": self.analyzer,
            "reachable_methods": self.reachable_method_count,
            "call_edges": self.call_edge_count,
            "stub_methods": len(self.stub_methods),
            "poly_calls": self.poly_calls,
            "solver_steps": self.solver_steps,
            "analysis_time_seconds": self.analysis_time_seconds,
        }

    # ------------------------------------------------------------------ #
    # The wire format (SCHEMA_VERSION)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """The full JSON-serializable report under :data:`SCHEMA_VERSION`.

        This is the one wire format shared by ``repro analyze --json``, the
        analysis daemon, and round-trip persistence: scalar ``metrics`` (the
        contents of :meth:`as_dict`, minus the analyzer name), the complete
        ``call_graph`` (see :func:`call_graph_to_dict`), and the solver
        counters when the algorithm produced them.  The output is
        deterministic — sets are sorted — so serializing the same report
        twice yields identical JSON, and ``from_dict``/``to_dict`` round-trip
        exactly.
        """
        metrics = self.as_dict()
        del metrics["analyzer"]
        return {
            "schema_version": SCHEMA_VERSION,
            "analyzer": self.analyzer,
            "metrics": metrics,
            "call_graph": call_graph_to_dict(self),
            "solver_stats": (self.solver_stats.as_dict()
                             if self.solver_stats is not None else None),
        }

    @staticmethod
    def from_dict(payload: dict) -> "AnalysisReport":
        """Rebuild a report from its :meth:`to_dict` payload.

        Raises :class:`~repro.api.errors.SchemaVersionError` on a payload
        written under a schema version this code does not speak.  The
        rebuilt report has no ``raw`` result (the deep PVPG does not travel
        over the wire); everything else — call graph, metrics, solver
        counters — round-trips exactly.
        """
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"unsupported report schema version {version!r}; this code "
                f"speaks version {SCHEMA_VERSION}")
        graph = payload["call_graph"]
        metrics = payload["metrics"]
        stats = payload.get("solver_stats")
        return AnalysisReport(
            analyzer=payload["analyzer"],
            reachable_methods=frozenset(graph["reachable_methods"]),
            stub_methods=frozenset(graph["stub_methods"]),
            call_edges=tuple(
                (caller, callee) for caller, callee in graph["call_edges"]),
            analysis_time_seconds=metrics["analysis_time_seconds"],
            poly_calls=metrics["poly_calls"],
            solver_stats=SolverStats(**stats) if stats is not None else None,
            raw=None,
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_analysis_result(result: AnalysisResult,
                             analyzer: Optional[str] = None) -> "AnalysisReport":
        """Wrap a propagation-engine result (PTA, SkipFlow, ablations).

        The call graph and the poly-call count come from the arena
        kernel's tables, so wrapping never inflates its object graph.
        """
        poly_calls = result.kernel_backend.image_counters()["poly_calls"]
        return AnalysisReport(
            analyzer=analyzer or getattr(result.config, "name", "unknown"),
            reachable_methods=frozenset(result.reachable_methods),
            stub_methods=frozenset(result.stub_methods),
            call_edges=tuple(result.call_edges()),
            analysis_time_seconds=result.analysis_time_seconds,
            poly_calls=poly_calls,
            solver_stats=result.stats,
            raw=result,
        )

    @staticmethod
    def from_call_graph_result(result: CallGraphResult,
                               analyzer: Optional[str] = None,
                               analysis_time_seconds: float = 0.0
                               ) -> "AnalysisReport":
        """Wrap a call-graph baseline result (CHA, RTA)."""
        return AnalysisReport(
            analyzer=analyzer or result.algorithm,
            reachable_methods=frozenset(result.reachable_methods),
            stub_methods=frozenset(result.stub_methods),
            call_edges=tuple(sorted(result.call_edges)),
            analysis_time_seconds=analysis_time_seconds,
            poly_calls=None,
            solver_stats=None,
            raw=result,
        )


def call_graph_to_dict(view: CallGraphView) -> dict:
    """The JSON shape of any :class:`CallGraphView` (sorted, deterministic).

    Works for an :class:`AnalysisReport` and for anything else satisfying
    the protocol; the daemon and ``repro analyze --json`` both emit this
    shape inside the versioned report envelope.
    """
    return {
        "reachable_methods": sorted(view.reachable_methods),
        "stub_methods": sorted(getattr(view, "stub_methods", ())),
        "call_edges": sorted(
            [caller, callee] for caller, callee in view.call_edges),
    }


def wrap_result(result: object, analyzer: Optional[str] = None,
                analysis_time_seconds: float = 0.0) -> AnalysisReport:
    """Wrap either result shape into an :class:`AnalysisReport`."""
    if isinstance(result, AnalysisResult):
        return AnalysisReport.from_analysis_result(result, analyzer=analyzer)
    if isinstance(result, CallGraphResult):
        return AnalysisReport.from_call_graph_result(
            result, analyzer=analyzer,
            analysis_time_seconds=analysis_time_seconds)
    raise TypeError(f"cannot wrap {type(result).__name__}: expected an "
                    f"AnalysisResult or a CallGraphResult")
