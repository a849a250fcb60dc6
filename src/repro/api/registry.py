"""The analyzer registry: every analysis is a named, discoverable plug-in.

An *analyzer* is anything satisfying the :class:`Analyzer` protocol: it has
a ``name``, a ``description``, a ``precision_rank`` (its place in the
classic call-graph precision ladder, lower = less precise), and an
``analyze(program, roots, **options)`` method returning an
:class:`~repro.api.report.AnalysisReport`.  Two implementations cover the
whole codebase:

* :class:`ConfigAnalyzer` wraps one :class:`~repro.core.analysis.
  AnalysisConfig` of the shared propagation engine (PTA, SkipFlow, and the
  two ablations);
* :class:`CallGraphAnalyzer` wraps a call-graph construction class
  (CHA, RTA).

The registry maps lowercase names (plus aliases) to analyzer instances;
:func:`available_analyzers` lists them in precision order, which is exactly
the ``cha → rta → pta → skipflow`` ladder the evaluation sweeps.  New
analyses plug in with :func:`register_analyzer` — no other layer needs to
change, because the engine, the session, the image builder, and the CLI all
resolve analyses by name through this module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.api.errors import UnknownAnalyzerError
from repro.api.report import AnalysisReport
from repro.baselines.cha import ClassHierarchyAnalysis
from repro.baselines.rta import RapidTypeAnalysis
from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel.saturation import OFF
from repro.core.state import SolverState
from repro.ir.program import Program


@runtime_checkable
class Analyzer(Protocol):
    """What the registry stores: a named whole-program analysis."""

    name: str
    description: str
    precision_rank: int

    def analyze(self, program: Program,
                roots: Optional[Iterable[str]] = None,
                **options) -> AnalysisReport: ...


@dataclass(frozen=True)
class ConfigAnalyzer:
    """An analyzer backed by the propagation engine and one configuration.

    ``options`` accepted by :meth:`analyze`: the solver-kernel knobs
    ``saturation_threshold`` (the megamorphic-flow cutoff; ``None`` keeps
    the exact paper semantics) and ``saturation_policy`` (the sentinel a
    saturated flow collapses to).  ``resume`` additionally
    accepts the :class:`~repro.core.state.SolverState` of a previous solve
    to warm-start from instead of solving cold; it is deliberately *not* in
    ``supported_options`` because one state cannot back several analyzers of
    a comparison (``AnalysisSession.run`` routes it explicitly).
    """

    name: str
    description: str
    config_factory: Callable[[], AnalysisConfig] = field(repr=False)
    precision_rank: int = 100

    #: Keyword options ``analyze`` understands; ``AnalysisSession.compare``
    #: uses this to route an option only to the analyzers that support it.
    supported_options = frozenset(
        {"saturation_threshold", "saturation_policy"})

    def config(self, saturation_threshold: Optional[int] = None,
               saturation_policy: Optional[str] = None) -> AnalysisConfig:
        """The analyzer's engine configuration under the requested kernel knobs.

        An explicit ``off`` policy together with a threshold contradicts
        itself and is rejected rather than silently dropping one of them.
        """
        if saturation_policy == OFF and saturation_threshold is not None:
            raise ValueError(
                f"saturation policy {OFF!r} contradicts saturation threshold "
                f"{saturation_threshold!r}; pass one or the other")
        config = self.config_factory()
        if saturation_threshold is not None:
            config = config.with_saturation_threshold(saturation_threshold)
        if saturation_policy is not None:
            config = config.with_saturation_policy(saturation_policy)
        return config

    def analyze(self, program: Program,
                roots: Optional[Iterable[str]] = None,
                *, saturation_threshold: Optional[int] = None,
                saturation_policy: Optional[str] = None,
                resume: Optional[SolverState] = None) -> AnalysisReport:
        config = self.config(saturation_threshold, saturation_policy)
        result = SkipFlowAnalysis(program, config, state=resume).run(roots)
        return AnalysisReport.from_analysis_result(result, analyzer=self.name)


@dataclass(frozen=True)
class CallGraphAnalyzer:
    """An analyzer backed by a call-graph construction class (CHA, RTA)."""

    name: str
    description: str
    algorithm: Callable[[Program], ClassHierarchyAnalysis] = field(repr=False)
    precision_rank: int = 0

    #: CHA/RTA have no propagation engine, hence no tunable options.
    supported_options = frozenset()

    def analyze(self, program: Program,
                roots: Optional[Iterable[str]] = None,
                *, saturation_threshold: Optional[int] = None,
                saturation_policy: Optional[str] = None,
                resume: Optional[SolverState] = None) -> AnalysisReport:
        rejected = next(
            (label for label, value in (
                ("saturation_threshold", saturation_threshold),
                ("saturation_policy", saturation_policy),
                ("resume", resume))
             if value is not None), None)
        if rejected is not None:
            raise ValueError(
                f"the {self.name!r} analyzer has no propagation engine and "
                f"does not support {rejected}")
        started = time.perf_counter()
        result = self.algorithm(program).run(roots)
        elapsed = time.perf_counter() - started
        return AnalysisReport.from_call_graph_result(
            result, analyzer=self.name, analysis_time_seconds=elapsed)


# ---------------------------------------------------------------------- #
# The registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Analyzer] = {}
_ALIASES: Dict[str, str] = {}


def _normalize(name: str) -> str:
    return name.strip().lower()


def register_analyzer(analyzer: Analyzer, *, aliases: Iterable[str] = (),
                      replace: bool = False) -> Analyzer:
    """Register an analyzer (and optional aliases) under its lowercase name.

    Raises :class:`ValueError` when a name or alias is already taken, unless
    ``replace`` is set — which also *removes* whatever previously answered
    to any of the names (canonical entries and stale aliases alike), so a
    replacement is reachable under exactly the names it registers.  Returns
    the analyzer so the call can be used as a decorator-style expression.
    """
    key = _normalize(analyzer.name)
    new_names = [key] + [_normalize(alias) for alias in aliases]
    if len(set(new_names)) != len(new_names):
        raise ValueError(f"duplicate names in registration: {new_names}")
    if not replace:
        taken = set(_REGISTRY) | set(_ALIASES)
        for name in new_names:
            if name in taken:
                raise ValueError(
                    f"analyzer name {name!r} is already registered; pass "
                    f"replace=True to override it")
    else:
        for name in new_names:
            # Clear both directions: a canonical entry under this name, any
            # alias previously pointing elsewhere under this name, and any
            # old aliases that pointed at this name.
            _REGISTRY.pop(name, None)
            _ALIASES.pop(name, None)
            for alias in [a for a, target in _ALIASES.items() if target == name]:
                del _ALIASES[alias]
    _REGISTRY[key] = analyzer
    for alias in new_names[1:]:
        _ALIASES[alias] = key
    return analyzer


def unregister_analyzer(name: str) -> None:
    """Remove an analyzer and every alias pointing at it (test hygiene)."""
    key = _ALIASES.get(_normalize(name), _normalize(name))
    _REGISTRY.pop(key, None)
    for alias in [a for a, target in _ALIASES.items() if target == key]:
        del _ALIASES[alias]


def get_analyzer(name: str) -> Analyzer:
    """Look an analyzer up by (case-insensitive) name or alias."""
    key = _normalize(name)
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownAnalyzerError(
            f"unknown analysis {name!r}; available: "
            f"{', '.join(available_analyzers())}") from None


def available_analyzers() -> Tuple[str, ...]:
    """Canonical analyzer names, least precise first (the precision ladder)."""
    return tuple(sorted(
        _REGISTRY, key=lambda key: (_REGISTRY[key].precision_rank, key)))


def has_engine_config(analyzer: Analyzer) -> bool:
    """Whether an analyzer exposes an engine ``AnalysisConfig`` (duck-typed)."""
    return callable(getattr(analyzer, "config", None))


def config_backed_analyzers() -> Tuple[str, ...]:
    """The analyzers that expose an engine ``AnalysisConfig`` (PVPG-based).

    These are the ones the image builder, the PVPG exporter, and the
    benchmark engine can drive; CHA/RTA produce call graphs only.
    """
    return tuple(name for name in available_analyzers()
                 if has_engine_config(get_analyzer(name)))


def require_config_analyzer(name: str,
                            purpose: str = "this operation") -> Analyzer:
    """The analyzer for ``name``, rejecting call-graph-only baselines.

    The single guard behind every consumer that needs the propagation
    engine (the image builder, ``repro callgraph``/``pvpg``); the error
    message lists the analyzers that do qualify.
    """
    analyzer = get_analyzer(name)
    if not has_engine_config(analyzer):
        raise ValueError(
            f"analysis {analyzer.name!r} produces a call graph only and "
            f"cannot drive {purpose}; use one of: "
            f"{', '.join(config_backed_analyzers())}")
    return analyzer


# ---------------------------------------------------------------------- #
# Built-in analyses: the call-graph precision ladder of the paper
# ---------------------------------------------------------------------- #
register_analyzer(CallGraphAnalyzer(
    name="cha",
    description="Class Hierarchy Analysis: every subtype of the declared "
                "receiver type (Dean, Grove & Chambers 1995)",
    algorithm=ClassHierarchyAnalysis,
    precision_rank=0,
))

register_analyzer(CallGraphAnalyzer(
    name="rta",
    description="Rapid Type Analysis: CHA restricted to instantiated "
                "receiver types (Bacon & Sweeney 1996)",
    algorithm=RapidTypeAnalysis,
    precision_rank=10,
))

register_analyzer(ConfigAnalyzer(
    name="pta",
    description="The paper's baseline points-to analysis: type-based, "
                "flow-insensitive, context-insensitive",
    config_factory=AnalysisConfig.baseline_pta,
    precision_rank=20,
), aliases=("baseline",))

register_analyzer(ConfigAnalyzer(
    name="predicates-only",
    description="Ablation: predicate edges without primitive constant "
                "tracking",
    config_factory=AnalysisConfig.predicates_only,
    precision_rank=30,
), aliases=("skipflow-predicates-only",))

register_analyzer(ConfigAnalyzer(
    name="primitives-only",
    description="Ablation: primitive constant tracking without predicate "
                "edges",
    config_factory=AnalysisConfig.primitives_only,
    precision_rank=30,
), aliases=("skipflow-primitives-only",))

register_analyzer(ConfigAnalyzer(
    name="skipflow",
    description="The full SkipFlow analysis: predicate edges plus primitive "
                "constant tracking",
    config_factory=AnalysisConfig.skipflow,
    precision_rank=40,
))
