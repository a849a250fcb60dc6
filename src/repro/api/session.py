"""The analysis session: one program, any number of named analyses.

An :class:`AnalysisSession` owns the three things every analysis run needs
and that used to be scattered across the CLI, the benchmark engine, and the
per-analysis wrappers:

* **program loading** — from surface-language source (:meth:`AnalysisSession.
  from_source` / :meth:`~AnalysisSession.from_file`), from an already-built
  :class:`~repro.ir.program.Program`, or from a benchmark spec with stored
  IR through the engine's :class:`~repro.engine.program_store.ProgramStore`
  (:meth:`~AnalysisSession.from_spec`);
* **root resolution** — :func:`resolve_roots` is the single place that turns
  "explicit roots / program entry points / the ``Main.main`` convention"
  into a validated root list, raising :class:`NoEntryPointError` instead of
  silently analyzing nothing (the historical ``compile_source`` fallback
  made a program without entry points look like an empty-but-successful
  analysis);
* **running and comparing** — :meth:`~AnalysisSession.run` resolves an
  analyzer by registry name, :meth:`~AnalysisSession.compare` runs any
  number of them over the same program and roots and returns one
  :class:`SessionComparison`, e.g. the classic precision ladder
  ``session.compare(["cha", "rta", "pta", "skipflow"])``;
* **evolving and re-analyzing** — :meth:`~AnalysisSession.update` applies a
  :class:`~repro.ir.delta.ProgramDelta` to the session's program, and
  ``run(name, resume=previous_report)`` warm-starts the solve from the
  previous fixpoint instead of solving cold.  The session tracks whether
  every update since the resumed state was monotone; when one was not (or
  the state does not fit — different configuration, an arena state whose
  tables index another program), the run falls back to a cold solve and
  says so with a :class:`ResumeFallbackWarning` rather than failing or,
  worse, resuming unsoundly.

The program is treated as read-only by every registered analyzer, so one
session can run arbitrarily many analyses over the same object (reflection
configs are applied once at load time; :meth:`~AnalysisSession.update` is
the one sanctioned mutation path, and it bumps the session's generation
counter so resumable states can be told apart from stale ones).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.errors import NoEntryPointError
from repro.api.registry import get_analyzer, has_engine_config
from repro.api.report import AnalysisReport
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.results import AnalysisResult
from repro.core.state import SolverStateError
from repro.ir.arena import ArenaProgram, freeze, open_program, thaw
from repro.ir.delta import AppliedDelta, ProgramDelta
from repro.ir.program import Program
from repro.lang.api import compile_source

#: The conventional entry point used when nothing else is specified.
DEFAULT_ENTRY_POINT = "Main.main"


class ResumeFallbackWarning(UserWarning):
    """A requested warm resume was not sound; the session ran cold instead.

    Emitted — never silently swallowed — whenever ``run(..., resume=...)``
    cannot honor the resume: a non-monotone update happened since the state
    was produced, the state was solved under a different configuration, the
    analyzer has no propagation engine, or an arena state's tables index
    another program than the session's.  The cold result is correct either
    way; the warning exists so the *cost* surprise is visible.
    """


#: What ``run(..., resume=...)`` accepts: a report or result of a previous
#: session run, or a bare arena solver state (restored from a snapshot, say).
ResumeSource = Union[AnalysisReport, AnalysisResult, ArenaSolverState]


def resolve_roots(program: Program,
                  roots: Optional[Iterable[str]] = None) -> List[str]:
    """The analysis roots for ``program``, validated against its methods.

    Resolution order: explicit ``roots`` if given, else the program's
    declared entry points, else the ``Main.main`` convention.  Every
    resolved root must name a method the program defines; anything else
    raises :class:`NoEntryPointError` with the offending names.
    """
    if roots is not None:
        resolved = list(roots)
        origin = "explicit roots"
        if not resolved:
            raise NoEntryPointError(
                "an empty roots list was given; pass at least one "
                "qualified method name (Class.method)")
    elif program.entry_points:
        resolved = list(program.entry_points)
        origin = "program entry points"
    elif program.has_method(DEFAULT_ENTRY_POINT):
        return [DEFAULT_ENTRY_POINT]
    else:
        raise NoEntryPointError(
            f"no entry point: the program defines neither entry points nor "
            f"{DEFAULT_ENTRY_POINT}; pass explicit roots (CLI: --entry)")
    missing = [name for name in resolved if not program.has_method(name)]
    if missing:
        raise NoEntryPointError(
            f"{origin} name methods the program does not define: "
            f"{', '.join(missing)}")
    return resolved


@dataclass(frozen=True)
class SessionComparison:
    """N analyses of one program over the same roots, in request order."""

    program_name: str
    reports: Tuple[AnalysisReport, ...]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(report.analyzer for report in self.reports)

    def report(self, analyzer: str) -> AnalysisReport:
        """The report for one analyzer, accepting registry aliases too."""
        wanted = analyzer
        try:
            wanted = get_analyzer(analyzer).name
        except KeyError:
            pass  # Not (or no longer) registered: match the literal name.
        for report in self.reports:
            if report.analyzer == wanted:
                return report
        raise KeyError(f"no report for {analyzer!r}; "
                       f"available: {', '.join(self.names)}")

    def reachable_counts(self) -> Dict[str, int]:
        return {report.analyzer: report.reachable_method_count
                for report in self.reports}

    def is_monotone_precision_ladder(self) -> bool:
        """Whether reachable methods never *grow* along the request order.

        With analyses ordered least-precise-first (``cha, rta, pta,
        skipflow``) a sound implementation must produce a non-increasing
        reachable-method sequence — each rung only removes spurious targets.
        """
        counts = [report.reachable_method_count for report in self.reports]
        return all(left >= right for left, right in zip(counts, counts[1:]))

    def table(self, title: Optional[str] = None) -> str:
        """Render the comparison as an N-column text table."""
        from repro.reporting.table import format_analysis_comparison

        return format_analysis_comparison(
            self.reports, title=title or f"Comparison ({self.program_name})")


@dataclass(frozen=True)
class SessionUpdate:
    """The record of one :meth:`AnalysisSession.update` application."""

    generation: int
    monotone: bool
    reasons: Tuple[str, ...]
    applied: AppliedDelta
    #: Whether the update thawed an attached program (and re-attached the
    #: edited one).
    thawed: bool = False

    def summary(self) -> str:
        return f"generation {self.generation}: {self.applied.summary()}"


class AnalysisSession:
    """Run named analyses over one program with shared root resolution."""

    def __init__(self, program: Program, *, name: str = "program",
                 roots: Optional[Iterable[str]] = None) -> None:
        self.program = program
        self.name = name
        self._default_roots = list(roots) if roots is not None else None
        #: Bumped by every update(); stamped onto the states run() produces.
        self._generation = 0
        #: Generation of the most recent non-monotone update: states from
        #: before it cannot be resumed (the warm barrier).
        self._warm_barrier = 0
        #: Why that update was non-monotone (the offending classes/methods),
        #: kept so fallback warnings can name the offenders.
        self._warm_barrier_reasons: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_program(cls, program: Program, *, name: str = "program",
                     roots: Optional[Iterable[str]] = None) -> "AnalysisSession":
        return cls(program, name=name, roots=roots)

    @classmethod
    def from_source(cls, source: str, *,
                    entry_points: Optional[Iterable[str]] = None,
                    roots: Optional[Iterable[str]] = None,
                    reflection=None, name: str = "source",
                    validate: bool = True) -> "AnalysisSession":
        """Compile surface-language source and wrap it in a session.

        ``entry_points`` are compiled *into* the program (they must name
        defined methods, or compilation raises a
        :class:`~repro.ir.program.ProgramError`); ``roots`` instead become
        the session's default analysis roots, validated lazily by
        :func:`resolve_roots` — misspellings surface as
        :class:`NoEntryPointError`, the taxonomy's root-resolution failure.
        ``reflection`` is an optional :class:`~repro.image.reflection.
        ReflectionConfig`; it is applied once here so that every analysis of
        the session sees the same (augmented) program.
        """
        program = compile_source(source, entry_points=entry_points,
                                 validate=validate)
        if reflection is not None:
            reflection.apply_to(program)
        return cls(program, name=name, roots=roots)

    @classmethod
    def from_file(cls, path, *, entry_points: Optional[Iterable[str]] = None,
                  roots: Optional[Iterable[str]] = None,
                  reflection=None, validate: bool = True) -> "AnalysisSession":
        path = Path(path)
        return cls.from_source(path.read_text(), entry_points=entry_points,
                               roots=roots, reflection=reflection,
                               name=path.name, validate=validate)

    @classmethod
    def from_spec(cls, spec, *, store=None) -> "AnalysisSession":
        """A session over a benchmark spec's generated program.

        With an engine :class:`~repro.engine.program_store.ProgramStore`,
        the program is the spec's attached arena blob (stored on its first
        use) instead of being regenerated: runs solve it on the arena
        kernel, and monotone updates (:meth:`update`) extend it in place,
        so warm runs resume on the arena kernel too.  Results are
        bit-identical either way.
        """
        if store is not None:
            program, _ = store.attach_or_build(spec)
        else:
            from repro.workloads.generator import generate_benchmark

            program = generate_benchmark(spec)
        return cls(program, name=spec.name)

    # ------------------------------------------------------------------ #
    # Program evolution
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """How many updates this session's program has absorbed."""
        return self._generation

    @property
    def warm_barrier(self) -> int:
        """Generation of the last non-monotone update (0 = none yet).

        States stamped with a generation below the barrier resume cold.
        """
        return self._warm_barrier

    @property
    def warm_barrier_reasons(self) -> Tuple[str, ...]:
        """Why the last non-monotone update moved the barrier.

        The per-offender reasons of the update that set
        :attr:`warm_barrier` (e.g. ``"method Probe.check is added to
        pre-existing class Probe (resolution for already-linked receivers
        could change)"``); empty while no non-monotone update happened.
        """
        return self._warm_barrier_reasons

    def adopt_generations(self, generation: int, warm_barrier: int = 0,
                          barrier_reasons: Iterable[str] = ()) -> None:
        """Re-adopt generation counters after rehydrating a persisted session.

        The service layer evicts idle sessions to disk and rebuilds them
        later from a base arena blob plus the log of deltas replayed onto
        it; the rebuilt session must keep the original generation history,
        or solver states stamped before the eviction would be judged
        against a reset warm barrier.
        """
        if generation < 0 or not 0 <= warm_barrier <= generation:
            raise ValueError(
                f"invalid generation counters: generation={generation}, "
                f"warm_barrier={warm_barrier}")
        self._generation = generation
        self._warm_barrier = warm_barrier
        self._warm_barrier_reasons = tuple(barrier_reasons)

    def update(self, delta: ProgramDelta) -> SessionUpdate:
        """Apply an edit script to the session's program in place.

        Structurally invalid deltas raise (:class:`~repro.ir.delta.
        DeltaError`) without touching the program.  Valid deltas are applied
        whether or not they are monotone; a non-monotone application moves
        the session's *warm barrier*, after which earlier states resume
        cold (with a :class:`ResumeFallbackWarning`) instead of unsoundly
        warm.  Returns the application record, including the monotonicity
        verdict and its reasons.

        An attached :class:`~repro.ir.arena.ArenaProgram` stays attached.
        Under a monotone delta the delta's classes, fields and methods are
        lowered and appended after the arena's own ids, nothing is thawed,
        and a state the arena kernel solved before resumes over the grown
        arena.  A non-monotone delta thaws the arena into an equal mutable
        program, applies the delta there and re-attaches the frozen result
        as :attr:`program` (``SessionUpdate.thawed`` records it): states
        solved before index the old arena, and the warm barrier sends the
        next analysis cold.  A plain program is edited in place; a
        monotone delta extends its current in-memory lowering the same
        way, so states solved over it resume without re-lowering.
        """
        thawed = False
        program = self.program
        if (isinstance(program, ArenaProgram)
                and not delta.is_monotone_for(program)):
            program = thaw(program)
            thawed = True
        applied = delta.apply_to(program, require_monotone=False)
        if thawed:
            self.program = open_program(freeze(program))
        self._generation += 1
        if not applied.monotone:
            self._warm_barrier = self._generation
            self._warm_barrier_reasons = applied.reasons
        return SessionUpdate(
            generation=self._generation,
            monotone=applied.monotone,
            reasons=applied.reasons,
            applied=applied,
            thawed=thawed,
        )

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def resolve_roots(self, roots: Optional[Iterable[str]] = None) -> List[str]:
        """This session's validated analysis roots (see :func:`resolve_roots`)."""
        return resolve_roots(
            self.program, roots if roots is not None else self._default_roots)

    def _resolve_resume(self, resume: ResumeSource,
                        analyzer) -> Tuple[Optional[ArenaSolverState], str]:
        """The state to resume from, or (None, why a cold run is needed)."""
        if not has_engine_config(analyzer):
            return None, (f"analysis {analyzer.name!r} has no propagation "
                          f"engine to resume")
        state: Optional[ArenaSolverState]
        if isinstance(resume, ArenaSolverState):
            state = resume
        elif isinstance(resume, AnalysisReport):
            state = getattr(resume.raw, "arena_state", None)
        elif isinstance(resume, AnalysisResult):
            state = resume.arena_state
        else:
            raise TypeError(
                f"resume must be an AnalysisReport, AnalysisResult or "
                f"ArenaSolverState, not {type(resume).__name__}")
        if state is None:
            return None, "the previous result carries no solver state"
        generation = getattr(state, "session_generation", None)
        if generation is not None and generation < self._warm_barrier:
            return None, ("a non-monotone update was applied after this "
                          "state was produced"
                          + self._barrier_detail())
        if (generation is None and self._warm_barrier > 0
                and getattr(state, "fingerprint", None) is None):
            # A foreign, unstamped state in a session whose program has seen
            # a non-monotone update: nothing can prove the state predates or
            # postdates the break, so warm is not defensible.
            return None, ("the session's program had a non-monotone update "
                          + self._barrier_detail()
                          + " and the state carries neither a session "
                          "generation nor a fingerprint to prove it is "
                          "still valid")
        return state, ""

    def _barrier_detail(self) -> str:
        """The offending edits behind the warm barrier, for messages."""
        if not self._warm_barrier_reasons:
            return ""
        return " (" + "; ".join(self._warm_barrier_reasons) + ")"

    def run(self, analysis: str, *, roots: Optional[Iterable[str]] = None,
            resume: Optional[ResumeSource] = None,
            **options) -> AnalysisReport:
        """Run one registered analysis by name and return its report.

        With ``resume``, the solve warm-starts from a previous state (a
        report/result of an earlier run, or a restored snapshot) instead of
        starting cold — sound because the session refuses states from
        before the last non-monotone update and the state itself refuses
        foreign programs (see :class:`ResumeFallbackWarning`).  Resuming
        *consumes* the state: it is mutated in place, and the previous
        report's deep PVPG views (``raw``) follow the continued solve while
        its scalar fields stay as captured.  Counters on a resumed report are cumulative
        across the state's solves.
        """
        analyzer = get_analyzer(analysis)
        resolved = self.resolve_roots(roots)
        if resume is not None:
            state, reason = self._resolve_resume(resume, analyzer)
            if state is None:
                warnings.warn(f"falling back to a cold solve: {reason}",
                              ResumeFallbackWarning, stacklevel=2)
            else:
                try:
                    report = analyzer.analyze(self.program, resolved,
                                              resume=state, **options)
                except SolverStateError as error:
                    warnings.warn(f"falling back to a cold solve: {error}",
                                  ResumeFallbackWarning, stacklevel=2)
                else:
                    self._stamp(report)
                    return report
        report = analyzer.analyze(self.program, resolved, **options)
        self._stamp(report)
        return report

    def _stamp(self, report: AnalysisReport) -> None:
        """Tag the report's arena tables with the session generation it
        solved (no inflation)."""
        state = getattr(report.raw, "arena_state", None)
        if state is not None:
            state.session_generation = self._generation

    def compare(self, analyses: Sequence[str], *,
                roots: Optional[Iterable[str]] = None,
                **options) -> SessionComparison:
        """Run N registered analyses over the same roots and collect them.

        ``analyses`` must name at least two distinct analyzers.  ``options``
        (e.g. ``saturation_threshold``) are routed per analyzer: each one
        receives only the options it declares in ``supported_options``, so
        a ladder mixing CHA/RTA with engine configurations can still sweep
        engine-only knobs.  An option no requested analyzer supports is an
        error (it would otherwise be silently ignored everywhere); analyzers
        that declare no ``supported_options`` attribute receive everything.
        """
        names = list(analyses)
        if len(names) < 2:
            raise ValueError(
                f"compare needs at least two analyses, got {names}")
        analyzers = [get_analyzer(name) for name in names]
        canonical = [analyzer.name for analyzer in analyzers]
        if len(set(canonical)) != len(canonical):
            raise ValueError(f"duplicate analyses in comparison: {names}")
        for option in options:
            if not any(option in getattr(analyzer, "supported_options", {option})
                       for analyzer in analyzers):
                raise ValueError(
                    f"option {option!r} is not supported by any of the "
                    f"requested analyses ({', '.join(canonical)})")
        resolved = self.resolve_roots(roots)
        reports = tuple(
            analyzer.analyze(self.program, resolved, **{
                key: value for key, value in options.items()
                if key in getattr(analyzer, "supported_options", options)})
            for analyzer in analyzers)
        return SessionComparison(program_name=self.name, reports=reports)
