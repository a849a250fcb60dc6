"""Public facade: analysis configurations and the :class:`SkipFlowAnalysis` driver.

This module is the stable entry point into the analysis core: construct an
:class:`AnalysisConfig` (or one of its canonical factory configurations),
hand it to :class:`SkipFlowAnalysis` together with a
:class:`~repro.ir.program.Program`, and receive an
:class:`~repro.core.results.AnalysisResult`.

Invariant: with every switch at its default (``AnalysisConfig.skipflow()``
for SkipFlow, ``AnalysisConfig.baseline_pta()`` for the baseline, and
``saturation_threshold=None``) results are bit-identical to the seed
implementation of the paper — the same reachable sets, value states, and
solver step counts.  Optional features (the saturation cutoff, validation)
only change results when explicitly enabled, and the benchmark engine keys
its caches on the full config so non-default results are never confused
with default ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.core.kernel.arena_kernel import ArenaKernelSolver, ArenaSolverState
from repro.core.kernel.saturation import (
    ALLOCATED_TYPE,
    OFF,
    available_saturation_policies,
)
from repro.core.results import AnalysisResult, Deferred, SolverStats
from repro.core.state import SolverStateError
from repro.ir.arena import lowered_program
from repro.ir.program import Program
from repro.ir.validate import validate_program


@dataclass(frozen=True)
class AnalysisConfig:
    """Feature switches of the propagation engine.

    The same engine implements both SkipFlow and the baseline points-to
    analysis of the paper; the configurations differ only in these switches.

    ``use_predicates``
        Honour predicate edges: flows stay disabled until their predicate is
        enabled with a non-empty value state.  Disabling this makes the
        analysis flow-insensitive (every flow is enabled immediately).
    ``track_primitives``
        Track concrete primitive constants.  When disabled, every primitive
        constant is abstracted to ``Any`` as in the baseline.
    ``filter_type_checks``
        Apply ``instanceof`` filtering to the value states inside branches.
    ``filter_comparisons``
        Apply null-check and primitive-comparison filtering inside branches.
    ``saturation_threshold``
        Optional cutoff for megamorphic flows: a flow whose reference type
        set grows beyond this many types is collapsed to a conservative
        sentinel and unlinked from further propagation, as in GraalVM's
        points-to analysis.  ``None`` (the default) disables the cutoff and
        preserves the paper's exact semantics.
    ``saturation_policy``
        The solver kernel's cutoff policy (:mod:`repro.core.kernel`): which
        sentinel a saturated flow collapses to.  A bare threshold engages
        the ``allocated-type`` sentinel, and a named policy without a
        threshold is rejected — so ``(saturation_policy,
        saturation_threshold)`` is canonical, which matters because the
        benchmark engine hashes the whole config into its cache keys.  The
        default ``off`` is the seed solver, bit-identical down to step
        counts.

    Nor is the worklist order a switch: the kernel drains it oldest-first.
    """

    name: str = "skipflow"
    use_predicates: bool = True
    track_primitives: bool = True
    filter_type_checks: bool = True
    filter_comparisons: bool = True
    validate: bool = False
    saturation_threshold: Optional[int] = None
    saturation_policy: str = OFF

    def __post_init__(self) -> None:
        # Validate the saturation pair eagerly, so a typo or a malformed
        # threshold fails where the config is written down, not deep inside
        # a solve; then canonicalize it (see the class docstring).
        threshold = self.saturation_threshold
        if threshold is not None and (
                isinstance(threshold, bool) or not isinstance(threshold, int)
                or threshold < 1):
            raise ValueError(
                f"saturation threshold must be an int >= 1, got {threshold!r}")
        policies = available_saturation_policies()
        if self.saturation_policy not in policies:
            raise ValueError(
                f"unknown saturation policy {self.saturation_policy!r}; "
                f"available: {', '.join(policies)}")
        if threshold is None and self.saturation_policy != OFF:
            raise ValueError(
                f"saturation policy {self.saturation_policy!r} needs a "
                f"threshold")
        if threshold is not None and self.saturation_policy == OFF:
            object.__setattr__(self, "saturation_policy", ALLOCATED_TYPE)

    # ------------------------------------------------------------------ #
    # Canonical configurations
    # ------------------------------------------------------------------ #
    @staticmethod
    def skipflow() -> "AnalysisConfig":
        """The full SkipFlow analysis (predicates + primitive values)."""
        return AnalysisConfig(name="SkipFlow")

    @staticmethod
    def baseline_pta() -> "AnalysisConfig":
        """The paper's baseline: type-based, flow-insensitive, context-insensitive."""
        return AnalysisConfig(
            name="PTA",
            use_predicates=False,
            track_primitives=False,
            filter_type_checks=True,
            filter_comparisons=False,
        )

    @staticmethod
    def predicates_only() -> "AnalysisConfig":
        """Ablation: predicate edges without primitive constant tracking."""
        return AnalysisConfig(
            name="SkipFlow-predicates-only",
            use_predicates=True,
            track_primitives=False,
            filter_type_checks=True,
            filter_comparisons=True,
        )

    @staticmethod
    def primitives_only() -> "AnalysisConfig":
        """Ablation: primitive tracking without predicate edges."""
        return AnalysisConfig(
            name="SkipFlow-primitives-only",
            use_predicates=False,
            track_primitives=True,
            filter_type_checks=True,
            filter_comparisons=True,
        )

    def with_name(self, name: str) -> "AnalysisConfig":
        return replace(self, name=name)

    def with_saturation_threshold(self, threshold: Optional[int]) -> "AnalysisConfig":
        """This config with the cutoff at ``threshold`` (``None`` turns it off).

        A threshold on a config whose policy is ``off`` engages the
        ``allocated-type`` sentinel; an explicit policy is preserved, and
        ``None`` resets it to ``off``.
        """
        if threshold is None:
            return replace(self, saturation_policy=OFF,
                           saturation_threshold=None)
        return replace(self, saturation_threshold=threshold)

    def with_saturation_policy(self, saturation: str,
                               threshold: Optional[int] = None) -> "AnalysisConfig":
        """This config with a different cutoff sentinel (and optional threshold).

        ``off`` drops the threshold; any other policy needs one — either
        passed here or already present on the config.
        """
        if saturation == OFF:
            return self.with_saturation_threshold(None)
        if threshold is None:
            threshold = self.saturation_threshold
        return replace(self, saturation_policy=saturation,
                       saturation_threshold=threshold)


class SkipFlowAnalysis:
    """Runs one analysis configuration over a program and packages the result.

    The driver is deterministic: for a fixed program and configuration every
    run produces the same reachable set, value states, and solver counters
    (only wall-clock ``analysis_time_seconds`` varies), which is what makes
    the engine's result cache and the CI solver-steps gate sound.  The
    program is treated as read-only input; analyzing the same ``Program``
    object under two configurations is supported but callers that mutate
    programs (e.g. reflection configs) should hand each analysis its own
    copy, as the benchmark engine does via the program store.

    ``state`` resumes a previous solve instead of starting cold: pass the
    ``arena_state`` of an earlier :class:`~repro.core.results.
    AnalysisResult`, or a restored snapshot, after growing the program
    monotonically, and only the new parts are propagated.  The state's
    counters are cumulative across resumed solves, so a resumed result's
    ``stats`` report total effort; diff them against the previous result to
    get the warm increment.  Resuming consumes the state (it is mutated in
    place).
    """

    def __init__(self, program: Program, config: Optional[AnalysisConfig] = None,
                 *, state: Optional[ArenaSolverState] = None):
        self.program = program
        self.config = config or AnalysisConfig.skipflow()
        self.state = state

    def run(self, roots: Optional[Iterable[str]] = None) -> AnalysisResult:
        """Solve to a fixed point and return an :class:`AnalysisResult`."""
        if self.config.validate:
            validate_program(self.program)
        solver, elapsed = self._solve(roots)
        # ``pvpg`` / ``solver_state`` are handed over as thunks: the kernel
        # inflates its object graph only if a consumer actually asks.
        return AnalysisResult(
            program=self.program,
            config=self.config,
            pvpg=Deferred(lambda: solver.pvpg),
            reachable_methods=set(solver.reachable),
            stub_methods=set(solver.stub_methods),
            analysis_time_seconds=elapsed,
            steps=solver.steps,
            stats=SolverStats(
                steps=solver.steps,
                joins=solver.joins,
                transfers=solver.transfers,
                saturated_flows=solver.saturated_flows,
            ),
            solver_state=Deferred(lambda: solver.state),
            kernel_backend=solver,
        )

    def _solve(self, roots: Optional[Iterable[str]]):
        """Run the arena propagation kernel; return ``(solver, seconds)``.

        :class:`~repro.core.kernel.arena_kernel.ArenaKernelSolver`
        propagates straight on an :class:`~repro.ir.arena.ArenaProgram`'s
        flat columns — an attached buffer, maybe extended by deltas since,
        or a plain program's in-memory lowering (:func:`~repro.ir.arena.
        lowered_program`, memoized per revision and grown in place by a
        monotone delta, so a state solved over it resumes) — cold, or
        resuming an :class:`~repro.core.kernel.arena_kernel.
        ArenaSolverState`.  A state of any other kind is refused.
        """
        started = time.perf_counter()
        state = self.state
        if state is not None and not isinstance(state, ArenaSolverState):
            raise SolverStateError(
                f"cannot resume: only an arena solver state resumes, not a "
                f"{type(state).__name__}")
        solver = ArenaKernelSolver(lowered_program(self.program),
                                   self.config, state)
        solver.solve(roots)
        return solver, time.perf_counter() - started


def run_skipflow(program: Program, roots: Optional[Iterable[str]] = None) -> AnalysisResult:
    """Deprecated shim: run the full SkipFlow configuration.

    Prefer ``AnalysisSession.from_program(program).run("skipflow")`` (see
    :mod:`repro.api` and ``docs/api.md``); this wrapper is kept so existing
    callers — and the seed tests — stay bit-identical.
    """
    return SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run(roots)


def run_baseline(program: Program, roots: Optional[Iterable[str]] = None) -> AnalysisResult:
    """Deprecated shim: run the baseline points-to analysis.

    Prefer ``AnalysisSession.from_program(program).run("pta")`` (see
    :mod:`repro.api` and ``docs/api.md``).
    """
    return SkipFlowAnalysis(program, AnalysisConfig.baseline_pta()).run(roots)
