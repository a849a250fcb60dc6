"""The differential oracle: concrete execution vs. every analysis variant.

One fuzz *case* is an :class:`~repro.workloads.edits.EditScriptSpec` — a
base program spec plus a monotone edit script.  :func:`check_case` runs the
case through three layers of checking, per edit prefix (the base program is
prefix 0):

**Dynamic soundness.**  The concrete interpreter executes *every* entry
point of the prefix program (each with its own step budget, merging the
traces; runtime faults keep the partial trace via
:meth:`~repro.ir.interpreter.Interpreter.try_run`).  Every executed method
must be reachable for CHA, RTA, the PTA baseline, and exact SkipFlow;
every observed call edge's callee must be reachable or a known stub; and
every concrete parameter value must be covered by exact SkipFlow's
parameter value states (the same invariants as
``tests/integration/test_soundness_differential.py``, industrialized).

**Policy-matrix soundness.**  Every saturation policy is a distinct
solver; each one must also cover the executed methods and call edges.  Saturated states only ever move up the lattice, so the dynamic
trace is a sound oracle for all of them.

**Kernel = reference.**  Every combination's cold fixpoint must equal the
fixpoint of the executable specification, :mod:`repro.checks.reference`
(the ``kernel-divergence`` invariant): reachable and stub methods, every
invoke flow's callees, and every flow's value state, enabled bit and
saturation bit.  The reference shares no code path with the arena kernel's
worklist, edge-key cache, re-linking or resume, so a bug that makes the
kernel's cold and warm answers equally wrong still shows here.

**Warm = cold.**  For every combination, an
:class:`~repro.api.AnalysisSession` replays the edit script warm
(``update`` + ``run(resume=...)``) while a cold solve is run per prefix;
their reachable sets, call edges, and stub sets must be identical at every
step, and the last warm fixpoint must equal the reference's on the program
it resumed over (``kernel-divergence`` again).  An arena-backed twin session
(the base frozen, then attached) replays the same script: each edit
extends its attached arena, where the plain session extends its program's
lowering, and the twin must pay the same counters
(``kernel-divergence``) and match the cold outputs too.

**Static audits.**  Every solver state the case produces — the exact and
baseline solves, each saturated cold combo, and the last step of each warm
chain — is
additionally run through the post-solve audits of :mod:`repro.checks`
(fixpoint stability, link closure, saturation and warm-barrier
consistency; the snapshot round-trip is skipped for speed).  This is the
cheap static oracle riding along with the expensive dynamic one: a state
that is not a true fixpoint fails here even when its reachable set happens
to cover the trace.

A ``mutator`` hook post-filters each analyzer's reachable set, letting the
mutation smoke test verify the oracle actually fires on a broken analyzer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.api import AnalysisSession
from repro.baselines.cha import ClassHierarchyAnalysis
from repro.baselines.rta import RapidTypeAnalysis
from repro.checks import audit_state
from repro.checks.reference import fixpoint_divergences
from repro.core.analysis import run_baseline, run_skipflow
from repro.core.kernel import available_saturation_policies
from repro.core.kernel.saturation import OFF
from repro.ir.arena import freeze, lowered_program, open_program
from repro.ir.interpreter import ExecutionTrace, HeapObject, Interpreter
from repro.ir.program import Program
from repro.workloads.edits import EditScriptSpec, build_edit_delta
from repro.workloads.generator import generate_benchmark

#: Reachable-set post-filter: ``mutator(analyzer_label, reachable)``.
Mutator = Callable[[str, Set[str]], Set[str]]

#: Per-entry-point interpreter step budget.
DEFAULT_MAX_STEPS = 20_000

#: Saturation threshold for the policy matrix — low enough that the quick
#: profile's small programs actually saturate.
DEFAULT_THRESHOLD = 4


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant, precise enough to reproduce by hand."""

    invariant: str  # executed-not-reachable | callee-not-covered |
    #                 value-not-covered | warm-cold-mismatch |
    #                 kernel-divergence | audit
    analyzer: str
    step: int  # edit prefix length (0 = the base program)
    detail: str

    def __str__(self) -> str:
        return (f"[{self.invariant}] {self.analyzer} @ step {self.step}: "
                f"{self.detail}")


@dataclass
class OracleReport:
    """Everything :func:`check_case` concluded about one case."""

    case: str
    violations: List[OracleViolation] = field(default_factory=list)
    prefixes_checked: int = 0
    combos_checked: int = 0
    executed_methods: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


# --------------------------------------------------------------------------- #
# Concrete execution
# --------------------------------------------------------------------------- #
def synthesize_arguments(program: Program,
                         entry_point: str) -> Optional[List[object]]:
    """Concrete arguments for one entry point, or ``None`` to skip it.

    Reference parameters (and the receiver of non-static entries) get a
    fresh instance of the smallest instantiable subtype of their declared
    type; primitives get the interpreter's canonical opaque value.  An
    entry whose receiver type has no instantiable subtype cannot be called
    concretely and is skipped — the analyses still root it, which can only
    make them *more* conservative than the trace.
    """
    method = program.methods.get(entry_point)
    if method is None:
        return None
    hierarchy = program.hierarchy
    signature = method.signature
    object_id = 1_000_000  # disjoint from the interpreter's own counter
    arguments: List[object] = []

    def instance_of(declared: str) -> Optional[HeapObject]:
        nonlocal object_id
        if declared not in hierarchy:
            return None
        subtypes = sorted(hierarchy.instantiable_subtypes(declared))
        if not subtypes:
            return None
        object_id += 1
        return HeapObject(object_id, subtypes[0])

    if not signature.is_static:
        receiver = instance_of(signature.declaring_class)
        if receiver is None:
            return None
        arguments.append(receiver)
    for declared in signature.param_types:
        if declared in hierarchy:
            value = instance_of(declared)
            if value is None:
                return None
            arguments.append(value)
        else:
            arguments.append(7)
    return arguments


def execute_all_entry_points(program: Program,
                             max_steps: int = DEFAULT_MAX_STEPS
                             ) -> ExecutionTrace:
    """One merged trace over every entry point, each with its own budget.

    A per-entry budget matters: a single never-returning guard would
    otherwise burn the whole budget and silence every later entry point.
    """
    merged = ExecutionTrace()
    for entry_point in program.entry_points:
        arguments = synthesize_arguments(program, entry_point)
        if arguments is None:
            continue
        interpreter = Interpreter(program, max_steps=max_steps)
        trace = interpreter.try_run(entry_point, arguments)
        merged.executed_methods |= trace.executed_methods
        merged.call_edges |= trace.call_edges
        merged.allocated_types |= trace.allocated_types
        for key, values in trace.observed_values.items():
            merged.observed_values.setdefault(key, []).extend(values)
        merged.steps += trace.steps
        merged.completed = merged.completed and trace.completed
    return merged


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #
def _prefix_program(script: EditScriptSpec, count: int) -> Program:
    """A fresh program for the script's first ``count`` edits applied cold."""
    program = generate_benchmark(script.base)
    for step in script.steps[:count]:
        build_edit_delta(script.base, step).apply_to(program)
    return program


def _reachable(report, analyzer: str,
               mutator: Optional[Mutator]) -> Set[str]:
    reachable = set(report.reachable_methods)
    if mutator is not None:
        reachable = mutator(analyzer, reachable)
    return reachable


def _check_trace_against(report, analyzer: str, step: int,
                         trace: ExecutionTrace,
                         mutator: Optional[Mutator]) -> List[OracleViolation]:
    violations: List[OracleViolation] = []
    reachable = _reachable(report, analyzer, mutator)
    for method in sorted(trace.executed_methods):
        if method not in reachable:
            violations.append(OracleViolation(
                "executed-not-reachable", analyzer, step,
                f"executed method {method} is not reachable"))
    covered = reachable | set(report.stub_methods)
    for caller, callee in sorted(trace.call_edges):
        if callee not in covered:
            violations.append(OracleViolation(
                "callee-not-covered", analyzer, step,
                f"executed call {caller} -> {callee} has an uncovered callee"))
    return violations


def _check_value_coverage(result, step: int,
                          trace: ExecutionTrace) -> List[OracleViolation]:
    """Observed parameter values vs. exact SkipFlow's parameter states."""
    violations: List[OracleViolation] = []
    for method_name in sorted(trace.executed_methods):
        if method_name not in result.reachable_methods:
            continue
        method = result.program.methods[method_name]
        for index, parameter in enumerate(method.parameters):
            name = parameter.name
            state = result.parameter_state(method_name, index)
            for value in trace.observed_values.get((method_name, name), []):
                if isinstance(value, HeapObject):
                    if value.type_name not in state.types:
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime type "
                            f"{value.type_name} not in {state!r}"))
                elif value is None:
                    if not state.contains_null:
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime null not in "
                            f"{state!r}"))
                elif isinstance(value, int):
                    if not (state.has_any or state.primitive == value):
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime int {value} "
                            f"not covered by {state!r}"))
    return violations


def _canonical_outputs(report) -> Tuple[FrozenSet[str],
                                        FrozenSet[Tuple[str, str]],
                                        FrozenSet[str]]:
    return (frozenset(report.reachable_methods),
            frozenset(report.call_edges),
            frozenset(report.stub_methods))


def _check_audits(state, program: Program, label: str, step: int,
                  warm_barrier: int = 0) -> List[OracleViolation]:
    """The static audits as one more (cheap) oracle over every solve.

    Every fixpoint the case produces — cold combos and warm chains alike —
    must re-audit clean; the snapshot round-trip is skipped for speed
    (``repro check --audit`` and the check smoke exercise it).  States that
    do not exist (CHA/RTA) audit trivially clean.
    """
    if state is None:
        return []
    return [OracleViolation("audit", label, step, diag.render())
            for diag in audit_state(state, program,
                                    warm_barrier=warm_barrier,
                                    snapshot=False)]


def _check_reference(state, program, roots, label: str,
                     step: int) -> List[OracleViolation]:
    """The kernel's fixpoint against the reference's (``kernel-divergence``)."""
    found = fixpoint_divergences(program, state, roots)
    if not found:
        return []
    return [OracleViolation(
        "kernel-divergence", label, step,
        "the arena kernel's fixpoint differs from the reference's: "
        + "; ".join(found))]


def _combo_options(saturation: str, threshold: int) -> dict:
    """Session options of one policy cell; ``off`` takes no threshold."""
    return dict(saturation_policy=saturation,
                saturation_threshold=None if saturation == OFF else threshold)


def check_case(script: EditScriptSpec, *,
               saturations: Optional[Sequence[str]] = None,
               threshold: int = DEFAULT_THRESHOLD,
               max_steps: int = DEFAULT_MAX_STEPS,
               check_values: bool = True,
               mutator: Optional[Mutator] = None) -> OracleReport:
    """Run one case through the full differential oracle.

    ``saturations`` defaults to *every* built-in policy; pass a smaller
    sequence for cheap smoke checks.  Every cold combination's fixpoint
    must equal the reference's (the ``kernel-divergence`` invariant) on
    top of passing the trace and audit oracles.  Returns an
    :class:`OracleReport` whose ``violations`` is empty iff every
    invariant held at every edit prefix for every combination.
    """
    if saturations is None:
        saturations = available_saturation_policies()
    report = OracleReport(case=script.name)
    prefixes = range(len(script.steps) + 1)

    traces: Dict[int, ExecutionTrace] = {}
    cold: Dict[Tuple[str, int], Tuple] = {}
    for count in prefixes:
        program = _prefix_program(script, count)
        trace = execute_all_entry_points(program, max_steps=max_steps)
        traces[count] = trace
        report.prefixes_checked += 1
        report.executed_methods = max(report.executed_methods,
                                      len(trace.executed_methods))

        skipflow = run_skipflow(program)
        baselines = {
            "cha": ClassHierarchyAnalysis(program).run(),
            "rta": RapidTypeAnalysis(program).run(),
            "pta": run_baseline(program),
            "skipflow": skipflow,
        }
        for analyzer, result in baselines.items():
            report.violations.extend(_check_trace_against(
                result, analyzer, count, trace, mutator))
            report.violations.extend(_check_audits(
                getattr(result, "arena_state", None), program,
                analyzer, count))
        if check_values:
            report.violations.extend(
                _check_value_coverage(skipflow, count, trace))

        for saturation in saturations:
            label = f"skipflow[{saturation}@{threshold}]"
            options = _combo_options(saturation, threshold)
            combo = AnalysisSession(program).run("skipflow", **options)
            cold[(saturation, count)] = _canonical_outputs(combo)
            report.violations.extend(_check_trace_against(
                combo, label, count, trace, mutator))
            if saturation != OFF:  # ``off`` is the audited exact solve
                report.violations.extend(_check_audits(
                    combo.raw.arena_state, program, label, count))
            report.violations.extend(_check_reference(
                combo.raw.arena_state, lowered_program(program),
                program.entry_points, label, count))

    # Warm chains: one session per combination, resumed across every edit,
    # and an arena-backed twin of it (the base frozen, then attached) that
    # resumes over the arena each edit extends.
    for saturation in saturations:
        report.combos_checked += 1
        label = f"skipflow[{saturation}@{threshold}]"
        alabel = label[:-1] + "/attached]"
        options = _combo_options(saturation, threshold)
        session = AnalysisSession(generate_benchmark(script.base))
        twin = AnalysisSession(open_program(freeze(
            generate_benchmark(script.base))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback is a failure here
            warm = session.run("skipflow", **options)
            twin_warm = twin.run("skipflow", **options)
            for count in prefixes:
                if count > 0:
                    step = script.steps[count - 1]
                    session.update(build_edit_delta(script.base, step))
                    warm = session.run("skipflow", resume=warm, **options)
                    twin.update(build_edit_delta(script.base, step))
                    twin_warm = twin.run("skipflow", resume=twin_warm,
                                         **options)
                    if twin_warm.solver_stats != warm.solver_stats:
                        report.violations.append(OracleViolation(
                            "kernel-divergence", alabel, count,
                            f"the attached arena's resume diverged from the "
                            f"program lowering's: {twin_warm.solver_stats} "
                            f"vs {warm.solver_stats}"))
                report.violations.extend(_check_reference(
                    warm.raw.arena_state, lowered_program(session.program),
                    session.program.entry_points, f"{label} warm", count))
                report.violations.extend(_check_audits(
                    warm.raw.arena_state, session.program,
                    f"{label} warm", count,
                    warm_barrier=session.warm_barrier))
                for chain, result in ((label, warm), (alabel, twin_warm)):
                    report.violations.extend(_warm_cold_mismatches(
                        chain, count, _canonical_outputs(result),
                        cold[(saturation, count)]))
    return report


def _warm_cold_mismatches(label: str, step: int, warm_outputs,
                          cold_outputs) -> List[OracleViolation]:
    violations: List[OracleViolation] = []
    for kind, w, c in zip(("reachable", "call-edges", "stubs"),
                          warm_outputs, cold_outputs):
        if w != c:
            extra = sorted(w - c)[:3]
            missing = sorted(c - w)[:3]
            violations.append(OracleViolation(
                "warm-cold-mismatch", label, step,
                f"{kind} differ: warm-only={extra}, cold-only={missing}"))
    return violations
