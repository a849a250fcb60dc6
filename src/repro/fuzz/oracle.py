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

**Object = arena.**  Every combination also runs cold on the prefix's
attached arena (``open_program(freeze(program))``), which
:class:`~repro.core.analysis.SkipFlowAnalysis` solves on the arena kernel;
its canonical outputs *and step count* must equal the object kernel's on
the plain program (the ``kernel-divergence`` invariant), and it passes the
trace and audit oracles itself.

**Warm = cold.**  For every combination, an
:class:`~repro.api.AnalysisSession` replays the edit script warm
(``update`` + ``run(resume=...)``) while a cold solve is run per prefix;
their reachable sets, call edges, and stub sets must be identical at every
step.  (Full value-state equality of warm and cold solves is asserted by
``tests/core/test_solver_state.py``; the oracle keeps to the canonical
outputs, which are cheap to compare per prefix.)

**Static audits.**  Every solver state the case produces — the exact and
baseline solves, each cold combo, and every step of each warm chain — is
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
from repro.core.analysis import run_baseline, run_skipflow
from repro.core.kernel import available_saturation_policies
from repro.core.kernel.saturation import OFF
from repro.ir.arena import freeze, open_program
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
        graph = result.method_graph(method_name)
        if graph is None:
            continue
        for flow in graph.parameter_flows:
            name = graph.method.parameters[flow.index].name
            for value in trace.observed_values.get((method_name, name), []):
                if isinstance(value, HeapObject):
                    if value.type_name not in flow.state.types:
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime type "
                            f"{value.type_name} not in {flow.state!r}"))
                elif value is None:
                    if not flow.state.contains_null:
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime null not in "
                            f"{flow.state!r}"))
                elif isinstance(value, int):
                    if not (flow.state.has_any
                            or flow.state.primitive == value):
                        violations.append(OracleViolation(
                            "value-not-covered", "skipflow", step,
                            f"{method_name}.{name}: runtime int {value} "
                            f"not covered by {flow.state!r}"))
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
    sequence for cheap smoke checks.  Every cold combination runs on both
    kernels: the object kernel on the plain prefix program is
    the reference, and the arena kernel on its attached freeze must
    reproduce the reference's canonical outputs *and step count* exactly
    (the ``kernel-divergence`` invariant) on top of passing the trace and
    audit oracles itself.  Returns an :class:`OracleReport` whose
    ``violations`` is empty iff every invariant held at every edit prefix
    for every combination.
    """
    if saturations is None:
        saturations = available_saturation_policies()
    report = OracleReport(case=script.name)
    prefixes = range(len(script.steps) + 1)

    traces: Dict[int, ExecutionTrace] = {}
    cold: Dict[Tuple[str, int], Tuple] = {}
    for count in prefixes:
        program = _prefix_program(script, count)
        attached = open_program(freeze(program))
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
                getattr(result, "solver_state", None), program,
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
            report.violations.extend(_check_audits(
                combo.raw.solver_state, program, label, count))
            alabel = label[:-1] + "/arena]"
            arena = AnalysisSession(attached).run("skipflow", **options)
            if arena.raw.kernel_ran != "arena":
                report.violations.append(OracleViolation(
                    "kernel-divergence", alabel, count,
                    f"the attached program ran on the "
                    f"{arena.raw.kernel_ran} kernel"))
            elif (_canonical_outputs(arena) != cold[(saturation, count)]
                    or arena.solver_steps != combo.solver_steps):
                report.violations.append(OracleViolation(
                    "kernel-divergence", alabel, count,
                    f"the arena kernel diverged from the object "
                    f"kernel: steps {arena.solver_steps} vs "
                    f"{combo.solver_steps}"))
            report.violations.extend(_check_trace_against(
                arena, alabel, count, trace, mutator))
            report.violations.extend(_check_audits(
                arena.raw.solver_state, attached, alabel, count))

    # Warm chains: one session per combination, resumed across every edit.
    for saturation in saturations:
        report.combos_checked += 1
        label = f"skipflow[{saturation}@{threshold}]"
        options = _combo_options(saturation, threshold)
        session = AnalysisSession(generate_benchmark(script.base))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fallback is a failure here
            warm = session.run("skipflow", **options)
            state = warm.raw.solver_state
            for count in prefixes:
                if count > 0:
                    session.update(
                        build_edit_delta(script.base,
                                         script.steps[count - 1]))
                    warm = session.run("skipflow", resume=state, **options)
                    state = warm.raw.solver_state
                report.violations.extend(_check_audits(
                    state, session.program, f"{label} warm", count,
                    warm_barrier=session.warm_barrier))
                warm_outputs = _canonical_outputs(warm)
                cold_outputs = cold[(saturation, count)]
                for kind, w, c in zip(
                        ("reachable", "call-edges", "stubs"),
                        warm_outputs, cold_outputs):
                    if w != c:
                        extra = sorted(w - c)[:3]
                        missing = sorted(c - w)[:3]
                        report.violations.append(OracleViolation(
                            "warm-cold-mismatch", label, count,
                            f"{kind} differ: warm-only={extra}, "
                            f"cold-only={missing}"))
    return report
