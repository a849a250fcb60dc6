"""Warm resumes on the arena kernel, judged by the executable specification.

Each cell replays one edit script twice.  The lowered leg applies every
delta to the plain program, which extends the program's memoized lowering,
and resumes its tables; the attached leg applies it to the program's
attached freeze, which appends the delta's lowering after the arena's fids,
and resumes its own (:class:`~repro.core.kernel.arena_kernel.
ArenaSolverState`).  After every step the attached leg's warm fixpoint must
equal the reference's cold fixpoint of the edited program (:mod:`repro.
checks.reference`), and the legs — the same columns — must agree on every
flow's state and saturation bit, the cumulative counters (steps, joins,
transfers, saturated flows), the reachable set and the call edges; the
last step must also equal a cold solve of the edited
program.  The grid covers every monotone edit kind over a Table 1, a wide
and a composed spec (and an application-model spec for the kinds that need
one) under each saturation policy.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.ir.arena import ArenaProgram, freeze, open_program
from repro.ir.builder import ProgramBuilder
from repro.ir.delta import ProgramDelta
from repro.ir.types import MethodSignature
from repro.workloads.applications import MicroserviceSpec, PluginSystemSpec
from repro.workloads.edits import (
    APPLICATION_EDIT_KINDS,
    MONOTONE_EDIT_KINDS,
    EditStepSpec,
    build_edit_delta,
)
from repro.workloads.generator import BenchmarkSpec, generate_benchmark
from repro.workloads.suites import dacapo_suite, wide_hierarchy_suite
from tests.conftest import fixpoint_signature, reference_divergences


def _named(specs, name):
    return next(spec for spec in specs if spec.name == name)


APPLICATION = BenchmarkSpec(
    name="resume-app", suite="test", core_methods=8, guarded_modules=(),
    services=MicroserviceSpec(services=3, routes=1),
    plugins=PluginSystemSpec(plugins=4, active=2, hooks=1))

#: Spec -> its edit script: every monotone kind it supports, then one
#: more variant so a kind repeats over an already extended arena.
CELLS = {
    "dacapo-pmd": (_named(dacapo_suite(), "pmd"), MONOTONE_EDIT_KINDS),
    "wide-flat-64": (_named(wide_hierarchy_suite(), "wide-flat-64"),
                     MONOTONE_EDIT_KINDS),
    "composed-duo-112": (_named(wide_hierarchy_suite(), "composed-duo-112"),
                         MONOTONE_EDIT_KINDS),
    "application": (APPLICATION, APPLICATION_EDIT_KINDS + MONOTONE_EDIT_KINDS),
}

SATURATIONS = (("off", None), ("allocated-type", 4),
               ("allocated-type-reachable", 4))


def _config(saturation, threshold):
    config = AnalysisConfig.skipflow()
    if threshold is not None:
        config = config.with_saturation_policy(saturation, threshold)
    return config


def _signature(result):
    state = result.solver_state
    return fixpoint_signature(state.pvpg, state.reachable)


@pytest.mark.parametrize("saturation,threshold", SATURATIONS)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_every_warm_resume_is_the_reference_fixpoint(cell, saturation,
                                                     threshold):
    spec, kinds = CELLS[cell]
    config = _config(saturation, threshold)
    plain = generate_benchmark(spec)
    attached = open_program(freeze(plain))
    lowered = SkipFlowAnalysis(plain, config).run()
    arenas = SkipFlowAnalysis(attached, config).run()
    state = arenas.arena_state
    steps = [EditStepSpec(kind=kind, index=index)
             for index, kind in enumerate(kinds + ("add-variant",))]
    for step in steps:
        delta = build_edit_delta(spec, step)
        delta.apply_to(plain, require_monotone=True)
        delta.apply_to(attached, require_monotone=True)
        chain = lowered.arena_state
        lowered = SkipFlowAnalysis(plain, config, state=chain).run()
        arenas = SkipFlowAnalysis(attached, config, state=state).run()
        assert arenas.arena_state is state
        assert lowered.arena_state is chain
        assert not reference_divergences(arenas), step
        # The same columns: the legs agree fid for fid.
        assert lowered.arena_state.st == state.st, step
        assert lowered.arena_state.saturated == state.saturated, step
        assert arenas.stats == lowered.stats, step
        assert arenas.reachable_methods == lowered.reachable_methods, step
        assert arenas.stub_methods == lowered.stub_methods, step
        assert arenas.call_edges() == lowered.call_edges(), step
    cold = SkipFlowAnalysis(plain, config).run()
    assert arenas.reachable_methods == cold.reachable_methods
    assert arenas.call_edges() == cold.call_edges()
    assert _signature(arenas) == _signature(cold)


def _widening_program():
    """Two conservative injections a new subclass widens: the root
    ``Host.boot(Plugin)`` seeds its parameter with every Plugin subtype,
    and the bodyless ``Factory.make()`` returns every one; each path calls
    a different method on what it got."""
    pb = ProgramBuilder()
    for name in ("Plugin", "Host", "Factory", "Main"):
        pb.declare_class(name)
    pb.hierarchy.get("Factory").declare_method(
        MethodSignature("Factory", "make", return_type="Plugin"))
    for method in ("start", "stop"):
        mb = pb.method("Plugin", method)
        mb.return_void()
        pb.finish_method(mb)
    mb = pb.method("Host", "boot", params=("Plugin",))
    mb.invoke_virtual(mb.param(0), "start")
    mb.return_void()
    pb.finish_method(mb)
    mb = pb.method("Main", "main", is_static=True)
    made = mb.invoke_virtual(mb.assign_new("Factory"), "make",
                             result_type="Plugin")
    mb.invoke_virtual(made, "stop")
    mb.return_void()
    pb.finish_method(mb)
    pb.add_entry_point("Main.main")
    pb.add_entry_point("Host.boot")
    return pb.build()


def _turbo_plugin():
    delta = ProgramDelta("turbo")
    delta.declare_class("TurboPlugin", superclass="Plugin")
    for method in ("start", "stop"):
        mb = delta.method("TurboPlugin", method)
        mb.return_void()
        delta.finish_method(mb)
    return delta


def test_resume_replays_root_seeds_and_stub_effects():
    """Only the re-played root seed reaches ``TurboPlugin.start`` and only
    the re-played stub effect ``TurboPlugin.stop``."""
    plain = _widening_program()
    attached = open_program(freeze(plain))
    lowered = SkipFlowAnalysis(plain).run()
    arenas = SkipFlowAnalysis(attached).run()
    assert "Factory.make" in arenas.stub_methods
    delta = _turbo_plugin()
    delta.apply_to(plain, require_monotone=True)
    delta.apply_to(attached, require_monotone=True)
    lowered = SkipFlowAnalysis(plain, state=lowered.arena_state).run()
    arenas = SkipFlowAnalysis(attached, state=arenas.arena_state).run()
    assert {"TurboPlugin.start", "TurboPlugin.stop"} <= arenas.reachable_methods
    assert not reference_divergences(arenas)
    assert arenas.reachable_methods == lowered.reachable_methods
    assert arenas.stats == lowered.stats
    assert _signature(arenas) == _signature(lowered)


def test_the_extended_arena_rewrites_with_its_fids():
    """An extended arena written out and attached again keeps every fid, so
    its tables resume over the attached copy."""
    spec = _named(wide_hierarchy_suite(), "wide-flat-64")
    attached = open_program(freeze(generate_benchmark(spec)))
    config = AnalysisConfig.skipflow()
    for index, kind in enumerate(MONOTONE_EDIT_KINDS):
        build_edit_delta(spec, EditStepSpec(kind, index)).apply_to(attached)
    first = SkipFlowAnalysis(attached, config).run()
    copy = open_program(attached.arena.to_bytes())
    assert isinstance(copy, ArenaProgram)
    assert copy.program_fingerprint == attached.program_fingerprint
    assert copy.arena.field_flow_ids() == attached.arena.field_flow_ids()
    again = SkipFlowAnalysis(copy, config).run()
    assert again.stats == first.stats
    assert again.call_edges() == first.call_edges()
