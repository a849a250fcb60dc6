"""Shared fixtures: hand-built programs used across the test suite.

Also registers the suite-wide hypothesis profile: property tests here
build and solve whole programs per example, so the per-example deadline is
off and the too-slow health check suppressed *once*, instead of every
test repeating its own ``settings(deadline=None, ...)`` copy.  Tests only
override ``max_examples``.  CI pins the generation seed with
``--hypothesis-seed`` (see ``.github/workflows/ci.yml``) so a red property
test reproduces locally with the same examples.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import CompareOp
from repro.ir.program import Program

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover — hypothesis ships with [dev]
    pass
else:
    settings.register_profile(
        "repro", deadline=None,
        suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("repro")


def build_virtual_threads_program(use_virtual_threads: bool = False) -> Program:
    """The JDK motivating example of Figure 2, built directly as IR.

    ``SharedThreadContainer.onExit(Thread)`` removes the thread from a set iff
    ``thread.isVirtual()`` returns true; ``Thread.isVirtual()`` is an
    ``instanceof BaseVirtualThread`` check.  When ``use_virtual_threads`` is
    False the application never instantiates a virtual thread, so SkipFlow
    must prove the ``remove()`` call unreachable.
    """
    pb = ProgramBuilder()
    pb.declare_class("Thread")
    pb.declare_class("BaseVirtualThread", superclass="Thread")
    pb.declare_class("VirtualThread", superclass="BaseVirtualThread")
    pb.declare_class("ThreadSet")
    pb.declare_class("SharedThreadContainer")
    pb.declare_class("Main")
    pb.declare_field("SharedThreadContainer", "virtualThreads", "ThreadSet")

    # Thread.isVirtual(): return this instanceof BaseVirtualThread ? 1 : 0
    mb = pb.method("Thread", "isVirtual", return_type="int")
    mb.if_instanceof(mb.receiver, "BaseVirtualThread", "yes", "no")
    mb.label("yes")
    one = mb.assign_int(1)
    mb.jump("done", [one])
    mb.label("no")
    zero = mb.assign_int(0)
    mb.jump("done", [zero])
    result = mb.merge("done", ["result"])[0]
    mb.return_(result)
    pb.finish_method(mb)

    # ThreadSet.remove(Thread)
    mb = pb.method("ThreadSet", "remove", params=["Thread"])
    mb.return_void()
    pb.finish_method(mb)

    # SharedThreadContainer.onExit(Thread):
    #   if (thread.isVirtual() != 0) { virtualThreads.remove(thread); }
    mb = pb.method("SharedThreadContainer", "onExit", params=["Thread"],
                   param_names=["thread"])
    thread = mb.param(0)
    is_virtual = mb.invoke_virtual(thread, "isVirtual", result_type="int")
    zero = mb.assign_int(0)
    mb.if_compare(CompareOp.NE, is_virtual, zero, "virtual", "not_virtual")
    mb.label("virtual")
    threads = mb.load_field(mb.receiver, "virtualThreads", "ThreadSet")
    mb.invoke_virtual(threads, "remove", [thread])
    mb.jump("exit", [])
    mb.label("not_virtual")
    mb.jump("exit", [])
    mb.merge("exit", [])
    mb.return_void()
    pb.finish_method(mb)

    # Main.main(): allocate the container and the threads, call onExit.
    mb = pb.method("Main", "main", is_static=True)
    container = mb.assign_new("SharedThreadContainer")
    threads_set = mb.assign_new("ThreadSet")
    mb.store_field(container, "virtualThreads", threads_set)
    if use_virtual_threads:
        thread = mb.assign_new("VirtualThread")
    else:
        thread = mb.assign_new("Thread")
    mb.invoke_virtual(container, "onExit", [thread])
    mb.return_void()
    pb.finish_method(mb)

    pb.add_entry_point("Main.main")
    return pb.build()


def build_no_phi_merge_program() -> Program:
    """A merge with no explicit phis and four predecessors.

    Every predecessor redefines ``x`` or the constants through branch
    filters.  In reverse postorder the ``split`` side reaches the merge
    first, so its collision creates a phi flow lazily; then ``s2`` and
    ``s1`` both join the same ``x`` flow into that existing lazy phi, the
    second time as a duplicate use edge.
    """
    pb = ProgramBuilder()
    pb.declare_class("Main")
    mb = pb.method("Main", "pick", params=["int"], return_type="int",
                   is_static=True, param_names=["x"])
    x = mb.param(0)
    a = mb.assign_int(1)
    mb.if_lt(x, a, "same", "split")
    mb.label("same")
    b = mb.assign_int(2)
    mb.if_eq(a, b, "s1", "s2")
    mb.label("s1")
    mb.jump("done")
    mb.label("s2")
    mb.jump("done")
    mb.label("split")
    mb.if_eq(x, a, "eq", "ne")
    mb.label("eq")
    mb.jump("done")
    mb.label("ne")
    mb.jump("done")
    mb.merge("done")
    mb.return_(x)
    pb.finish_method(mb)
    pb.program.add_entry_point("Main.pick")
    return pb.program


@pytest.fixture
def virtual_threads_program() -> Program:
    return build_virtual_threads_program(use_virtual_threads=False)


@pytest.fixture
def virtual_threads_program_with_virtual() -> Program:
    return build_virtual_threads_program(use_virtual_threads=True)


def _walked_image_report(program: Program, config, benchmark_name: str = "program"):
    """The image report of ``program`` with metrics and dead code walked.

    ``NativeImageBuilder`` reads the Section 6 counters and the dead-code
    rows from the arena kernel's tables; this report walks the inflated
    PVPG instead (``collect_metrics``, ``eliminate_dead_code``), so
    comparing the two keeps the table fast path honest.
    """
    from dataclasses import replace

    from repro.core.analysis import SkipFlowAnalysis
    from repro.image.builder import NativeImageBuilder
    from repro.image.dce import eliminate_dead_code
    from repro.image.metrics import collect_metrics

    result = SkipFlowAnalysis(program, config).run()
    builder = NativeImageBuilder(program, config,
                                 benchmark_name=benchmark_name)
    metrics, dead_code = collect_metrics(result), eliminate_dead_code(result)
    return replace(builder.report(result), metrics=metrics,
                   dead_code=dead_code,
                   binary_size_bytes=builder.size_model.estimate(
                       result, dead_code))


@pytest.fixture
def walked_image_report():
    """:func:`_walked_image_report`: an image report from the PVPG walks."""
    return _walked_image_report


def reference_divergences(result, roots=None):
    """How ``result``'s arena fixpoint differs from the reference's.

    ``result`` is an :class:`~repro.core.results.AnalysisResult`, an
    :class:`~repro.api.report.AnalysisReport` or an arena solver state;
    the reference (:mod:`repro.checks.reference`) solves the program the
    tables index from ``roots`` (default: its entry points).  Empty when
    reachable and stub methods, every invoke flow's callees and every
    flow's value state, enabled bit and saturation bit agree.
    """
    from repro.checks.reference import fixpoint_divergences

    state = getattr(getattr(result, "raw", result), "arena_state", result)
    return fixpoint_divergences(state.program, state, roots)


def fixpoint_signature(pvpg, reachable):
    """Everything two solves of one program must agree on.

    Reachability, call edges and flow states.  Flow uids differ between
    solves, so flows are matched by (method, label, kind) with a multiset;
    value states are hash-consed and compare structurally.
    """
    edges = set()
    states = Counter()
    for graph in pvpg.methods.values():
        for flow in graph.flows:
            states[(graph.qualified_name, flow.label, flow.kind.value,
                    flow.state)] += 1
        for invoke in graph.invoke_flows:
            for callee in invoke.linked_callees:
                edges.add((graph.qualified_name, invoke.label, callee))
    for name, field_flow in pvpg.field_flows.items():
        states[("<fields>", name, field_flow.kind.value,
                field_flow.state)] += 1
    return frozenset(reachable), edges, states
