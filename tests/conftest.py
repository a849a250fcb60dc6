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


@pytest.fixture
def virtual_threads_program() -> Program:
    return build_virtual_threads_program(use_virtual_threads=False)


@pytest.fixture
def virtual_threads_program_with_virtual() -> Program:
    return build_virtual_threads_program(use_virtual_threads=True)


def _object_image_report(program: Program, config, benchmark_name: str = "program"):
    """The image report of ``program`` solved on the object kernel.

    ``NativeImageBuilder.build`` solves every program on the arena kernel;
    this reference solves the plain program with ``SkipFlowAnalysis`` (the
    object kernel) and assembles the report from the PVPG walks
    (``collect_metrics`` / ``eliminate_dead_code``), so comparing the two
    keeps the cross-kernel bit-identity coverage of image reports.
    """
    from repro.core.analysis import SkipFlowAnalysis
    from repro.image.builder import NativeImageBuilder

    result = SkipFlowAnalysis(program, config).run()
    assert result.kernel_ran == "object"
    return NativeImageBuilder(program, config,
                              benchmark_name=benchmark_name).report(result)


@pytest.fixture
def object_image_report():
    """:func:`_object_image_report`: an image report from the object kernel."""
    return _object_image_report


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
