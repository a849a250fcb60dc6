"""Every built-in saturation sentinel keeps one contract.

A cutoff trades precision for bounded state sizes: once a flow's type set
passes the threshold it collapses to its policy's sentinel (top).  Whatever
the top, a policy must stay a sound over-approximation of the exact solve,
never be coarser than the ``allocated-type`` top a bare threshold engages,
change nothing while the threshold is out of reach, and keep its one
flow-independent top inside the closed world.  The grid runs each property
for every registered sentinel over a plain wide hierarchy, a composed
(interleaved) one, and a generated WideHierarchy spec.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import available_saturation_policies
from repro.core.solver import SkipFlowSolver
from repro.ir.builder import ProgramBuilder
from repro.ir.types import OBJECT_TYPE_NAME
from repro.workloads.generator import (
    BenchmarkSpec,
    HierarchySpec,
    generate_benchmark,
)
from repro.workloads.patterns import add_wide_hierarchy_module
from repro.workloads.suites import suite_by_name

SENTINELS = tuple(name for name in available_saturation_policies()
                  if name != "off")

#: Far below every program's widest flow, so the cutoff really fires.
LOW = 4
#: Far above every program's widest flow, so it never does.
GENEROUS = 10_000


def _hierarchy_program():
    pb = ProgramBuilder()
    handle = add_wide_hierarchy_module(pb, "Demo", depth=2, fanout=4,
                                       call_sites=3, guarded_methods=8)
    pb.declare_class("Main")
    mb = pb.method("Main", "main", is_static=True)
    mb.invoke_static(*handle.driver.split("."))
    mb.return_void()
    pb.finish_method(mb)
    pb.add_entry_point("Main.main")
    return pb.build()


def _composed_program():
    return generate_benchmark(BenchmarkSpec(
        name="sat-composed", suite="test", core_methods=20,
        guarded_modules=(),
        hierarchies=(HierarchySpec(depth=1, fanout=12, call_sites=3),
                     HierarchySpec(depth=1, fanout=10, call_sites=3)),
        compose_hierarchies=True))


def _wide_flat_program():
    spec = next(spec for spec in suite_by_name("WideHierarchy")
                if spec.name == "wide-flat-64")
    return generate_benchmark(spec)


PROGRAMS = {
    "hierarchy": _hierarchy_program,
    "composed": _composed_program,
    "wide-flat-64": _wide_flat_program,
}

_CACHE = {}


def _program(key):
    if key not in _CACHE:
        _CACHE[key] = PROGRAMS[key]()
    return _CACHE[key]


def _config(saturation, threshold):
    config = AnalysisConfig.skipflow()
    if saturation != "off":
        config = config.with_saturation_policy(saturation, threshold)
    return config


def _run(key, saturation, threshold=LOW):
    return SkipFlowAnalysis(_program(key), _config(saturation, threshold)).run()


pytestmark = [
    pytest.mark.parametrize("program", sorted(PROGRAMS)),
    pytest.mark.parametrize("sentinel", SENTINELS),
]


def test_cutoff_fires_at_a_low_threshold(program, sentinel):
    """Keeps the other properties honest: the grid really saturates."""
    assert _run(program, sentinel).stats.saturated_flows > 0


def test_sound_superset_of_exact(program, sentinel):
    exact = _run(program, "off")
    saturated = _run(program, sentinel)
    assert exact.reachable_methods <= saturated.reachable_methods
    assert set(exact.call_edges()) <= set(saturated.call_edges())


def test_never_coarser_than_allocated_type(program, sentinel):
    allocated = _run(program, "allocated-type")
    saturated = _run(program, sentinel)
    assert saturated.reachable_methods <= allocated.reachable_methods
    assert set(saturated.call_edges()) <= set(allocated.call_edges())


def test_generous_threshold_stays_exact(program, sentinel):
    exact = _run(program, "off")
    high = _run(program, sentinel, GENEROUS)
    assert high.stats.saturated_flows == 0
    assert high.reachable_methods == exact.reachable_methods
    assert sorted(high.call_edges()) == sorted(exact.call_edges())


def test_one_top_inside_the_closed_world_and_it_is_dominated(program,
                                                             sentinel):
    """The flow-independent sentinel holds only declared concrete types
    (and ``null``), and lies below every saturated flow's final state."""
    solver = SkipFlowSolver(_program(program), _config(sentinel, LOW))
    solver.solve()
    top = solver._saturation.sentinel
    flows = [flow for graph in solver.pvpg.methods.values()
             for flow in graph.flows]
    flows.extend(solver.pvpg.field_flows.values())
    hierarchy = _program(program).hierarchy
    concrete = set(hierarchy.instantiable_subtypes(OBJECT_TYPE_NAME))
    assert set(top.reference_types) <= concrete
    saturated = [flow for flow in flows if flow.saturated]
    assert saturated
    for flow in saturated:
        assert flow.state.join(top) == flow.state, flow.label
