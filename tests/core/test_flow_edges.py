"""Flow edge containers: ordered edge sets, allocated on first use.

Every edge kind of a :class:`~repro.core.flows.Flow` is an insertion-ordered
``dict`` keyed by the other flow.  ``uses`` is allocated with the flow; the
kinds most flows never use (``observers``, ``predicate_targets`` and the
incoming ``predicates``) share the immutable ``NO_EDGES`` until their first
add.  These tests pin the set semantics, the order, the absence of
cross-flow sharing, repeated inflation of the kernel's tables, and the
allocation count.
"""

import gc

import pytest

from repro.checks import audit_state
from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.flows import NO_EDGES, PhiFlow
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)

SPEC = BenchmarkSpec(
    name="flow-edges", suite="test", core_methods=12,
    guarded_modules=(GuardedModuleSpec("boolean_flag", 4),),
    hierarchies=(HierarchySpec(depth=2, fanout=3, call_sites=3),))

#: (adder, outgoing container) per edge kind.
EDGE_KINDS = (
    ("add_use", "uses"),
    ("add_observer", "observers"),
    ("add_predicate_target", "predicate_targets"),
)


def _phis(count):
    return [PhiFlow(f"phi{index}", "Test.test") for index in range(count)]


@pytest.mark.parametrize("adder, container", EDGE_KINDS,
                         ids=[container for _, container in EDGE_KINDS])
class TestOrderedEdgeSets:
    def test_duplicate_edge_is_a_no_op(self, adder, container):
        source, first, second = _phis(3)
        getattr(source, adder)(first)
        getattr(source, adder)(second)
        getattr(source, adder)(first)
        assert list(getattr(source, container)) == [first, second]

    def test_insertion_order_is_kept(self, adder, container):
        source, *targets = _phis(6)
        order = [targets[index] for index in (3, 0, 4, 1, 2)]
        for target in order + order[::-1]:
            getattr(source, adder)(target)
        assert list(getattr(source, container)) == order

    def test_membership_is_by_identity(self, adder, container):
        source, target = _phis(2)
        twin = PhiFlow(target.label, target.method)
        getattr(source, adder)(target)
        edges = getattr(source, container)
        assert target in edges
        assert twin not in edges


class TestLazyContainers:
    def test_fresh_flows_share_the_immutable_empty(self):
        first, second = _phis(2)
        for flow in (first, second):
            assert flow.observers is NO_EDGES
            assert flow.predicate_targets is NO_EDGES
            assert flow.predicates is NO_EDGES
        assert isinstance(NO_EDGES, tuple)
        assert first.uses == {} and first.uses is not second.uses

    def test_first_add_does_not_leak_into_another_fresh_flow(self):
        source, bystander, target = _phis(3)
        source.add_observer(target)
        source.add_predicate_target(target)
        assert list(source.observers) == [target]
        assert list(source.predicate_targets) == [target]
        assert bystander.observers is NO_EDGES
        assert bystander.predicate_targets is NO_EDGES
        assert bystander.predicates is NO_EDGES
        assert not bystander.uses

    def test_predicates_back_edges_follow_add_predicate_target(self):
        first, second, target, other = _phis(4)
        first.add_predicate_target(target)
        second.add_predicate_target(target)
        first.add_predicate_target(target)
        second.add_predicate_target(other)
        assert list(target.predicates) == [first, second]
        assert list(other.predicates) == [second]
        assert list(first.predicate_targets) == [target]
        assert list(second.predicate_targets) == [target, other]
        # A predicate is not itself a target: its own back-edges stay empty.
        assert first.predicates is NO_EDGES

    def test_has_use_reads_the_use_set(self):
        source, target, other = _phis(3)
        source.add_use(target)
        assert source.has_use(target)
        assert not source.has_use(other)
        assert not target.has_use(source)


class TestAllocation:
    def test_a_fresh_flow_owns_exactly_one_container(self):
        flow = PhiFlow("phi", "Test.test")
        containers = [ref for ref in gc.get_referents(flow)
                      if isinstance(ref, (dict, list, set, frozenset, tuple))
                      and ref is not NO_EDGES]
        assert len(containers) == 1
        assert containers[0] is flow.uses
        # The use dict becomes GC-tracked only once it holds a flow; the
        # shared empty never is.
        flow.add_use(PhiFlow("target", "Test.test"))
        tracked = [ref for ref in gc.get_referents(flow)
                   if isinstance(ref, (dict, list, set, frozenset, tuple))
                   and gc.is_tracked(ref)]
        assert tracked == [flow.uses]


def _edge_positions(flows):
    """Each flow's edges as positions in ``flows`` (uids differ between
    inflations)."""
    position = {flow.uid: index for index, flow in enumerate(flows)}
    return [tuple([position[target.uid] for target in getattr(flow, kind)]
                  for kind in ("uses", "observers", "predicate_targets"))
            for flow in flows]


class TestInflation:
    def test_empty_containers_survive_and_re_audit_clean(self):
        program = generate_benchmark(SPEC)
        result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        state = result.solver_state
        again = result.arena_state.inflate()
        flows = again.pvpg.all_flows()
        # The fixture must exercise both shapes of every lazy kind.
        for kind in ("observers", "predicate_targets", "predicates"):
            assert any(getattr(flow, kind) is NO_EDGES for flow in flows)
            assert any(getattr(flow, kind) for flow in flows)
        assert _edge_positions(flows) == _edge_positions(
            state.pvpg.all_flows())
        assert audit_state(again, program, snapshot=False) == []
