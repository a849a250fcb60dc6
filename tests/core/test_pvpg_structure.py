"""Structural tests for PVPG construction (Appendix B.4).

The builder lowers each method into arena columns; the graphs here are
the inflated view of a solve rooted at the method under test, so they hold
every flow and build-time edge of its lowering.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.flows import (
    FilterCompareFlow,
    FilterTypeFlow,
    ParameterFlow,
    PhiFlow,
    PhiPredFlow,
    SourceFlow,
)
from repro.core.pvpg import BranchKind, ProgramPVPG
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import CompareOp
from tests.conftest import build_virtual_threads_program


def build_graph(program, method_name, config=None):
    """``method_name``'s graph and the program PVPG of a solve rooted there."""
    result = SkipFlowAnalysis(program, config or AnalysisConfig.skipflow()
                              ).run([method_name])
    return result.method_graph(method_name), result.pvpg


@pytest.fixture
def vt_program():
    return build_virtual_threads_program()


class TestOnExitGraph:
    """The PVPG of Figure 7 (SharedThreadContainer.onExit)."""

    def test_parameter_flows(self, vt_program):
        graph, _ = build_graph(vt_program, "SharedThreadContainer.onExit")
        assert len(graph.parameter_flows) == 2
        assert all(isinstance(f, ParameterFlow) for f in graph.parameter_flows)

    def test_entry_flows_predicated_on_pred_on(self, vt_program):
        graph, pvpg = build_graph(vt_program, "SharedThreadContainer.onExit")
        param = graph.parameter_flows[0]
        assert pvpg.pred_on in param.predicates

    def test_invoke_observes_receiver(self, vt_program):
        graph, _ = build_graph(vt_program, "SharedThreadContainer.onExit")
        is_virtual = next(f for f in graph.invoke_flows if "isVirtual" in f.label)
        thread_param = graph.parameter_flows[1]
        assert is_virtual in thread_param.observers

    def test_invoke_becomes_predicate_of_following_filter(self, vt_program):
        graph, _ = build_graph(vt_program, "SharedThreadContainer.onExit")
        is_virtual = next(f for f in graph.invoke_flows if "isVirtual" in f.label)
        compare_filters = [f for f in graph.flows if isinstance(f, FilterCompareFlow)]
        assert any(f in is_virtual.predicate_targets for f in compare_filters)

    def test_remove_invoke_predicated_on_condition(self, vt_program):
        graph, pvpg = build_graph(vt_program, "SharedThreadContainer.onExit")
        remove = next(f for f in graph.invoke_flows if "remove" in f.label)
        # The remove call is NOT directly predicated on pred_on: it sits behind
        # the branch condition (through the load of virtualThreads).
        assert pvpg.pred_on not in remove.predicates

    def test_branch_record_classified_as_primitive_check(self, vt_program):
        graph, _ = build_graph(vt_program, "SharedThreadContainer.onExit")
        assert len(graph.branch_records) == 1
        assert graph.branch_records[0].kind is BranchKind.PRIMITIVE_CHECK

    def test_phi_pred_created_for_merge(self, vt_program):
        graph, _ = build_graph(vt_program, "SharedThreadContainer.onExit")
        assert any(isinstance(f, PhiPredFlow) for f in graph.flows)


class TestIsVirtualGraph:
    """The PVPG of the isVirtual method (right side of Figure 7)."""

    def test_type_check_filters_created_for_both_branches(self, vt_program):
        graph, _ = build_graph(vt_program, "Thread.isVirtual")
        filters = [f for f in graph.flows if isinstance(f, FilterTypeFlow)]
        assert len(filters) == 2
        assert {f.negated for f in filters} == {True, False}
        assert all(f.type_name == "BaseVirtualThread" for f in filters)

    def test_constants_predicated_on_their_filters(self, vt_program):
        graph, _ = build_graph(vt_program, "Thread.isVirtual")
        filters = {f.negated: f for f in graph.flows if isinstance(f, FilterTypeFlow)}
        constants = {f.expr.int_value: f for f in graph.flows
                     if isinstance(f, SourceFlow) and f.expr.int_value is not None}
        assert constants[1] in filters[False].predicate_targets
        assert constants[0] in filters[True].predicate_targets

    def test_phi_joins_both_constants(self, vt_program):
        graph, _ = build_graph(vt_program, "Thread.isVirtual")
        # One explicit phi for the joined result, plus a collision phi for the
        # filtered `this` value (both branches redefine it through their filters).
        result_phis = [f for f in graph.flows
                       if isinstance(f, PhiFlow) and "result" in f.label]
        assert len(result_phis) == 1
        sources = [f for f in graph.flows if isinstance(f, SourceFlow) and f.uses]
        assert all(result_phis[0] in s.uses for s in sources)

    def test_return_flow_fed_by_phi(self, vt_program):
        graph, _ = build_graph(vt_program, "Thread.isVirtual")
        returns = graph.return_flows
        assert len(returns) == 1
        phi = next(f for f in graph.flows if isinstance(f, PhiFlow))
        assert returns[0] in phi.uses

    def test_branch_record_is_type_check(self, vt_program):
        graph, _ = build_graph(vt_program, "Thread.isVirtual")
        assert graph.branch_records[0].kind is BranchKind.TYPE_CHECK


class TestBinaryComparisonStructure:
    def _graph(self):
        pb = ProgramBuilder()
        pb.declare_class("C")
        mb = pb.method("C", "cmp", params=["int", "int"], param_names=["x", "y"])
        x, y = mb.param(0), mb.param(1)
        mb.if_lt(x, y, "t", "e")
        mb.label("t")
        mb.return_void()
        mb.label("e")
        mb.return_void()
        pb.finish_method(mb)
        return build_graph(pb.build(), "C.cmp")[0]

    def test_two_filters_per_branch(self):
        graph = self._graph()
        filters = [f for f in graph.flows if isinstance(f, FilterCompareFlow)]
        # Two per branch: one for each operand.
        assert len(filters) == 4

    def test_filter_operators_cover_all_four_variants(self):
        graph = self._graph()
        ops = {f.op for f in graph.flows if isinstance(f, FilterCompareFlow)}
        assert ops == {CompareOp.LT, CompareOp.GT, CompareOp.GE, CompareOp.LE}

    def test_filters_chained_by_predicates(self):
        graph = self._graph()
        filters = [f for f in graph.flows if isinstance(f, FilterCompareFlow)]
        chained = [f for f in filters
                   if any(isinstance(p, FilterCompareFlow) for p in f.predicates)]
        assert len(chained) == 2

    def test_observe_edges_connect_operands(self):
        graph = self._graph()
        params = graph.parameter_flows
        observer_kinds = {type(o) for p in params for o in p.observers}
        assert FilterCompareFlow in observer_kinds

    def test_null_check_classification(self):
        pb = ProgramBuilder()
        pb.declare_class("C")
        pb.declare_class("D")
        mb = pb.method("C", "check", params=["D"])
        mb.if_null(mb.param(0), "t", "e")
        mb.label("t")
        mb.return_void()
        mb.label("e")
        mb.return_void()
        pb.finish_method(mb)
        graph = build_graph(pb.build(), "C.check")[0]
        assert graph.branch_records[0].kind is BranchKind.NULL_CHECK


class TestProgramPVPG:
    def test_field_flows_created_lazily(self, vt_program):
        pvpg = ProgramPVPG()
        decl = vt_program.hierarchy.lookup_field("SharedThreadContainer", "virtualThreads")
        first = pvpg.field_flow(decl)
        second = pvpg.field_flow(decl)
        assert first is second
        assert first.enabled

    def test_total_flow_count(self, vt_program):
        graph, pvpg = build_graph(vt_program, "Thread.isVirtual")
        assert pvpg.total_flow_count == graph.flow_count + 1
        assert graph in [pvpg.method_graph("Thread.isVirtual")]

    def test_all_flows_lists_globals_and_methods(self, vt_program):
        graph, pvpg = build_graph(vt_program, "Thread.isVirtual")
        flows = pvpg.all_flows()
        assert pvpg.pred_on in flows
        assert graph.flows[0] in flows
