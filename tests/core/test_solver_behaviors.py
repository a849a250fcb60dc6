"""Unit tests for the solver: fields, invokes, phis, predicates, stubs, loops."""

import time

import pytest

from repro import AnalysisConfig, SkipFlowAnalysis
from repro.ir.arena import lowering
from repro.ir.builder import ProgramBuilder
from repro.lattice.value_state import ValueState


def analyze(program, config=None, roots=None):
    return SkipFlowAnalysis(program, config or AnalysisConfig.skipflow()).run(roots)


class TestFieldFlows:
    def _program(self):
        pb = ProgramBuilder()
        pb.declare_class("Box")
        pb.declare_class("Item")
        pb.declare_class("Main")
        pb.declare_field("Box", "content", "Item")

        mb = pb.method("Box", "get", return_type="Item")
        value = mb.load_field(mb.receiver, "content", "Item")
        mb.return_(value)
        pb.finish_method(mb)

        mb = pb.method("Main", "main", is_static=True)
        box = mb.assign_new("Box")
        item = mb.assign_new("Item")
        mb.store_field(box, "content", item)
        mb.invoke_virtual(box, "get", result_type="Item")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        return pb.build()

    def test_store_reaches_load_through_field(self):
        result = analyze(self._program())
        assert result.field_state("Box.content") == ValueState.of_type("Item")
        assert result.return_state("Box.get") == ValueState.of_type("Item")

    def test_unwritten_field_stays_empty(self):
        program = self._program()
        # Remove the store by rebuilding main without it.
        result = analyze(program)
        assert result.field_state("Box.missing").is_empty


class TestVirtualDispatch:
    def _program(self, instantiate=("Dog", "Cat")):
        pb = ProgramBuilder()
        pb.declare_class("Animal")
        pb.declare_class("Dog", superclass="Animal")
        pb.declare_class("Cat", superclass="Animal")
        pb.declare_class("Main")

        for cls, sound in (("Animal", 0), ("Dog", 1), ("Cat", 2)):
            mb = pb.method(cls, "speak", return_type="int")
            value = mb.assign_int(sound)
            mb.return_(value)
            pb.finish_method(mb)

        mb = pb.method("Main", "main", is_static=True)
        last = None
        for cls in instantiate:
            last = mb.assign_new(cls)
        # A single call site whose receiver joins all instantiated animals.
        if len(instantiate) > 1:
            first = mb.assign_new(instantiate[0])
            mb.if_null(first, "a", "b")
            mb.label("a")
            x = mb.assign_new(instantiate[0])
            mb.jump("m", [x])
            mb.label("b")
            y = mb.assign_new(instantiate[1])
            mb.jump("m", [y])
            receiver = mb.merge("m", ["animal"])[0]
        else:
            receiver = last
        mb.invoke_virtual(receiver, "speak", result_type="int")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        return pb.build()

    def test_monomorphic_call_resolves_single_target(self):
        result = analyze(self._program(instantiate=("Dog",)))
        assert result.is_method_reachable("Dog.speak")
        assert not result.is_method_reachable("Cat.speak")
        assert not result.is_method_reachable("Animal.speak")

    def test_polymorphic_call_resolves_both_targets(self):
        result = analyze(self._program(instantiate=("Dog", "Cat")), AnalysisConfig.baseline_pta())
        assert result.is_method_reachable("Dog.speak")
        assert result.is_method_reachable("Cat.speak")

    def test_inherited_method_resolution(self):
        pb = ProgramBuilder()
        pb.declare_class("Base")
        pb.declare_class("Derived", superclass="Base")
        pb.declare_class("Main")
        mb = pb.method("Base", "hello")
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        derived = mb.assign_new("Derived")
        mb.invoke_virtual(derived, "hello")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert result.is_method_reachable("Base.hello")

    def test_call_on_null_only_receiver_links_nothing(self):
        pb = ProgramBuilder()
        pb.declare_class("Service")
        pb.declare_class("Main")
        mb = pb.method("Service", "go")
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        nothing = mb.assign_null()
        mb.invoke_virtual(nothing, "go")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert not result.is_method_reachable("Service.go")


class TestStaticCallsAndStubs:
    def test_static_call_links_declared_method(self):
        pb = ProgramBuilder()
        pb.declare_class("Util")
        pb.declare_class("Main")
        mb = pb.method("Util", "helper", is_static=True)
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        mb.invoke_static("Util", "helper")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert result.is_method_reachable("Util.helper")

    def test_call_to_bodyless_method_is_a_stub(self):
        pb = ProgramBuilder()
        pb.declare_class("Native")
        pb.declare_class("Main")
        # Declare a signature without a body (a "native" method).
        from repro.ir.types import MethodSignature
        pb.hierarchy.get("Native").declare_method(
            MethodSignature("Native", "now", return_type="int"))
        mb = pb.method("Main", "main", is_static=True)
        native = mb.assign_new("Native")
        result_value = mb.invoke_virtual(native, "now", result_type="int")
        zero = mb.assign_int(0)
        mb.if_eq(result_value, zero, "z", "nz")
        mb.label("z")
        mb.jump("end", [])
        mb.label("nz")
        mb.jump("end", [])
        mb.merge("end", [])
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert "Native.now" in result.stub_methods
        assert not result.is_method_reachable("Native.now")

    def test_static_call_to_unknown_class_recorded_as_stub(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        mb = pb.method("Main", "main", is_static=True)
        mb.invoke_static("System", "currentTimeMillis", result_type="int")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert "System.currentTimeMillis" in result.stub_methods


class TestPredicatesAndPrimitives:
    def _flag_program(self, flag_value):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        pb.declare_class("Feature")
        mb = pb.method("Feature", "on")
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Feature", "off")
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        flag = mb.assign_int(flag_value)
        one = mb.assign_int(1)
        feature = mb.assign_new("Feature")
        mb.if_eq(flag, one, "on", "off")
        mb.label("on")
        mb.invoke_virtual(feature, "on")
        mb.jump("end", [])
        mb.label("off")
        mb.invoke_virtual(feature, "off")
        mb.jump("end", [])
        mb.merge("end", [])
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        return pb.build()

    def test_constant_false_prunes_then_branch(self):
        result = analyze(self._flag_program(0))
        assert not result.is_method_reachable("Feature.on")
        assert result.is_method_reachable("Feature.off")

    def test_constant_true_prunes_else_branch(self):
        result = analyze(self._flag_program(1))
        assert result.is_method_reachable("Feature.on")
        assert not result.is_method_reachable("Feature.off")

    def test_baseline_keeps_both_branches(self):
        result = analyze(self._flag_program(0), AnalysisConfig.baseline_pta())
        assert result.is_method_reachable("Feature.on")
        assert result.is_method_reachable("Feature.off")

    def test_primitive_comparison_prunes_impossible_range(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        pb.declare_class("Big")
        pb.declare_class("Small")
        for cls in ("Big", "Small"):
            mb = pb.method(cls, "handle")
            mb.return_void()
            pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        x = mb.assign_int(42)
        ten = mb.assign_int(10)
        big = mb.assign_new("Big")
        small = mb.assign_new("Small")
        mb.if_lt(x, ten, "lt", "ge")
        mb.label("lt")
        mb.invoke_virtual(small, "handle")
        mb.jump("end", [])
        mb.label("ge")
        mb.invoke_virtual(big, "handle")
        mb.jump("end", [])
        mb.merge("end", [])
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        # 42 < 10 is false: only the else branch is live.
        assert not result.is_method_reachable("Small.handle")
        assert result.is_method_reachable("Big.handle")

    def test_never_returning_callee_prunes_continuation(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        pb.declare_class("Guard")
        pb.declare_class("After")
        mb = pb.method("Guard", "spin")
        mb.jump("loop", [])
        mb.merge("loop", [])
        mb.jump("loop", [])
        pb.finish_method(mb)
        mb = pb.method("After", "run")
        mb.return_void()
        pb.finish_method(mb)
        mb = pb.method("Main", "main", is_static=True)
        guard = mb.assign_new("Guard")
        after = mb.assign_new("After")
        mb.invoke_virtual(guard, "spin")
        mb.invoke_virtual(after, "run")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")

        skipflow = analyze(pb.build())
        assert skipflow.is_method_reachable("Guard.spin")
        assert not skipflow.is_method_reachable("After.run")

    def test_return_state_of_constant_method(self, virtual_threads_program):
        result = analyze(virtual_threads_program)
        assert result.return_state("Thread.isVirtual").constant_value == 0

    def test_parameter_state_query(self, virtual_threads_program):
        result = analyze(virtual_threads_program)
        state = result.parameter_state("SharedThreadContainer.onExit", 1)
        assert state.contains_type("Thread")

    def test_unreachable_method_query_raises(self, virtual_threads_program):
        result = analyze(virtual_threads_program)
        with pytest.raises(KeyError):
            result.return_state("ThreadSet.remove")


class TestLoops:
    def test_loop_phi_joins_initial_and_updated_values(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        mb = pb.method("Main", "count", params=["int"], return_type="int", is_static=True)
        n = mb.param(0)
        zero = mb.assign_int(0)
        mb.jump("head", [zero])
        i = mb.merge("head", ["i"])[0]
        mb.if_lt(i, n, "body", "exit")
        mb.label("body")
        step = mb.assign_any()
        mb.jump("head", [step])
        mb.label("exit")
        mb.return_(i)
        pb.finish_method(mb)

        mb = pb.method("Main", "main", is_static=True)
        bound = mb.assign_int(5)
        mb.invoke_static("Main", "count", [bound], result_type="int")
        mb.return_void()
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")

        result = analyze(pb.build())
        # The loop variable joins the constant 0 with Any from the body.
        assert result.return_state("Main.count").has_any

    def test_solver_terminates_on_self_loop(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        mb = pb.method("Main", "main", is_static=True)
        mb.jump("loop", [])
        mb.merge("loop", [])
        mb.jump("loop", [])
        pb.finish_method(mb)
        pb.add_entry_point("Main.main")
        result = analyze(pb.build())
        assert result.reachable_method_count == 1


class TestConfigurations:
    def test_analysis_without_roots_raises(self):
        pb = ProgramBuilder()
        pb.declare_class("Main")
        mb = pb.method("Main", "main", is_static=True)
        mb.return_void()
        pb.finish_method(mb)
        with pytest.raises(ValueError):
            analyze(pb.build())

    def test_explicit_roots_override_entry_points(self, virtual_threads_program):
        result = analyze(virtual_threads_program, roots=["Thread.isVirtual"])
        assert result.is_method_reachable("Thread.isVirtual")
        assert not result.is_method_reachable("Main.main")

    def test_root_reference_parameters_seeded_conservatively(self, virtual_threads_program):
        result = analyze(virtual_threads_program, roots=["SharedThreadContainer.onExit"])
        state = result.parameter_state("SharedThreadContainer.onExit", 1)
        # Any instantiable Thread subtype plus null.
        assert state.contains_type("Thread")
        assert state.contains_type("VirtualThread")
        assert state.contains_null

    def test_config_names(self):
        assert AnalysisConfig.skipflow().name == "SkipFlow"
        assert AnalysisConfig.baseline_pta().name == "PTA"
        assert AnalysisConfig.skipflow().with_name("custom").name == "custom"

    def test_baseline_disables_predicates_and_primitives(self):
        config = AnalysisConfig.baseline_pta()
        assert not config.use_predicates
        assert not config.track_primitives
        assert config.filter_type_checks
        assert not config.filter_comparisons

    def test_steps_counter_positive(self, virtual_threads_program):
        result = analyze(virtual_threads_program)
        assert result.steps > 0
        assert result.analysis_time_seconds >= 0.0

    def test_analysis_time_excludes_the_lowering(self, virtual_threads_program,
                                                  monkeypatch):
        """The lowering is memoized: whichever config runs first must not be
        charged for it (nor any config, for a slow one)."""
        delay = 0.5
        real_lower = lowering.lower

        def slow_lower(program):
            time.sleep(delay)
            return real_lower(program)

        monkeypatch.setattr(lowering, "lower", slow_lower)
        started = time.perf_counter()
        results = [analyze(virtual_threads_program, config) for config in (
            AnalysisConfig.baseline_pta(), AnalysisConfig.skipflow())]
        assert time.perf_counter() - started >= delay  # it did lower, slowly
        for result in results:
            assert result.analysis_time_seconds < delay, result.config.name
