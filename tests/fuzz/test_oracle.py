"""The differential oracle: interpreter trace vs every analyzer."""

from repro.core import analysis as analysis_module
from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.fuzz.generator import generate_cases
from repro.fuzz.oracle import (
    check_case,
    execute_all_entry_points,
    synthesize_arguments,
)
from repro.workloads.edits import EditScriptSpec, EditStepSpec
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    generate_benchmark,
)

SMALL_SPEC = BenchmarkSpec(
    name="oracle-small", suite="fuzz", core_methods=6,
    guarded_modules=(GuardedModuleSpec("null_default", 5),))

SMALL_MATRIX = dict(schedulings=("fifo",), saturations=("off",))


def _script(steps=()):
    return EditScriptSpec(base=SMALL_SPEC, steps=tuple(steps))


class TestExecution:
    def test_synthesize_arguments_covers_reference_params(self):
        from repro.lang import compile_source

        program = compile_source("""
class Payload { }
class Main {
  static void main() { }
  static void take(Payload p, int n) { }
}
""")
        arguments = synthesize_arguments(program, "Main.take")
        assert len(arguments) == 2
        assert arguments[0].type_name == "Payload"
        assert arguments[1] == 7

    def test_every_entry_point_gets_its_own_budget(self):
        # One spinning entry must not consume the budget of later ones:
        # each entry point runs in a fresh interpreter.
        from repro.lang import compile_source

        program = compile_source("""
class Main { static void main() { } }
class Late { static void go() { } }
""")
        program.add_entry_point("Late.go")
        trace = execute_all_entry_points(program, max_steps=100)
        assert {"Main.main", "Late.go"} <= set(trace.executed_methods)


class TestCheckCase:
    def test_clean_case_has_no_violations(self):
        report = check_case(_script(), **SMALL_MATRIX)
        assert report.ok
        assert report.prefixes_checked == 1
        assert report.combos_checked == 1
        assert report.executed_methods > 0

    def test_checks_every_edit_prefix(self):
        steps = (EditStepSpec(kind="add-variant", index=0),
                 EditStepSpec(kind="add-dispatch", index=1))
        report = check_case(_script(steps), **SMALL_MATRIX)
        assert report.ok
        assert report.prefixes_checked == 3  # base + each edit prefix

    def test_full_matrix_covers_every_registered_policy(self):
        from repro.core.kernel import (
            available_saturation_policies,
            available_scheduling_policies,
        )

        report = check_case(_script())
        expected = (len(available_scheduling_policies())
                    * len(available_saturation_policies()))
        assert report.combos_checked == expected
        assert report.ok

    def test_mutated_analyzer_is_caught(self):
        def drop_main(analyzer, reachable):
            return {m for m in reachable if m != "Main.main"}

        report = check_case(_script(), mutator=drop_main, **SMALL_MATRIX)
        assert not report.ok
        invariants = {v.invariant for v in report.violations}
        assert "executed-not-reachable" in invariants
        # Every analyzer tier is checked against the trace.
        analyzers = {v.analyzer for v in report.violations}
        assert {"cha", "rta", "pta", "skipflow"} <= analyzers

    def test_planted_arena_step_fault_is_a_kernel_divergence(self, monkeypatch):
        """The object/arena cross-check can fail: an arena kernel that
        counts one step too many diverges, and nothing else fires."""
        steps = ArenaKernelSolver.steps
        monkeypatch.setattr(ArenaKernelSolver, "steps",
                            property(lambda solver: steps.fget(solver) + 1))
        report = check_case(_script(), **SMALL_MATRIX)
        assert report.violations
        assert all(violation.invariant == "kernel-divergence"
                   and violation.analyzer == "skipflow[fifo/off@4/arena]"
                   for violation in report.violations)

    def test_planted_routing_fault_is_a_kernel_divergence(self, monkeypatch):
        """An attached program that is not routed to the arena kernel is
        reported, even though its outputs still match."""
        class NotAnArena:
            pass

        monkeypatch.setattr(analysis_module, "ArenaProgram", NotAnArena)
        report = check_case(_script(), **SMALL_MATRIX)
        assert report.violations
        assert all(violation.invariant == "kernel-divergence"
                   and "ran on the object kernel" in violation.detail
                   for violation in report.violations)

    def test_violation_detail_names_the_method(self):
        def drop_main(analyzer, reachable):
            return {m for m in reachable if m != "Main.main"}

        report = check_case(_script(), mutator=drop_main, **SMALL_MATRIX)
        assert any("Main.main" in violation.detail
                   for violation in report.violations)

    def test_generated_quick_cases_are_sound(self):
        # A slice of the CI sweep, on the cheap matrix.
        for script in generate_cases(11, 4):
            report = check_case(script, **SMALL_MATRIX)
            assert report.ok, report.violations[0]


class TestWarmColdEquivalence:
    def test_warm_chain_checked_per_combo(self):
        steps = (EditStepSpec(kind="add-variant", index=0),)
        report = check_case(
            _script(steps), schedulings=("fifo", "degree"),
            saturations=("off", "allocated-type-reachable"))
        assert report.ok
        assert report.combos_checked == 4

    def test_application_families_survive_the_full_oracle(self):
        from repro.workloads.applications import (
            PluginSystemSpec,
            ReflectionSpec,
        )

        spec = BenchmarkSpec(
            name="oracle-app", suite="fuzz", core_methods=5,
            guarded_modules=(),
            plugins=PluginSystemSpec(plugins=4, active=2, hooks=1),
            reflection=ReflectionSpec(handlers=2, fields=1))
        steps = (EditStepSpec(kind="add-plugin", index=0),)
        report = check_case(
            EditScriptSpec(base=spec, steps=steps),
            schedulings=("fifo",),
            saturations=("off", "allocated-type", "allocated-type-reachable"))
        assert report.ok, report.violations[0]
