"""The differential oracle: interpreter trace vs every analyzer."""

from pathlib import Path

from repro.core import analysis as analysis_module
from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.core.solver import SkipFlowSolver
from repro.fuzz.generator import generate_cases
from repro.fuzz.oracle import (
    check_case,
    execute_all_entry_points,
    synthesize_arguments,
)
from repro.fuzz.reprofile import load_repro
from repro.workloads.edits import EditScriptSpec, EditStepSpec
from repro.workloads.generator import BenchmarkSpec, GuardedModuleSpec

SMALL_SPEC = BenchmarkSpec(
    name="oracle-small", suite="fuzz", core_methods=6,
    guarded_modules=(GuardedModuleSpec("null_default", 5),))

SMALL_MATRIX = dict(saturations=("off",))

CORPUS = Path(__file__).parent / "corpus"


def _script(steps=()):
    return EditScriptSpec(base=SMALL_SPEC, steps=tuple(steps))


#: A root whose parameter is declared as the anchor's root class, then a
#: new subclass of that class: the root's conservative seed widens.
WIDENING_STEPS = (EditStepSpec(kind="add-consumer", index=0),
                  EditStepSpec(kind="add-variant", index=1))


def _reattach_without_root_seeds(solver):
    """``ArenaKernelSolver._reattach`` minus the root-seed replay."""
    solver._recollapse_saturated()
    for fid, signature in list(solver._stub_links):
        solver._apply_stub_effects(fid, signature)


def _object_reattach_without_root_seeds(solver, seeded_roots):
    """``SkipFlowSolver._reattach`` minus the root-seed replay."""
    solver._recollapse_saturated()
    for invoke_flow, signature in list(solver.state.stub_links):
        solver._apply_stub_effects(invoke_flow, signature)


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
        from repro.core.kernel import available_saturation_policies

        report = check_case(_script())
        assert report.combos_checked == len(available_saturation_policies())
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
                   and violation.analyzer == "skipflow[off@4/arena]"
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

    def test_planted_arena_resume_without_root_seeds_is_reported(
            self, monkeypatch):
        """The arena twin's warm chain is checked too: an arena resume that
        skips re-playing the root seeds is reported on the arena chain, and
        nothing else fires."""
        monkeypatch.setattr(ArenaKernelSolver, "_reattach",
                            _reattach_without_root_seeds)
        script, _ = load_repro(CORPUS / "reflection-mesh-mixed-edits.json")
        report = check_case(script, **SMALL_MATRIX)
        assert report.violations
        assert all(violation.analyzer == "skipflow[off@4/arena]"
                   and violation.step > 0
                   and violation.invariant in ("kernel-divergence",
                                               "warm-cold-mismatch")
                   for violation in report.violations)

    def test_a_resume_without_root_seeds_answers_wrong_on_a_widened_root(
            self, monkeypatch):
        """``add-consumer`` roots a method whose parameter type the later
        ``add-variant`` subclasses: an arena resume that skips re-playing
        the root seeds misses the variant's call edge, a wrong answer, not
        only a counter drift."""
        monkeypatch.setattr(ArenaKernelSolver, "_reattach",
                            _reattach_without_root_seeds)
        report = check_case(_script(WIDENING_STEPS), **SMALL_MATRIX)
        mismatches = [violation for violation in report.violations
                      if violation.invariant == "warm-cold-mismatch"]
        assert [(violation.analyzer, violation.step)
                for violation in mismatches] == [
            ("skipflow[off@4/arena]", 2)]
        assert "call-edges differ" in mismatches[0].detail
        assert "Oracle_smallEditVariant1.run" in mismatches[0].detail

    def test_a_resume_fault_both_kernels_share_is_a_warm_cold_mismatch(
            self, monkeypatch):
        """Planted in both kernels, the fault moves no counter between the
        warm chains: no kernel divergence, but both chains miss the cold
        answer (and the object chain's state fails its audit)."""
        monkeypatch.setattr(ArenaKernelSolver, "_reattach",
                            _reattach_without_root_seeds)
        monkeypatch.setattr(SkipFlowSolver, "_reattach",
                            _object_reattach_without_root_seeds)
        report = check_case(_script(WIDENING_STEPS), **SMALL_MATRIX)
        found = {(violation.invariant, violation.analyzer, violation.step)
                 for violation in report.violations}
        assert {("warm-cold-mismatch", "skipflow[off@4]", 2),
                ("warm-cold-mismatch", "skipflow[off@4/arena]", 2)} <= found
        assert {invariant for invariant, _, _ in found} == {
            "warm-cold-mismatch", "audit"}

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
            _script(steps),
            saturations=("off", "allocated-type", "allocated-type-reachable"))
        assert report.ok
        assert report.combos_checked == 3

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
            saturations=("off", "allocated-type", "allocated-type-reachable"))
        assert report.ok, report.violations[0]
