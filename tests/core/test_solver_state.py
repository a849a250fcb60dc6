"""Solver states: the arena kernel's tables and warm re-analysis.

The contract under test, in increasing strength:

* the cold path is "resume from a fresh state" (same counters, same
  results), and only arena tables resume;
* a persisted state (the arena kernel's tables) round-trips through bytes
  and resumes as a no-op when nothing changed, and across an edit;
* after *any* additive (monotone) edit sequence, the resumed fixpoint
  equals the from-scratch fixpoint and the executable specification's
  (:mod:`repro.checks.reference`) at every prefix — reachable set, call
  edges, and the final value state of every flow — under **every**
  saturation policy, over a plain program's lowering and an attached
  arena alike;
* non-monotone situations are refused loudly (config mismatch, tables
  whose fingerprint rejects the program).
"""

import enum
import io
import pickle

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel.arena_kernel import (
    ARENA_SNAPSHOT_VERSION,
    ArenaKernelSolver,
    ArenaSolverState,
)
from repro.core.state import SnapshotMismatchError, SolverState, SolverStateError
from repro.ir.arena import freeze, lowered_program, open_program
from repro.ir.blocks import BasicBlock
from repro.ir.method import Method
from repro.ir.delta import ProgramDelta
from repro.lang import compile_source
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)
from tests.conftest import fixpoint_signature, reference_divergences

WIDE_SPEC = BenchmarkSpec(
    name="state-wide", suite="test", core_methods=25,
    guarded_modules=(GuardedModuleSpec("boolean_flag", 8),),
    hierarchies=(HierarchySpec(depth=2, fanout=5, call_sites=4),))

SMALL_SOURCE = """
class Base { int run() { return 1; } }
class Impl extends Base { int run() { return 2; } }
class Main {
    static void main() {
        Base b = new Impl();
        b.run();
    }
}
"""

#: The saturation grid of the equivalence test; threshold 4 is far below the
#: wide spec's 25-leaf field, so every cutoff actually fires, and threshold 1
#: collapses every flow that sees a second type.
SATURATIONS = (("off", None),) + tuple(
    (saturation, threshold)
    for saturation in ("allocated-type", "allocated-type-reachable")
    for threshold in (4, 1))


def config_for(saturation, threshold):
    config = AnalysisConfig.skipflow()
    if threshold is not None:
        config = config.with_saturation_policy(saturation, threshold)
    return config


class TestColdPath:
    def test_explicit_fresh_state_matches_default(self):
        program = compile_source(SMALL_SOURCE)
        config = AnalysisConfig.skipflow()
        default = SkipFlowAnalysis(program, config).run()
        explicit = SkipFlowAnalysis(
            program, config, state=ArenaSolverState(config)).run()
        assert default.steps == explicit.steps
        assert default.reachable_methods == explicit.reachable_methods
        assert (fixpoint_signature(default.pvpg, default.reachable_methods)
                == fixpoint_signature(explicit.pvpg, explicit.reachable_methods))

    def test_result_carries_its_state(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        state = result.arena_state
        assert isinstance(state, ArenaSolverState)
        assert state.program is lowered_program(program)
        assert state.counters()["steps"] == result.steps
        assert state.solve_count == 1
        assert state.seeded_roots == ["Main.main"]
        inflated = result.solver_state
        assert isinstance(inflated, SolverState)
        assert inflated.pvpg is result.pvpg
        assert inflated.counters() == state.counters()

    def test_state_rejects_other_configs(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        with pytest.raises(SolverStateError, match="configuration"):
            ArenaKernelSolver(lowered_program(program),
                              AnalysisConfig.baseline_pta(),
                              result.arena_state)

    def test_only_arena_tables_resume(self):
        """An inflated object-graph state is a view, not a resumable state."""
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        with pytest.raises(SolverStateError, match="only an arena solver"):
            SkipFlowAnalysis(program, state=result.solver_state).run()


def _attached_solve(source_or_program, config=None):
    """A cold solve over the attached freeze; returns (program, result)."""
    program = source_or_program
    if isinstance(program, str):
        program = compile_source(program)
    attached = open_program(freeze(program))
    return attached, SkipFlowAnalysis(attached, config).run()


class TestSnapshots:
    """The one persisted solver state: the arena kernel's tables."""

    def test_round_trip_preserves_the_fixpoint(self):
        program, result = _attached_solve(generate_benchmark(WIDE_SPEC))
        state = result.arena_state
        restored = ArenaSolverState.from_bytes(state.to_bytes(program),
                                               program)
        assert restored.counters() == state.counters()
        assert restored.reachable == state.reachable
        resumed = SkipFlowAnalysis(program, state=restored).run()
        assert (fixpoint_signature(resumed.pvpg, resumed.reachable_methods)
                == fixpoint_signature(result.pvpg, result.reachable_methods))

    def test_resuming_an_unchanged_program_is_a_no_op(self):
        program, result = _attached_solve(generate_benchmark(WIDE_SPEC))
        state = ArenaSolverState.from_bytes(
            result.arena_state.to_bytes(program), program)
        before = state.counters()
        resumed = SkipFlowAnalysis(program, state=state).run()
        assert resumed.steps - before["steps"] == 0

    def test_resume_across_an_edit(self):
        """Tables saved over the base resume over a re-attached copy that
        the same monotone edit extended, to the cold fixpoint."""
        program, result = _attached_solve(generate_benchmark(WIDE_SPEC))
        blob = result.arena_state.to_bytes(program)
        copy = open_program(program.arena.to_bytes())
        restored = ArenaSolverState.from_bytes(blob, copy)
        step = default_edit_script(WIDE_SPEC, steps=1).steps[0]
        build_edit_delta(WIDE_SPEC, step).apply_to(copy,
                                                   require_monotone=True)
        before = restored.counters()["steps"]
        warm = SkipFlowAnalysis(copy, state=restored).run()
        plain = generate_benchmark(WIDE_SPEC)
        build_edit_delta(WIDE_SPEC, step).apply_to(plain,
                                                   require_monotone=True)
        cold = SkipFlowAnalysis(plain).run()
        assert warm.reachable_methods == cold.reachable_methods
        assert sorted(warm.call_edges()) == sorted(cold.call_edges())
        assert 0 < warm.steps - before < cold.steps

    def test_tables_load_over_an_extension_of_their_program(self):
        """Tables saved over the base load over a copy that monotone edits
        extended *before* the load (the chain leads back to the stamped
        arena), and resume there to the cold fixpoint."""
        program, result = _attached_solve(generate_benchmark(WIDE_SPEC))
        blob = result.arena_state.to_bytes(program)
        copy = open_program(program.arena.to_bytes())
        plain = generate_benchmark(WIDE_SPEC)
        for step in default_edit_script(WIDE_SPEC, steps=2).steps:
            for target in (copy, plain):
                build_edit_delta(WIDE_SPEC, step).apply_to(
                    target, require_monotone=True)
        assert copy.arena.num_flows > program.arena.num_flows
        restored = ArenaSolverState.from_bytes(blob, copy)
        assert restored.program is copy
        assert len(restored.st) == program.arena.num_flows
        warm = SkipFlowAnalysis(copy, state=restored).run()
        cold = SkipFlowAnalysis(plain).run()
        assert not reference_divergences(warm)
        assert (fixpoint_signature(warm.pvpg, warm.reachable_methods)
                == fixpoint_signature(cold.pvpg, cold.reachable_methods))

    def test_an_extension_of_another_program_is_refused(self):
        """The chain must hold an arena with the stamped counts *and*
        fingerprint: an edited body extended by a delta is refused by name,
        and a chain with no arena of the stamped size by its counts."""
        program, result = _attached_solve(SMALL_SOURCE)
        blob = result.arena_state.to_bytes(program)
        edited = open_program(freeze(compile_source(
            SMALL_SOURCE.replace("return 2", "return 9"))))
        grown = open_program(freeze(compile_source(
            SMALL_SOURCE + "class Extra { int run() { return 3; } }")))
        for target in (edited, grown):
            delta = ProgramDelta("later")
            delta.declare_class("Later")
            builder = delta.method("Later", "go", is_static=True)
            builder.return_void()
            delta.finish_method(builder)
            delta.apply_to(target, require_monotone=True)
        with pytest.raises(SnapshotMismatchError,
                           match="method Impl.run changed its body"):
            ArenaSolverState.from_bytes(blob, edited)
        with pytest.raises(SnapshotMismatchError, match="it covers"):
            ArenaSolverState.from_bytes(blob, grown)

    def test_payload_holds_no_ir_objects(self):
        """The tables name flows by fid and methods by name: a restricted
        unpickler that refuses every IR class still loads them."""
        program, result = _attached_solve(generate_benchmark(WIDE_SPEC))

        class NoIRUnpickler(pickle.Unpickler):
            loaded = set()

            def find_class(self, module, name):
                cls = super().find_class(module, name)
                if isinstance(cls, type) and (
                        issubclass(cls, (Method, BasicBlock))
                        or (module == "repro.ir.instructions"
                            and not issubclass(cls, enum.Enum))):
                    raise pickle.UnpicklingError(
                        f"snapshot carries IR: {module}.{name}")
                self.loaded.add(f"{module}.{name}")
                return cls

        unpickler = NoIRUnpickler(io.BytesIO(
            result.arena_state.to_bytes(program)))
        payload = unpickler.load()
        # The refusal is live: value payloads and the stamp did load.
        assert "repro.ir.delta.ProgramFingerprint" in unpickler.loaded
        assert any(name.startswith("repro.lattice.")
                   for name in unpickler.loaded)
        assert payload["linked_callees"] and payload["reachable"]

    def test_tables_refuse_a_program_with_another_body(self):
        program, result = _attached_solve(SMALL_SOURCE)
        blob = result.arena_state.to_bytes(program)
        edited = open_program(freeze(compile_source(
            SMALL_SOURCE.replace("return 2", "return 9"))))
        with pytest.raises(SnapshotMismatchError,
                           match="method Impl.run changed its body"):
            ArenaSolverState.from_bytes(blob, edited)

    def test_tables_refuse_a_plain_program(self):
        program, result = _attached_solve(SMALL_SOURCE)
        blob = result.arena_state.to_bytes(program)
        with pytest.raises(SnapshotMismatchError, match="arena program"):
            ArenaSolverState.from_bytes(blob, compile_source(SMALL_SOURCE))

    def test_to_bytes_refuses_a_program_the_tables_do_not_index(self):
        """A thawed or re-frozen copy has its own ids: stamping the tables
        with it would hand a later restore the wrong flows."""
        program, result = _attached_solve(SMALL_SOURCE)
        state = result.arena_state
        with pytest.raises(SolverStateError, match="another program"):
            state.to_bytes(open_program(program.arena.to_bytes()))
        with pytest.raises(SolverStateError, match="another program"):
            state.to_bytes(compile_source(SMALL_SOURCE))

    def test_corrupt_blobs_are_refused(self):
        program, _ = _attached_solve(SMALL_SOURCE)
        with pytest.raises(SolverStateError):
            ArenaSolverState.from_bytes(b"not a snapshot", program)

    @pytest.mark.parametrize("version", [0, ARENA_SNAPSHOT_VERSION + 1])
    def test_foreign_snapshot_versions_are_refused(self, version):
        program, result = _attached_solve(SMALL_SOURCE)
        payload = pickle.loads(result.arena_state.to_bytes(program))
        assert payload["snapshot_version"] == ARENA_SNAPSHOT_VERSION
        payload["snapshot_version"] = version
        with pytest.raises(SolverStateError,
                           match=f"snapshot version {version}"):
            ArenaSolverState.from_bytes(pickle.dumps(payload), program)

    def test_snapshot_config_is_revalidated_on_load(self):
        """Unpickling skips ``AnalysisConfig.__post_init__``; decoding
        re-runs it, so an unknown policy fails at load time with a
        ``SolverStateError`` instead of deep inside the resumed solve."""
        config = AnalysisConfig.skipflow().with_saturation_threshold(4)
        program, result = _attached_solve(SMALL_SOURCE, config)
        payload = pickle.loads(result.arena_state.to_bytes(program))
        object.__setattr__(payload["config"], "saturation_policy",
                           "open-world")
        with pytest.raises(SolverStateError,
                           match="unknown saturation policy 'open-world'"):
            ArenaSolverState.from_bytes(pickle.dumps(payload), program)

    def test_valid_snapshot_config_round_trips(self):
        config = AnalysisConfig.skipflow().with_saturation_threshold(4)
        program, result = _attached_solve(SMALL_SOURCE, config)
        state = ArenaSolverState.from_bytes(
            result.arena_state.to_bytes(program), program)
        assert state.config == config
        assert state.config.saturation_policy == "allocated-type"

    def test_to_bytes_stamps_the_snapshot_not_the_live_state(self):
        program, result = _attached_solve(SMALL_SOURCE)
        state = result.arena_state
        blob = state.to_bytes(program)
        # The live chain stays unstamped (its session tracks monotonicity);
        # a restored state carries the fingerprint it was verified against.
        assert state.fingerprint is None
        assert ArenaSolverState.from_bytes(blob, program).fingerprint is not None


class TestWarmVsColdEquivalence:
    """The satellite contract: warm == cold under every policy combination."""

    @pytest.mark.parametrize("saturation,threshold", SATURATIONS)
    def test_edit_sequence_over_a_plain_program(self, saturation, threshold):
        """Warm == cold == reference for every policy, resumed over a plain
        program's lowering (which each monotone edit extends): reachability,
        call edges, and the value state of every flow, saturated ones
        included, at every prefix."""
        self._assert_warm_chain_matches_cold(
            config_for(saturation, threshold), attached=False)

    @pytest.mark.parametrize("saturation,threshold", SATURATIONS)
    def test_edit_sequence_over_an_attached_arena(self, saturation,
                                                  threshold):
        """The same contract resumed over an attached freeze, which each
        monotone edit extends in place."""
        self._assert_warm_chain_matches_cold(
            config_for(saturation, threshold), attached=True)

    @staticmethod
    def _assert_warm_chain_matches_cold(config, attached):
        program = generate_benchmark(WIDE_SPEC)
        fresh = generate_benchmark(WIDE_SPEC)
        if attached:
            program = open_program(freeze(program))
        script = default_edit_script(WIDE_SPEC, steps=3)
        chain = SkipFlowAnalysis(program, config).run().arena_state
        for step in script.steps:
            build_edit_delta(WIDE_SPEC, step).apply_to(
                program, require_monotone=True)
            build_edit_delta(WIDE_SPEC, step).apply_to(
                fresh, require_monotone=True)
            warm = SkipFlowAnalysis(program, config, state=chain).run()
            assert warm.arena_state is chain
            assert not reference_divergences(warm)
            cold = SkipFlowAnalysis(fresh, config).run()
            assert warm.reachable_methods == cold.reachable_methods
            assert sorted(warm.call_edges()) == sorted(cold.call_edges())
            assert (fixpoint_signature(warm.pvpg, warm.reachable_methods)
                    == fixpoint_signature(cold.pvpg, cold.reachable_methods))

    def test_single_method_edit_is_much_cheaper_warm(self):
        program = generate_benchmark(WIDE_SPEC)
        config = AnalysisConfig.skipflow()
        script = default_edit_script(WIDE_SPEC, steps=1)
        chain = SkipFlowAnalysis(program, config).run().arena_state
        build_edit_delta(WIDE_SPEC, script.steps[0]).apply_to(
            program, require_monotone=True)
        before = chain.counters()
        warm = SkipFlowAnalysis(program, config, state=chain).run()
        cold = SkipFlowAnalysis(program, config).run()
        warm_steps = warm.steps - before["steps"]
        assert warm.reachable_methods == cold.reachable_methods
        # The acceptance bar is < 25% on the largest spec; this small spec
        # has less to save, so the bound here is looser but still strict.
        assert warm_steps < cold.steps / 2

    def test_new_roots_widen_old_conservative_seeds(self):
        """A new subtype of a root parameter's declared type must show up.

        Root parameters are seeded with every instantiable subtype of their
        declared type; a monotone delta can add such a subtype, so the
        resume path has to re-play the seed or the warm fixpoint would miss
        types the cold one sees.
        """
        source = """
class Plugin { void start() { } }
class Host {
    void boot(Plugin plugin) { plugin.start(); }
}
"""
        program = compile_source(source)
        roots = ["Host.boot"]
        cold_before = SkipFlowAnalysis(program).run(roots)
        state = cold_before.arena_state
        delta = ProgramDelta()
        delta.declare_class("TurboPlugin", superclass="Plugin")
        mb = delta.method("TurboPlugin", "start")
        mb.return_void()
        delta.finish_method(mb)
        delta.apply_to(program, require_monotone=True)
        warm = SkipFlowAnalysis(program, state=state).run(roots)
        cold = SkipFlowAnalysis(program).run(roots)
        assert warm.reachable_methods == cold.reachable_methods
        assert "TurboPlugin.start" in warm.reachable_methods
        assert not reference_divergences(warm, roots)
        assert (fixpoint_signature(warm.pvpg, warm.reachable_methods)
                == fixpoint_signature(cold.pvpg, cold.reachable_methods))

    def test_resumed_counters_are_cumulative(self):
        program = generate_benchmark(WIDE_SPEC)
        config = AnalysisConfig.skipflow()
        base = SkipFlowAnalysis(program, config).run()
        build_edit_delta(WIDE_SPEC, default_edit_script(WIDE_SPEC, 1).steps[0]
                         ).apply_to(program, require_monotone=True)
        warm = SkipFlowAnalysis(program, config,
                                state=base.arena_state).run()
        assert warm.steps > base.steps
        assert warm.arena_state.solve_count == 2
