"""SolverState: snapshotable fixpoint state and warm re-analysis.

The contract under test, in increasing strength:

* the cold path is "resume from the empty state" and behaves exactly like
  the pre-refactor solver (same counters, same results);
* a state snapshot round-trips through bytes and resumes as a no-op when
  nothing changed;
* after *any* additive (monotone) edit sequence, the resumed fixpoint
  equals the from-scratch fixpoint — reachable set, call edges, and the
  final value state of every flow — under **every** saturation policy;
* non-monotone situations are refused loudly (config mismatch, stamped
  fingerprint rejecting the program).
"""

import pickle

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.solver import SkipFlowSolver
from repro.core.state import SNAPSHOT_VERSION, SolverState, SolverStateError
from repro.ir.arena import freeze, open_program
from repro.ir.delta import ProgramDelta
from repro.lang import compile_source
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)
from tests.conftest import fixpoint_signature

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
    def test_explicit_empty_state_matches_default(self):
        program = compile_source(SMALL_SOURCE)
        default = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        explicit = SkipFlowAnalysis(
            program, AnalysisConfig.skipflow(),
            state=SolverState.empty()).run()
        assert default.steps == explicit.steps
        assert default.reachable_methods == explicit.reachable_methods
        assert (fixpoint_signature(default.pvpg, default.reachable_methods)
                == fixpoint_signature(explicit.pvpg, explicit.reachable_methods))

    def test_result_carries_its_state(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        state = result.solver_state
        assert isinstance(state, SolverState)
        assert state.pvpg is result.pvpg
        assert state.counters()["steps"] == result.steps
        assert not state.is_fresh
        assert state.seeded_roots == ["Main.main"]

    def test_state_rejects_other_configs(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program, AnalysisConfig.skipflow()).run()
        with pytest.raises(SolverStateError, match="configuration"):
            SkipFlowSolver(program, AnalysisConfig.baseline_pta(),
                           state=result.solver_state)


class TestSnapshots:
    def test_round_trip_preserves_the_fixpoint(self):
        program = generate_benchmark(WIDE_SPEC)
        result = SkipFlowAnalysis(program).run()
        restored = SolverState.from_bytes(result.solver_state.to_bytes(),
                                          program)
        assert restored.counters() == result.solver_state.counters()
        assert restored.reachable == result.solver_state.reachable
        resumed = SkipFlowAnalysis(program, state=restored).run()
        assert (fixpoint_signature(resumed.pvpg, resumed.reachable_methods)
                == fixpoint_signature(result.pvpg, result.reachable_methods))

    def test_resuming_an_unchanged_program_is_a_no_op(self):
        program = generate_benchmark(WIDE_SPEC)
        result = SkipFlowAnalysis(program).run()
        state = SolverState.from_bytes(result.solver_state.to_bytes(program),
                                       program)
        before = state.counters()
        resumed = SkipFlowAnalysis(program, state=state).run()
        assert resumed.steps - before["steps"] == 0

    def test_restored_flows_never_collide_with_fresh_uids(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        restored = SolverState.from_bytes(result.solver_state.to_bytes(),
                                          program)
        floor = restored.max_flow_uid()
        from repro.core.flows import SourceFlow
        from repro.ir.values import ConstantExpr

        fresh = SourceFlow("probe", "Test.test", ConstantExpr.int_const(1))
        assert fresh.uid > floor

    def test_fork_is_independent(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        branch = result.solver_state.fork()
        delta = ProgramDelta()
        delta.declare_class("Impl2", superclass="Base")
        mb = delta.method("Impl2", "run", return_type="int")
        mb.return_(mb.assign_int(3))
        delta.finish_method(mb)
        delta.add_call_site("Main", "main")
        delta.apply_to(program, require_monotone=True)
        SkipFlowAnalysis(program, state=branch).run()
        # The original state was not consumed by the branch's resume.
        assert result.solver_state.reachable == result.reachable_methods

    def test_stamped_snapshot_rejects_non_monotone_programs(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        blob = result.solver_state.to_bytes(program)
        edited = compile_source(SMALL_SOURCE.replace("return 2", "return 9"))
        state = SolverState.from_bytes(blob, program)
        with pytest.raises(SolverStateError, match="monotone"):
            SkipFlowAnalysis(edited, state=state).run()

    def test_corrupt_blobs_are_refused(self):
        program = compile_source(SMALL_SOURCE)
        with pytest.raises(SolverStateError):
            SolverState.from_bytes(b"not a snapshot", program)

    @pytest.mark.parametrize("version", [1, 2, 3, SNAPSHOT_VERSION + 1])
    def test_foreign_snapshot_versions_are_refused(self, version):
        """Version 1 pickled an ``AnalysisConfig`` that still had a
        ``scheduling`` field, a version-2 config with a bare threshold
        names the deleted closed-world policy, and version 3 pickled the
        IR itself where version 4 stores references; no such layout may be
        half-read."""
        program = compile_source(SMALL_SOURCE)
        blob = SkipFlowAnalysis(program).run().solver_state.to_bytes(program)
        payload = pickle.loads(blob)
        assert payload["snapshot_version"] == SNAPSHOT_VERSION == 4
        payload["snapshot_version"] = version
        with pytest.raises(SolverStateError,
                           match=f"snapshot version {version}"):
            SolverState.from_bytes(pickle.dumps(payload), program)

    def test_snapshot_config_is_revalidated_on_load(self):
        """Unpickling skips ``AnalysisConfig.__post_init__``; decoding
        re-runs it, so an unknown policy fails at load time with a
        ``SolverStateError`` instead of deep inside the resumed solve."""
        program = compile_source(SMALL_SOURCE)
        config = AnalysisConfig.skipflow().with_saturation_threshold(4)
        result = SkipFlowAnalysis(program, config).run()
        payload = pickle.loads(result.solver_state.to_bytes(program))
        assert payload["snapshot_version"] == 4
        object.__setattr__(payload["config"], "saturation_policy",
                           "open-world")
        with pytest.raises(SolverStateError,
                           match="unknown saturation policy 'open-world'"):
            SolverState.from_bytes(pickle.dumps(payload), program)

    def test_valid_snapshot_config_round_trips(self):
        program = compile_source(SMALL_SOURCE)
        config = AnalysisConfig.skipflow().with_saturation_threshold(4)
        result = SkipFlowAnalysis(program, config).run()
        state = SolverState.from_bytes(result.solver_state.to_bytes(program),
                                       program)
        assert state.config == config
        assert state.config.saturation_policy == "allocated-type"

    def test_to_bytes_stamps_the_snapshot_not_the_live_state(self):
        program = compile_source(SMALL_SOURCE)
        result = SkipFlowAnalysis(program).run()
        state = result.solver_state
        blob = state.to_bytes(program)
        # The live chain stays unstamped (no fingerprint re-validation cost
        # on its later warm solves); the persisted snapshot carries it.
        assert state.fingerprint is None
        assert SolverState.from_bytes(blob, program).fingerprint is not None


class TestWarmVsColdEquivalence:
    """The satellite contract: warm == cold under every policy combination."""

    @pytest.mark.parametrize("saturation,threshold", SATURATIONS)
    def test_edit_sequence_reaches_the_cold_fixpoint(self, saturation,
                                                     threshold):
        """Warm == cold for every policy: reachability, call edges, and the
        value state of every flow, saturated ones included."""
        self._assert_warm_chain_matches_cold(
            config_for(saturation, threshold), "object")

    @pytest.mark.parametrize("saturation,threshold", SATURATIONS)
    def test_edit_sequence_from_an_arena_cold_solve(self, saturation,
                                                    threshold):
        """The same contract when the cold solves run on the arena kernel
        (over the attached freeze): the warm chain starts from its inflated
        state, and the resumes themselves run on the object solver."""
        self._assert_warm_chain_matches_cold(
            config_for(saturation, threshold), "arena")

    @staticmethod
    def _assert_warm_chain_matches_cold(config, cold_kernel):
        def cold_solve(program):
            if cold_kernel == "arena":
                program = open_program(freeze(program))
            return SkipFlowAnalysis(program, config).run()

        program = generate_benchmark(WIDE_SPEC)
        script = default_edit_script(WIDE_SPEC, steps=3)
        chain = cold_solve(program).solver_state
        for step in script.steps:
            delta = build_edit_delta(WIDE_SPEC, step)
            delta.apply_to(program, require_monotone=True)
            warm = SkipFlowAnalysis(program, config, state=chain).run()
            chain = warm.solver_state
        cold = cold_solve(program)
        assert (cold.kernel_ran, warm.kernel_ran) == (cold_kernel, "object")
        assert warm.reachable_methods == cold.reachable_methods
        assert sorted(warm.call_edges()) == sorted(cold.call_edges())
        assert (fixpoint_signature(warm.pvpg, warm.reachable_methods)
                == fixpoint_signature(cold.pvpg, cold.reachable_methods))

    def test_single_method_edit_is_much_cheaper_warm(self):
        program = generate_benchmark(WIDE_SPEC)
        config = AnalysisConfig.skipflow()
        script = default_edit_script(WIDE_SPEC, steps=1)
        chain = SkipFlowAnalysis(program, config).run().solver_state
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
        state = cold_before.solver_state
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
        assert (fixpoint_signature(warm.pvpg, warm.reachable_methods)
                == fixpoint_signature(cold.pvpg, cold.reachable_methods))

    def test_resumed_counters_are_cumulative(self):
        program = generate_benchmark(WIDE_SPEC)
        config = AnalysisConfig.skipflow()
        base = SkipFlowAnalysis(program, config).run()
        build_edit_delta(WIDE_SPEC, default_edit_script(WIDE_SPEC, 1).steps[0]
                         ).apply_to(program, require_monotone=True)
        warm = SkipFlowAnalysis(program, config,
                                state=base.solver_state).run()
        assert warm.steps > base.steps
        assert warm.solver_state.solve_count == 2
