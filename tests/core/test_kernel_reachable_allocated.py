"""The reachability-refined allocated-type saturation policy.

``allocated-type-reachable`` counts allocation sites only in *reachable*
methods: the solver runs to a fixpoint, refreshes the policy's origin set
from the final reachable set, re-collapses saturated flows when origins
grew, and re-runs until the origins are stable.  The origin set is a
function of the final reachable set alone and only ever grows, so the
refinement is order-independent and warm-resumable.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import (
    AllocatedTypeSaturation,
    available_saturation_policies,
    make_saturation_policy,
    reachable_allocated_types,
)
from repro.lang import compile_source
from repro.workloads.edits import EditStepSpec, build_edit_delta
from repro.workloads.generator import BenchmarkSpec, generate_benchmark
from tests.conftest import reference_divergences
from tests.core.test_kernel_scheduling import ORDERS, solve_in_order

THRESHOLD = 3

PLUGIN_SPEC = BenchmarkSpec(
    name="reach-plug", suite="test", core_methods=5, guarded_modules=(),
)


def run_with(program, saturation, threshold=THRESHOLD):
    config = AnalysisConfig.skipflow()
    if saturation != "off":
        config = config.with_saturation_policy(saturation, threshold)
    return SkipFlowAnalysis(program, config).run()


class TestReachableAllocatedTypes:
    def test_counts_new_sites_only_in_reachable_methods(self):
        program = compile_source("""
class Live { }
class Dead { }
class Main {
  static void main() { Live l = new Live(); }
  static void never() { Dead d = new Dead(); }
}
""")
        reachable = frozenset({"Main.main"})
        origins = reachable_allocated_types(program, reachable=reachable)
        assert "Live" in origins
        assert "Dead" not in origins
        # Widening the reachable set picks the other site up.
        wider = reachable_allocated_types(
            program, reachable=frozenset({"Main.main", "Main.never"}))
        assert {"Live", "Dead"} <= wider

    def test_root_seeds_are_unconditional(self):
        program = compile_source("""
class Plugin { void start() { } }
class Turbo extends Plugin { void start() { } }
class Host { void boot(Plugin plugin) { plugin.start() ; } }
""")
        origins = reachable_allocated_types(
            program, reachable=frozenset(), roots=("Host.boot",))
        assert {"Host", "Plugin", "Turbo"} <= origins

    def test_registered_with_refreshed_origins(self):
        assert "allocated-type-reachable" in available_saturation_policies()
        program = compile_source("class Main { static void main() { } }")
        policy = make_saturation_policy("allocated-type-reachable", 4, program)
        assert isinstance(policy, AllocatedTypeSaturation)
        assert policy.reachable
        # Origins start empty and wait for the solve's first refresh.
        assert policy.origins == frozenset()

    def test_origins_grow_monotonically(self):
        program = compile_source("""
class A { }
class B { }
class Main {
  static void main() { A a = new A(); }
  static void more() { B b = new B(); }
}
""")
        policy = AllocatedTypeSaturation(4, program, reachable=True)
        assert policy.refresh_origins(frozenset({"Main.main"}), (), ())
        first = set(policy.origins)
        # Same reachable set again: no growth, no re-collapse needed.
        sentinel = policy.sentinel
        assert not policy.refresh_origins(frozenset({"Main.main"}), (), ())
        assert policy.sentinel is sentinel
        assert policy.refresh_origins(
            frozenset({"Main.main", "Main.more"}), (), ())
        assert first < set(policy.origins)
        assert "B" in policy.sentinel.types
        # Shrinking the reachable set never shrinks the origins.
        assert not policy.refresh_origins(frozenset(), (), ())
        assert "B" in policy.origins


class TestRefinedSolve:
    def _plugin_program(self):
        from repro.ir.builder import ProgramBuilder
        from repro.workloads.applications import (
            PluginSystemSpec,
            add_plugin_system_module,
        )

        pb = ProgramBuilder()
        handle = add_plugin_system_module(
            pb, "Rp", PluginSystemSpec(plugins=8, active=5, hooks=2,
                                       payload_methods=6))
        pb.add_entry_point(handle.driver)
        return pb.build(), handle

    def test_matches_exact_where_whole_program_scan_reinflates(self):
        program, _ = self._plugin_program()
        exact = run_with(program, "off")
        allocated = run_with(program, "allocated-type")
        refined = run_with(program, "allocated-type-reachable")
        assert refined.stats.saturated_flows > 0
        assert (allocated.reachable_method_count
                > exact.reachable_method_count)
        assert refined.reachable_methods == exact.reachable_methods

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_order_independent(self, order, monkeypatch):
        """The refinement loop lands on the same answer whatever order the
        worklist drains in."""
        program, _ = self._plugin_program()
        oldest_first = run_with(program, "allocated-type-reachable")
        config = AnalysisConfig.skipflow().with_saturation_policy(
            "allocated-type-reachable", THRESHOLD)
        other = solve_in_order(program, config, order, monkeypatch)
        assert other.reachable_methods == oldest_first.reachable_methods
        assert sorted(other.call_edges()) == sorted(oldest_first.call_edges())

    def test_warm_resume_equals_cold_after_monotone_edit(self):
        """The refinement loop re-runs cleanly from a resumed state too."""
        from repro.api import AnalysisSession

        options = dict(saturation_policy="allocated-type-reachable",
                       saturation_threshold=THRESHOLD)
        warm_session = AnalysisSession(generate_benchmark(PLUGIN_SPEC))
        state = warm_session.run("skipflow", **options).raw.arena_state

        step = EditStepSpec(kind="add-guarded-module", index=0)
        warm_session.update(build_edit_delta(PLUGIN_SPEC, step))
        warm = warm_session.run("skipflow", resume=state, **options)

        cold_session = AnalysisSession(generate_benchmark(PLUGIN_SPEC))
        cold_session.update(build_edit_delta(PLUGIN_SPEC, step))
        cold = cold_session.run("skipflow", **options)

        assert (set(warm.reachable_methods)
                == set(cold.reachable_methods))
        assert set(warm.call_edges) == set(cold.call_edges)
        assert set(warm.stub_methods) == set(cold.stub_methods)
        assert not reference_divergences(warm)

    def test_off_policy_keeps_exact_solver_steps(self):
        """The refinement hook must not disturb the default hot path: with
        no saturation policy the solver takes the bit-identical seed steps
        (the CI gate compares them exactly)."""
        program = generate_benchmark(PLUGIN_SPEC)
        first = run_with(program, "off")
        second = run_with(program, "off")
        assert first.steps == second.steps
        assert first.stats.joins == second.stats.joins
