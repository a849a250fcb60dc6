"""The allocated-type saturation policy."""

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import (
    AllocatedTypeSaturation,
    allocated_types,
    available_saturation_policies,
    make_saturation_policy,
    reachable_allocated_types,
)
from repro.ir.arena import freeze, open_program
from repro.lang import compile_source
from repro.workloads.generator import (
    BenchmarkSpec,
    GuardedModuleSpec,
    HierarchySpec,
    generate_benchmark,
)

WIDE_SPEC = BenchmarkSpec(
    name="alloc-wide", suite="test", core_methods=25,
    guarded_modules=(GuardedModuleSpec("boolean_flag", 8),),
    hierarchies=(HierarchySpec(depth=2, fanout=5, call_sites=4,
                               guarded_methods=12),))

THRESHOLD = 8


def run_with(program, saturation, threshold=THRESHOLD):
    config = AnalysisConfig.skipflow()
    if saturation != "off":
        config = config.with_saturation_policy(saturation, threshold)
    return SkipFlowAnalysis(program, config).run()


class TestAllocatedTypes:
    def test_scans_allocation_sites(self):
        program = compile_source("""
class Used { }
class Ghost { }
class Main { static void main() { Used u = new Used(); } }
""")
        allocated = allocated_types(program)
        assert "Used" in allocated
        assert "Ghost" not in allocated

    def test_includes_root_parameter_origins(self):
        program = compile_source("""
class Plugin { void start() { } }
class Turbo extends Plugin { void start() { } }
class Host { void boot(Plugin plugin) { plugin.start() ; } }
""")
        assert allocated_types(program, roots=()) == frozenset()
        seeded = allocated_types(program, roots=("Host.boot",))
        # The receiver (Host) and the declared parameter subtree (Plugin,
        # Turbo) can all originate from conservative root seeding.
        assert {"Host", "Plugin", "Turbo"} <= seeded

    def test_includes_stub_return_origins(self):
        """Bodyless declared methods inject conservative return states.

        The solver's stub effects inject the instantiable subtypes of a
        bodyless callee's declared return type; the allocated sentinel must
        dominate those arrivals too, or joins skipped after a collapse
        would drop types the exact semantics propagates.
        """
        from repro.ir.types import MethodSignature

        program = compile_source("""
class Plugin { void start() { } }
class Turbo extends Plugin { void start() { } }
class Main { static void main() { } }
""")
        program.hierarchy.get("Main").declare_method(MethodSignature(
            declaring_class="Main", name="load", return_type="Plugin",
            is_static=True))
        allocated = allocated_types(program)
        assert {"Plugin", "Turbo"} <= allocated

    def test_registered_with_fixed_origins(self):
        """The whole-text origins are fixed at construction, so refreshing
        them from a reachable set is a no-op that reports no growth."""
        assert "allocated-type" in available_saturation_policies()
        program = compile_source("""
class Used { }
class Main { static void main() { Used u = new Used(); } }
""")
        policy = make_saturation_policy("allocated-type", 4, program)
        assert isinstance(policy, AllocatedTypeSaturation)
        assert not policy.reachable
        assert "Used" in policy.origins
        sentinel = policy.sentinel
        assert not policy.refresh_origins(frozenset(program.methods), (), ())
        assert policy.sentinel is sentinel

    def test_sentinel_excludes_never_allocated_types(self):
        program = generate_benchmark(WIDE_SPEC)
        policy = AllocatedTypeSaturation(
            THRESHOLD, program, tuple(program.entry_points))
        sentinel = policy.sentinel
        assert "Alloc_wideHier0Rare" not in sentinel.types
        assert "Alloc_wideHier0L2N0" in sentinel.types  # an allocated leaf
        assert sentinel.contains_null and sentinel.has_any

    def test_is_the_reachable_set_with_everything_reachable(self):
        """The whole-program set is the reachable-refined set over every
        method, and the arena's precomputed sites give the same set."""
        program = generate_benchmark(WIDE_SPEC)
        allocated = allocated_types(program)
        assert isinstance(allocated, frozenset)
        assert allocated == reachable_allocated_types(
            program, reachable=frozenset(program.methods))
        assert allocated_types(open_program(freeze(program))) == allocated


class TestRareGuardDischarge:
    """The ROADMAP promise: never-instantiated rare guards finally discharge."""

    def test_rare_guarded_payload_stays_dead(self):
        program = generate_benchmark(WIDE_SPEC)
        exact = run_with(program, "off")
        allocated = run_with(program, "allocated-type")
        bare = SkipFlowAnalysis(
            program,
            AnalysisConfig.skipflow().with_saturation_threshold(THRESHOLD),
        ).run()

        payload_entry = "Alloc_wideHier0PayloadEntry.enter"
        assert allocated.stats.saturated_flows > 0
        # The allocated sentinel excludes Rare, so the instanceof guard
        # still discharges — also under a bare threshold, which engages it.
        assert payload_entry not in exact.reachable_methods
        assert payload_entry not in allocated.reachable_methods
        assert bare.reachable_methods == allocated.reachable_methods

    def test_reachable_refinement_reinflates_least(self):
        program = generate_benchmark(WIDE_SPEC)
        exact = run_with(program, "off")
        allocated = run_with(program, "allocated-type")
        refined = run_with(program, "allocated-type-reachable")
        assert (exact.reachable_methods <= refined.reachable_methods
                <= allocated.reachable_methods)

    def test_still_a_sound_over_approximation(self):
        program = generate_benchmark(WIDE_SPEC)
        exact = run_with(program, "off")
        allocated = run_with(program, "allocated-type")
        assert exact.reachable_methods <= allocated.reachable_methods

