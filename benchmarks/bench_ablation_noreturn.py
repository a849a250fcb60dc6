"""Ablation: method invocations as predicates (Section 3 / Section 5).

A method that never returns (infinite loop, or a helper that always throws)
makes every statement after its call site unreachable.  This benchmark builds
applications whose guarded libraries sit exclusively behind such calls and
measures how much SkipFlow gains purely from invoke-as-predicate handling,
including the interaction with the analysis time.
"""

from __future__ import annotations

from conftest import reduction

from repro.core.analysis import AnalysisConfig
from repro.engine import run_specs
from repro.image.builder import NativeImageBuilder
from repro.workloads.generator import BenchmarkSpec, GuardedModuleSpec, generate_benchmark


def _spec(guarded: int) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=f"noreturn-{guarded}",
        suite="ablation",
        core_methods=60,
        guarded_modules=(
            GuardedModuleSpec("never_returns", guarded // 2),
            GuardedModuleSpec("never_returns", guarded - guarded // 2),
        ),
    )


_GUARDED = (20, 60, 120)


def _run():
    return dict(zip(_GUARDED, run_specs([_spec(guarded) for guarded in _GUARDED])))


def test_invokes_as_predicates(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    benchmark.extra_info["reductions_percent"] = {
        guarded: round(reduction(row), 2) for guarded, row in results.items()
    }
    previous_reduction = 0.0
    for guarded, row in sorted(results.items()):
        percent = reduction(row)
        pta = row.report("PTA").reachable_methods
        skipflow = row.report("SkipFlow").reachable_methods
        print(f"\nguarded={guarded}: PTA={pta} SkipFlow={skipflow} ({percent:.1f}%)")
        # The code behind the never-returning guard must be gone entirely.
        assert skipflow < pta
        # More guarded code means a larger reduction.
        assert percent >= previous_reduction
        previous_reduction = percent


def test_never_returning_method_prunes_continuation(benchmark):
    """Micro-check: the statements after the non-returning call are dead."""
    program = generate_benchmark(_spec(20))
    report = benchmark.pedantic(
        lambda: NativeImageBuilder(program, AnalysisConfig.skipflow()).build(),
        rounds=1, iterations=1)
    launchers = [name for name in program.methods
                 if name.endswith("Launcher.launch")]
    assert launchers
    for launcher in launchers:
        assert not report.result.is_method_reachable(launcher)
