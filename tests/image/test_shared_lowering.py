"""Image builds solve one shared in-memory lowering per program.

``NativeImageBuilder.build`` hands the analysis ``lowered_program(program)``:
a read-only ``ArenaProgram`` over the program's in-memory arena lowering,
solved cold on the arena kernel.  The lowering is memoized on the program
per revision, so a PTA and a SkipFlow build of one program lower it once;
every mutation path bumps the revision, so a build after a mutation lowers
the program again and reports what a fresh program reports.  The reports
must equal the object kernel's reports (``SkipFlowAnalysis`` on the plain
program plus the PVPG walks) exactly.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel import available_saturation_policies
from repro.image.builder import NativeImageBuilder
from repro.image.reflection import ReflectionConfig
from repro.ir.arena import (
    ArenaProgram,
    freeze,
    lower,
    lowered_program,
    lowering,
    open_program,
)
from repro.ir.builder import MethodBuilder
from repro.ir.method import Method
from repro.ir.types import MethodSignature
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import generate_benchmark, spec_from_reduction
from repro.workloads.suites import all_suites, suite_by_name

SPEC = spec_from_reduction(name="lowering-spec", suite="test",
                           total_methods=70, reduction_percent=10.0)
CONFIGS = {"pta": AnalysisConfig.baseline_pta(),
           "skipflow": AnalysisConfig.skipflow()}


@pytest.fixture
def lowerings(monkeypatch):
    """The programs ``freeze.lower`` is called on while the test runs."""
    calls = []

    def counting_lower(program):
        calls.append(program)
        return lower(program)

    monkeypatch.setattr(lowering, "lower", counting_lower)
    return calls


def _answer(report):
    """Everything an image report says, minus the wall clocks."""
    result = report.result
    return {
        "reachable": sorted(result.reachable_methods),
        "stubs": sorted(result.stub_methods),
        "stats": result.stats,
        "reachable_methods": report.metrics.reachable_methods,
        "counters": report.metrics.counters,
        "dead_code": report.dead_code,
        "binary_size_bytes": report.binary_size_bytes,
    }


def _build(program, config, **kwargs):
    return NativeImageBuilder(program, config, **kwargs).build()


class TestSharedLowering:
    def test_two_builds_of_one_program_lower_it_once(self, lowerings):
        program = generate_benchmark(SPEC)
        reports = [_build(program, config) for config in CONFIGS.values()]
        assert lowerings == [program]
        assert [report.result.kernel_ran for report in reports] == ["arena", "arena"]
        assert reports[0].result.program is reports[1].result.program

    def test_builds_match_the_object_kernel(self, object_image_report):
        program = generate_benchmark(SPEC)
        for config in CONFIGS.values():
            assert (_answer(_build(program, config))
                    == _answer(object_image_report(program, config)))

    def test_the_view_shares_the_live_program(self):
        program = generate_benchmark(SPEC)
        view = lowered_program(program)
        assert isinstance(view, ArenaProgram)
        assert view.hierarchy is program.hierarchy
        assert view.entry_points == program.entry_points
        assert all(view.methods[name] is method
                   for name, method in program.methods.items())
        with pytest.raises(TypeError):
            view.add_method(Method(MethodSignature("Main", "viaView", is_static=True)))
        assert not program.has_method("Main.viaView")

    def test_an_attached_program_passes_through(self, lowerings):
        attached = open_program(freeze(generate_benchmark(SPEC)))
        lowerings.clear()  # freeze's own lowering
        assert lowered_program(attached) is attached
        assert _build(attached, CONFIGS["skipflow"]).result.kernel_ran == "arena"
        assert lowerings == []

    def test_the_memo_is_released_with_its_program(self):
        program = generate_benchmark(SPEC)
        reports = [_build(program, config) for config in CONFIGS.values()]
        view = weakref.ref(lowered_program(program))
        columns = weakref.ref(view().arena)
        del reports, program
        gc.collect()
        assert view() is None and columns() is None

    def test_pickles_carry_neither_memo_nor_revision(self):
        """A pickled program holds its content only."""
        program = generate_benchmark(SPEC)
        _build(program, CONFIGS["skipflow"])
        assert {"_revision", "_memo"} <= set(vars(program))
        restored = pickle.loads(
            pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        assert set(vars(restored)) == {"hierarchy", "methods", "entry_points"}
        assert "_revision" not in vars(restored.hierarchy)
        assert not any("_revision" in vars(cls) for cls in restored.hierarchy)
        assert restored.revision == 0
        assert _answer(_build(restored, CONFIGS["skipflow"])) == _answer(
            _build(program, CONFIGS["skipflow"]))


# ---------------------------------------------------------------------- #
# Every mutation path invalidates the memo
# ---------------------------------------------------------------------- #
def _unreachable(program) -> str:
    result = SkipFlowAnalysis(program, CONFIGS["skipflow"]).run()
    return sorted(set(program.methods) - result.reachable_methods)[0]


def _add_method(program) -> None:
    builder = MethodBuilder(MethodSignature("Main", "addedByTest", is_static=True))
    builder.return_void()
    program.add_method(builder.build())


def _reflect(program) -> None:
    field = next((cls.name, name) for cls in program.hierarchy
                 for name in cls.fields)
    ReflectionConfig(methods=[_unreachable(program)],
                     fields=[field]).apply_to(program)


MUTATIONS = {
    "add_method": _add_method,
    "add_entry_point": lambda program: program.add_entry_point(
        _unreachable(program)),
    "declare_class": lambda program: program.hierarchy.declare_class(
        "AddedByTest"),
    "declare_field": lambda program: program.hierarchy.get(
        "Main").declare_field("addedByTest", "Object"),
    "declare_method": lambda program: program.hierarchy.get(
        "Main").declare_method(
            MethodSignature("Main", "declaredByTest", is_static=True)),
    "ProgramDelta.apply_to": lambda program: build_edit_delta(
        SPEC, default_edit_script(SPEC).steps[0]).apply_to(program),
    "ReflectionConfig.apply_to": _reflect,
}


@pytest.mark.parametrize("path", sorted(MUTATIONS))
def test_mutation_invalidates_the_lowering(path, lowerings, object_image_report):
    config = CONFIGS["skipflow"]
    program = generate_benchmark(SPEC)
    _build(program, config)
    revision = program.revision
    MUTATIONS[path](program)
    assert program.revision != revision
    after = _build(program, config)
    assert lowerings == [program, program]
    view = lowered_program(program)
    assert view.arena.columns == lower(program).columns
    assert view.arena.strings == lower(program).strings

    fresh = generate_benchmark(SPEC)
    MUTATIONS[path](fresh)
    assert _answer(after) == _answer(_build(fresh, config))
    assert _answer(after) == _answer(object_image_report(fresh, config))


def test_reflection_is_applied_before_lowering(lowerings):
    program = generate_benchmark(SPEC)
    _build(program, CONFIGS["skipflow"])
    target = _unreachable(program)
    report = _build(program, CONFIGS["skipflow"],
                    reflection=ReflectionConfig(methods=[target]))
    assert target in report.result.reachable_methods
    assert lowerings == [program, program]


# ---------------------------------------------------------------------- #
# Arena image reports == object-walk reports, every policy
# ---------------------------------------------------------------------- #
GRID_SPECS = [specs[0] for specs in all_suites(0.5).values()] + [
    spec for spec in suite_by_name("WideHierarchy")
    if spec.name in ("wide-flat-64", "wide-deep-4x6", "composed-duo-112")]
GRID_THRESHOLD = 4


@pytest.mark.parametrize("policy", available_saturation_policies())
@pytest.mark.parametrize("spec", GRID_SPECS, ids=lambda spec: spec.name)
def test_image_reports_equal_the_object_walk(spec, policy, object_image_report):
    program = generate_benchmark(spec)
    for config in CONFIGS.values():
        if policy != "off":
            config = config.with_saturation_policy(policy, GRID_THRESHOLD)
        report = _build(program, config, benchmark_name=spec.name)
        assert report.result.kernel_ran == "arena"
        assert _answer(report) == _answer(
            object_image_report(program, config, spec.name))
