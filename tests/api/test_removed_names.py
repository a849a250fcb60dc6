"""Removed kernel and policy names are rejected at every input surface.

The ``kernel`` choice (one kernel runs every solve), the
parallel kernel's ``partitions`` worker count, the ``scheduling`` choice
(the kernel drains the worklist oldest-first) with every scheduling name,
the bundled ``policy`` option, and the ``declared-type`` and
``closed-world`` saturation sentinels no longer exist.  Each name must fail
loudly wherever a user can write it down — the config, the CLI, and the
daemon's wire — instead of being ignored or crashing the server.  The
object solver went with its names: ``SkipFlowSolver``, ``ObjectSink`` and
the ``FlowSink`` protocol, ``SolverState.fork``, a ``SolverState`` offered
for resumption, ``kernel_ran`` and the wire's ``kernel`` fields.  The
``PVPGBuilder`` class went when the arena lowering took over its traversal.
"""

import dataclasses
import importlib
import pickle

import pytest

from repro.api import AnalysisSession
from repro.api.errors import EXIT_USAGE
from repro.cli import main as cli_main
from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.results import AnalysisResult
from repro.core.state import SolverStateError
from repro.ir.arena import freeze, open_program
from repro.lang import compile_source
from repro.service import ServiceClient, ServiceClientError, serving

SOURCE = """
class Main {
    static void main() {
        Greeter greeter = new Greeter();
        greeter.greet();
    }
}
class Greeter {
    int greet() { return 1; }
}
"""

#: (config/wire option, value, CLI flags, exception AnalysisConfig raises).
#: ``kernel``, ``scheduling`` and ``partitions`` are no longer fields at
#: all, so the dataclass constructor refuses the keyword with a TypeError;
#: the removed sentinel reaches the config's own validation and fails there
#: with a ValueError.
REMOVED = [
    ("kernel", "arena", ["--kernel", "arena"], TypeError),
    ("scheduling", "degree", ["--scheduling", "degree"], TypeError),
    ("scheduling", "lifo", ["--scheduling", "lifo"], TypeError),
    ("scheduling", "rpo", ["--scheduling", "rpo"], TypeError),
    ("scheduling", "hybrid", ["--scheduling", "hybrid"], TypeError),
    ("saturation_policy", "declared-type",
     ["--saturation-policy", "declared-type", "--saturation-threshold", "8"],
     ValueError),
    ("saturation_policy", "closed-world",
     ["--saturation-policy", "closed-world", "--saturation-threshold", "8"],
     ValueError),
    ("partitions", 2, ["--partitions", "2"], TypeError),
]


def _config_kwargs(option, value):
    kwargs = {option: value}
    if option == "saturation_policy":
        kwargs["saturation_threshold"] = 8
    return kwargs


@pytest.mark.parametrize("option, value, flags, config_error", REMOVED,
                         ids=[f"{option}={value}"
                              for option, value, _, _ in REMOVED])
def test_removed_name_is_rejected_everywhere(tmp_path, capsys, option, value,
                                             flags, config_error):
    with pytest.raises(config_error):
        AnalysisConfig(**_config_kwargs(option, value))

    path = tmp_path / "app.lang"
    path.write_text(SOURCE)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["analyze", str(path)] + flags)
    assert exit_info.value.code == EXIT_USAGE
    capsys.readouterr()

    with serving() as server:
        client = ServiceClient.for_address(*server.server_address)
        client.open("app", source=SOURCE)
        with pytest.raises(ServiceClientError) as error_info:
            client.analyze("app", "skipflow",
                           options=_config_kwargs(option, value))
    assert error_info.value.status == 400
    assert error_info.value.error_type in ("ValueError",
                                           "ServiceProtocolError")
    message = error_info.value.message
    assert str(value) in message or option in message


@pytest.mark.parametrize("head", [
    ["check", "{path}"],
    ["compare", "{path}", "pta", "skipflow"],
    ["fuzz", "--cases", "1"],
], ids=["check", "compare", "fuzz"])
def test_kernel_flag_is_a_usage_error_on_every_command(tmp_path, capsys, head):
    """``analyze`` is covered above; the other commands had the flag too."""
    path = tmp_path / "app.lang"
    path.write_text(SOURCE)
    argv = [part.format(path=path) for part in head]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv + ["--kernel", "arena"])
    assert exit_info.value.code == EXIT_USAGE
    assert "--kernel" in capsys.readouterr().err


@pytest.mark.parametrize("head", [
    ["check", "{path}"],
    ["compare", "{path}", "pta", "skipflow"],
], ids=["check", "compare"])
def test_scheduling_flag_is_a_usage_error_on_every_command(tmp_path, capsys,
                                                           head):
    """``analyze`` is covered above; the other commands had the flag too."""
    path = tmp_path / "app.lang"
    path.write_text(SOURCE)
    argv = [part.format(path=path) for part in head]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv + ["--scheduling", "fifo"])
    assert exit_info.value.code == EXIT_USAGE
    assert "--scheduling" in capsys.readouterr().err


def test_snapshot_naming_a_removed_policy_is_refused():
    """Arena tables whose config still names ``closed-world`` fail at load
    time with a ``SolverStateError``, not inside the resumed solve."""
    program = open_program(freeze(compile_source(SOURCE)))
    config = AnalysisConfig.skipflow().with_saturation_threshold(8)
    result = SkipFlowAnalysis(program, config).run()
    payload = pickle.loads(result.arena_state.to_bytes(program))
    object.__setattr__(payload["config"], "saturation_policy", "closed-world")
    with pytest.raises(SolverStateError, match="closed-world"):
        ArenaSolverState.from_bytes(pickle.dumps(payload), program)


def test_policy_option_is_rejected_by_the_session():
    session = AnalysisSession.from_source(SOURCE)
    with pytest.raises(TypeError, match="policy"):
        session.run("skipflow", policy=("fifo", "off", None))
    with pytest.raises(ValueError, match="policy"):
        session.compare(["pta", "skipflow"], policy=("fifo", "off", None))


@pytest.mark.parametrize("module", ["repro.core.solver",
                                    "repro.core.kernel.scheduling",
                                    "repro.core.kernel.policy",
                                    "repro.reporting.saturation"])
def test_removed_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


#: Python names that went with the kernel knob, the arena fallback, the
#: policy registries, the scheduling policies and the ``SolverPolicy``
#: bundle: (module, dotted name inside it).
REMOVED_ATTRIBUTES = [
    ("repro.core.analysis", "KERNELS"),
    ("repro.core.analysis", "AnalysisConfig.with_kernel"),
    ("repro.core.kernel", "register_scheduling_policy"),
    ("repro.core.kernel", "register_saturation_policy"),
    ("repro.core.kernel", "SaturationContext"),
    ("repro.core.kernel", "SchedulingPolicy"),
    ("repro.core.kernel", "SaturationPolicy"),
    ("repro.core.kernel.saturation", "needs_context"),
    ("repro.core.kernel.arena_kernel", "ArenaKernelUnsupported"),
    ("repro.core.kernel", "SolverPolicy"),
    ("repro.core.kernel", "DEFAULT_POLICY"),
    ("repro.core.kernel", "FifoScheduling"),
    ("repro.core.kernel", "DegreeScheduling"),
    ("repro.core.kernel", "make_scheduling_policy"),
    ("repro.core.kernel", "available_scheduling_policies"),
    ("repro.core.analysis", "AnalysisConfig.with_scheduling"),
    ("repro.core.analysis", "AnalysisConfig.with_policy"),
    ("repro.core.analysis", "AnalysisConfig.solver_policy"),
    ("repro.core.kernel.arena_kernel", "_FifoFids"),
    ("repro.core.kernel.arena_kernel", "_DegreeFids"),
    ("repro.core.kernel.arena_kernel", "_WORKLISTS"),
    ("repro.core.kernel.arena_kernel", "ArenaKernelSolver._degree"),
    ("repro.core.kernel.saturation", "ClosedWorldSaturation"),
    ("repro.core.kernel.saturation", "ReachableAllocatedSaturation"),
    ("repro.core.kernel.saturation", "AllocatedTypeSaturation.collapse"),
    ("repro.core.kernel.saturation", "AllocatedTypeSaturation.sentinel_for"),
    ("repro.core.kernel.arena_kernel", "ArenaKernelSolver._sentinel_for"),
    ("repro.core.pvpg_builder", "ObjectSink"),
    ("repro.core.pvpg_builder", "FlowSink"),
    ("repro.core.pvpg_builder", "PVPGBuilder"),
    ("repro.core.state", "SolverState.fork"),
    ("repro.core.state", "SolverState.empty"),
    ("repro.core.state", "SolverState.is_fresh"),
    ("repro.core.results", "AnalysisResult.resumable_state"),
]


@pytest.mark.parametrize("module, name", REMOVED_ATTRIBUTES,
                         ids=[name for _, name in REMOVED_ATTRIBUTES])
def test_removed_python_name_is_gone(module, name):
    *owners, attribute = name.split(".")
    target = importlib.import_module(module)
    for owner in owners:
        target = getattr(target, owner)
    assert not hasattr(target, attribute)


@pytest.mark.parametrize("module, name", [
    ("repro.core", "SkipFlowSolver"),
    ("repro.core", "ObjectSink"),
    ("repro.core", "PVPGBuilder"),
    ("repro.core", "SolverPolicy"),
    ("repro.core", "DEFAULT_POLICY"),
    ("repro.core", "available_scheduling_policies"),
    ("repro.api", "SolverPolicy"),
    ("repro.api", "available_scheduling_policies"),
    ("repro.core.kernel", "ClosedWorldSaturation"),
    ("repro.core.kernel", "ReachableAllocatedSaturation"),
    ("repro.reporting", "SaturationPoint"),
    ("repro.reporting", "saturation_series"),
    ("repro.reporting", "summarize_sweep"),
    ("repro.reporting", "format_saturation_study"),
], ids=lambda value: value)
def test_removed_reexport_is_gone(module, name):
    package = importlib.import_module(module)
    assert not hasattr(package, name)
    assert name not in package.__all__


def test_results_and_configs_carry_no_kernel_choice():
    """Eight config fields are left; a result records only what ran."""
    config_fields = [field.name for field in dataclasses.fields(AnalysisConfig)]
    assert len(config_fields) == 8
    assert "kernel" not in config_fields
    assert "scheduling" not in config_fields
    result_fields = {field.name for field in dataclasses.fields(AnalysisResult)}
    assert "kernel_ran" not in result_fields
    assert "fallback" not in result_fields


def test_an_object_solver_state_is_not_a_resume_source():
    """Only the arena kernel's tables resume: the inflated object-graph
    state is a view, refused by the session and by the analysis."""
    session = AnalysisSession.from_source(SOURCE)
    report = session.run("skipflow")
    inflated = report.raw.solver_state
    with pytest.raises(TypeError, match="resume must be"):
        session.run("skipflow", resume=inflated)
    with pytest.raises(SolverStateError, match="only an arena solver"):
        SkipFlowAnalysis(session.program, state=inflated).run()


def test_the_wire_names_no_kernel():
    """``/v1/analyze`` carries no ``kernel`` and ``/v1/metrics`` no
    per-kernel analyze counts: one kernel runs every request."""
    with serving() as server:
        client = ServiceClient.for_address(*server.server_address)
        client.open("app", source=SOURCE)
        response = client.analyze("app", "skipflow")
        metrics = client.metrics()
    assert "kernel" not in response
    assert not {"analyzes_arena", "analyzes_object"} & set(metrics["requests"])
