"""Removed kernel and policy names are rejected at every input surface.

The ``kernel`` choice (the program and the solve now pick the kernel), the
parallel kernel's ``partitions`` worker count, the ``scheduling`` choice
(both kernels drain the worklist oldest-first) with every scheduling name,
the bundled ``policy`` option, and the ``declared-type`` saturation
sentinel no longer exist.  Each name must fail loudly wherever a user can
write it down — the config, the CLI, and the daemon's wire — instead of
being ignored or crashing the server.
"""

import dataclasses
import importlib

import pytest

from repro.api import AnalysisSession
from repro.api.errors import EXIT_USAGE
from repro.cli import main as cli_main
from repro.core.analysis import AnalysisConfig
from repro.core.results import AnalysisResult
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


def test_policy_option_is_rejected_by_the_session():
    session = AnalysisSession.from_source(SOURCE)
    with pytest.raises(TypeError, match="policy"):
        session.run("skipflow", policy=("fifo", "off", None))
    with pytest.raises(ValueError, match="policy"):
        session.compare(["pta", "skipflow"], policy=("fifo", "off", None))


@pytest.mark.parametrize("module", ["repro.core.kernel.scheduling",
                                    "repro.core.kernel.policy"])
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
    ("repro.core", "SolverPolicy"),
    ("repro.core", "DEFAULT_POLICY"),
    ("repro.core", "available_scheduling_policies"),
    ("repro.api", "SolverPolicy"),
    ("repro.api", "available_scheduling_policies"),
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
    assert "kernel_ran" in result_fields
    assert "fallback" not in result_fields
