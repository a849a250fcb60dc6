"""Removed kernel and policy names are rejected at every input surface.

The ``kernel`` choice (the program and the solve now pick the kernel), the
parallel kernel's ``partitions`` worker count, the ``lifo``, ``rpo`` and
``hybrid`` schedulings, and the ``declared-type`` saturation sentinel no
longer exist.  Each name must fail loudly wherever a user can
write it down — the config, the CLI, and the daemon's wire — instead of
being ignored or crashing the server.
"""

import dataclasses
import importlib

import pytest

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
#: ``kernel`` and ``partitions`` are no longer fields at all, so the
#: dataclass constructor refuses the keyword with a TypeError; every other
#: name reaches the config's own validation and fails there with a
#: ValueError.
REMOVED = [
    ("kernel", "arena", ["--kernel", "arena"], TypeError),
    ("scheduling", "lifo", ["--scheduling", "lifo"], ValueError),
    ("scheduling", "rpo", ["--scheduling", "rpo"], ValueError),
    ("scheduling", "hybrid", ["--scheduling", "hybrid"], ValueError),
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


#: Python names that went with the kernel knob, the arena fallback and the
#: policy registries: (module, dotted name inside it).
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
]


@pytest.mark.parametrize("module, name", REMOVED_ATTRIBUTES,
                         ids=[name for _, name in REMOVED_ATTRIBUTES])
def test_removed_python_name_is_gone(module, name):
    *owners, attribute = name.split(".")
    target = importlib.import_module(module)
    for owner in owners:
        target = getattr(target, owner)
    assert not hasattr(target, attribute)


def test_results_and_configs_carry_no_kernel_choice():
    """Nine config fields are left; a result records only what ran."""
    config_fields = [field.name for field in dataclasses.fields(AnalysisConfig)]
    assert len(config_fields) == 9
    assert "kernel" not in config_fields
    result_fields = {field.name for field in dataclasses.fields(AnalysisResult)}
    assert "kernel_ran" in result_fields
    assert "fallback" not in result_fields
