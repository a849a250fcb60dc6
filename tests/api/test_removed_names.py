"""Removed kernel and policy names are rejected at every input surface.

The parallel kernel (and its ``partitions`` worker count), the ``lifo``,
``rpo`` and ``hybrid`` schedulings, and the ``declared-type`` saturation
sentinel no longer exist.  Each name must fail loudly wherever a user can
write it down — the config, the CLI, and the daemon's wire — instead of
being ignored or crashing the server.
"""

import pytest

from repro.api.errors import EXIT_USAGE
from repro.cli import main as cli_main
from repro.core.analysis import AnalysisConfig
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
#: ``partitions`` is no longer a field at all, so the dataclass constructor
#: refuses the keyword with a TypeError; every other name reaches the
#: config's own validation and fails there with a ValueError.
REMOVED = [
    ("kernel", "parallel", ["--kernel", "parallel"], ValueError),
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
