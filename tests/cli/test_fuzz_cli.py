"""``repro fuzz``: every campaign cross-checks the object and arena kernels.

No flag turns the cross-check on: each combo of each case also runs cold
on the case's attached freeze, so a campaign solves on the arena kernel
every time, and an arena kernel that drifts from the object kernel fails
the campaign with a recorded ``kernel-divergence``.
"""

import json

from repro.cli import main as cli_main
from repro.core.kernel.arena_kernel import ArenaKernelSolver


def test_campaign_solves_on_the_arena_kernel_and_is_clean(capsys, monkeypatch):
    built = []
    init = ArenaKernelSolver.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArenaKernelSolver, "__init__", counting_init)
    assert cli_main(["fuzz", "--cases", "1"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out
    assert built


def test_planted_arena_fault_fails_the_campaign(tmp_path, capsys, monkeypatch):
    steps = ArenaKernelSolver.steps
    monkeypatch.setattr(ArenaKernelSolver, "steps",
                        property(lambda solver: steps.fget(solver) + 1))
    assert cli_main(["fuzz", "--cases", "1", "--no-shrink",
                     "--out", str(tmp_path)]) == 1
    assert "1 failure(s)" in capsys.readouterr().out
    (repro_file,) = tmp_path.glob("*.json")
    assert "kernel-divergence" in json.dumps(json.loads(repro_file.read_text()))
