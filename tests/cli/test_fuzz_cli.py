"""``repro fuzz``: every campaign checks the arena kernel against the reference.

No flag turns the check on: each combo of each case compares the kernel's
fixpoint with the reference solver's, so an arena kernel that drifts from
the rules fails the campaign with a recorded ``kernel-divergence``.
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
    """A filter that lets everything through stays sound: only the
    reference's fixpoint check can fail it."""
    monkeypatch.setattr(ArenaKernelSolver, "_filter",
                        lambda solver, fid: solver._inp[fid])
    assert cli_main(["fuzz", "--cases", "1", "--no-shrink",
                     "--out", str(tmp_path)]) == 1
    assert "1 failure(s)" in capsys.readouterr().out
    (repro_file,) = tmp_path.glob("*.json")
    assert "kernel-divergence" in json.dumps(json.loads(repro_file.read_text()))
