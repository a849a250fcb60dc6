"""Arena-backed service sessions: zero-decode open, extend-on-edit, spill.

Benchmark sessions attach the program store's arena blob instead of
unpickling.  The invariants under test: analyzers read the attached arena
directly and produce byte-identical reports; an *edit* extends the arena
in place (its lowering appended after the arena's fids) and the warm
resume runs on the arena kernel; spill/rehydrate keeps arena backing, and
an edited session parks without lowering anything: its rehydration
re-extends the blob with the logged edits.
"""

import pytest

from repro.core.kernel.arena_kernel import ArenaKernelSolver
from repro.ir.arena import ArenaProgram, lowering
from repro.service import SessionManager

BENCHMARK = "wide-flat-64"


@pytest.fixture
def manager(tmp_path):
    return SessionManager(max_live_sessions=4, spill_dir=tmp_path / "spill")


def _program(manager, name):
    return manager._sessions[name].session.program


class TestZeroDecodeOpen:
    def test_benchmark_sessions_attach_an_arena(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        assert isinstance(_program(manager, "s"), ArenaProgram)

    def test_source_sessions_attach_at_open(self, manager):
        manager.open("s", source="class Main { static void main() { } }")
        assert isinstance(_program(manager, "s"), ArenaProgram)
        assert manager.analyze("s", "skipflow")["kernel"] == "arena"

    def test_analyze_reads_the_arena_in_place(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        cold = manager.analyze("s", "skipflow")
        assert cold["mode"] == "cold"
        # Read-only analysis never forces a thaw.
        assert isinstance(_program(manager, "s"), ArenaProgram)

    def test_arena_session_reports_match_a_pickled_one(self, manager, tmp_path):
        manager.open("s", benchmark=BENCHMARK)
        arena_report = manager.analyze("s", "skipflow")["report"]
        plain = SessionManager(spill_dir=tmp_path / "plain")
        plain.open("s", benchmark=BENCHMARK)
        plain_report = plain.analyze("s", "skipflow")["report"]
        def strip(report):
            clean = dict(report, metrics=dict(report["metrics"]))
            clean["metrics"].pop("analysis_time_seconds")
            return clean

        assert strip(arena_report) == strip(plain_report)


class TestExtendOnEdit:
    def test_an_edit_extends_the_arena(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        attached = _program(manager, "s")
        flows = attached.arena.num_flows
        cold = manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        warm = manager.analyze("s", "skipflow")
        assert warm["mode"] == "warm" and warm["kernel"] == "arena"
        assert 0 < warm["steps_paid"] < cold["steps_paid"]
        # The attached program grew in place: no mutable twin replaced it.
        assert _program(manager, "s") is attached
        assert attached.arena.num_flows > flows
        assert "Wide_flat_64EditInject0.apply" in attached.methods
        assert manager.metrics_snapshot()["requests"]["thaws"] == 0


class TestSpillAndRehydrate:
    def test_unedited_session_rehydrates_arena_backed(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        cold = manager.analyze("s", "skipflow")
        assert manager.evict("s")["evicted"]
        cached = manager.analyze("s", "skipflow")
        assert cached["mode"] == "cached"
        assert cached["report"] == cold["report"]
        assert isinstance(_program(manager, "s"), ArenaProgram)

    def test_edited_session_parks_without_lowering(self, manager,
                                                    monkeypatch):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        warm = manager.analyze("s", "skipflow")
        lowered = []
        monkeypatch.setattr(lowering, "lower",
                            lambda program: lowered.append(program))
        before = set(manager.spill_dir.rglob("*.arena"))
        assert manager.evict("s")["evicted"]
        # The park wrote snapshots only: the program is the benchmark's
        # blob plus the logged edit, so nothing was lowered or frozen.
        assert lowered == []
        assert set(manager.spill_dir.rglob("*.arena")) == before
        monkeypatch.undo()
        cached = manager.analyze("s", "skipflow")
        assert cached["mode"] == "cached"
        assert cached["report"] == warm["report"]
        # Rehydration re-extended the blob with the edit: nothing thawed.
        assert isinstance(_program(manager, "s"), ArenaProgram)
        assert "Wide_flat_64EditInject0.apply" in _program(manager, "s").methods
        requests = manager.metrics_snapshot()["requests"]
        assert requests["replayed_deltas"] == 1 and requests["thaws"] == 0

    def test_edit_after_rehydrate_still_resumes_warm(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        cold = manager.analyze("s", "skipflow")
        manager.evict("s")
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        warm = manager.analyze("s", "skipflow")
        assert warm["mode"] == "warm"
        assert 0 < warm["steps_paid"] < cold["steps_paid"]


class TestKernelSelection:
    def test_cold_and_warm_analyzes_run_on_the_arena(self, manager,
                                                     monkeypatch):
        """The attached arena's cold solve takes the arena kernel, and the
        warm resume after an edit continues its tables there, over the
        same (extended) program."""
        arena_solves = []
        solve = ArenaKernelSolver.solve

        def counting_solve(self, roots=None):
            arena_solves.append((self.program, self.arena_state))
            return solve(self, roots)

        monkeypatch.setattr(ArenaKernelSolver, "solve", counting_solve)
        manager.open("s", benchmark=BENCHMARK)
        attached = _program(manager, "s")
        cold = manager.analyze("s", "skipflow")
        assert cold["mode"] == "cold" and cold["kernel"] == "arena"
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        warm = manager.analyze("s", "skipflow")
        assert warm["mode"] == "warm" and warm["kernel"] == "arena"
        (first, state), (second, resumed) = arena_solves
        assert first is second is attached
        assert resumed is state
        requests = manager.metrics_snapshot()["requests"]
        assert requests["analyzes_arena"] == 2
        assert requests["analyzes_object"] == 0
