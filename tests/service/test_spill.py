"""The daemon's spill: one program encoding, cleaned up, timed.

A spill writes the session's program once, as its arena blob, and each
solver state as a snapshot referencing that program's IR; a rehydration
attaches the blob and resolves the snapshots against it.  Covered here:

* the files: an edited session's spill writes exactly one program file
  (no pickle), repeated park/rehydrate cycles leave at most one generation
  per session, ``close`` leaves none, and a missing blob is a loud
  :class:`SessionRehydrationError`;
* the work: across park -> rehydrate -> edit -> warm resume each method
  body is digested at most once per ``Method`` object, each reachable body
  is pickled once per spill and decoded once per rehydration;
* the metrics: spill and rehydrate latency percentiles.
"""

from collections import Counter

import pytest

from repro.api.errors import SessionRehydrationError
from repro.ir import delta as delta_module
from repro.ir.arena import ProgramArena
from repro.ir.blocks import BasicBlock
from repro.ir.method import Method
from repro.service import SessionManager
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import extended_suites

BENCHMARK = "wide-flat-64"


def _spec():
    for specs in extended_suites().values():
        for spec in specs:
            if spec.name == BENCHMARK:
                return spec
    raise AssertionError(BENCHMARK)


@pytest.fixture
def manager(tmp_path):
    return SessionManager(max_live_sessions=4, spill_dir=tmp_path / "spill")


def _files(manager, besides=()):
    """Spill files: everything in the spill directory except ``besides``."""
    return sorted(path.name for path in manager.spill_dir.rglob("*")
                  if path.is_file() and path.name not in besides)


def _open(manager, name):
    """Open a benchmark session; returns the program-cache files it made.

    The first open of a spec stores its program (pickle and arena) as the
    daemon's program cache, shared by every session of that spec; those
    files are not a session's spill.
    """
    manager.open(name, benchmark=BENCHMARK)
    return set(_files(manager))


def _edit(manager, name, index):
    manager.update(name, edit={"kind": "add-variant", "index": index})
    return manager.analyze(name, "skipflow")


class TestSpillFiles:
    def test_an_edited_spill_writes_one_program_file(self, manager):
        cache = _open(manager, "s")
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        manager.evict("s")
        files = _files(manager, cache)
        assert len(files) == 2
        assert [name for name in files if name.endswith(".arena")]
        assert [name for name in files if name.endswith(".state")]

    def test_cycles_keep_one_generation_and_close_keeps_none(self, manager):
        cache = _open(manager, "a")
        manager.open("b", source="class Main { static void main() { } }")
        manager.analyze("a", "skipflow")
        manager.analyze("a", "pta")
        manager.analyze("b", "skipflow")
        manager.evict("b")
        for cycle in range(4):
            manager.evict("a")
            assert _edit(manager, "a", cycle)["mode"] == "warm"
            # One program blob plus one snapshot per stateful slot, for the
            # live "a" (its last spill) and the parked "b".
            assert len(_files(manager, cache)) == 3 + 2
        manager.close("a")
        assert len(_files(manager, cache)) == 2
        manager.close("b")
        assert _files(manager, cache) == []

    def test_replacing_a_session_deletes_its_files(self, manager):
        cache = _open(manager, "s")
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        manager.evict("s")
        manager.open("s", source="class Main { static void main() { } }",
                     replace=True)
        assert _files(manager, cache) == []

    def test_a_missing_program_blob_is_a_loud_error(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        manager.evict("s")
        for path in manager._sessions["s"].spilled:
            path.unlink()
        with pytest.raises(SessionRehydrationError, match="missing"):
            manager.analyze("s", "skipflow")


class TestSpillWork:
    def test_each_body_is_digested_once_per_method_object(self, manager,
                                                         monkeypatch):
        digested = Counter()
        names = []
        kept = []  # keeps digested methods alive, so ids stay unique
        original = delta_module._method_digest

        def spy(method):
            digested[id(method)] += 1
            names.append(method.qualified_name)
            kept.append(method)
            return original(method)

        # The first open fills the program cache (a freeze of a freshly
        # generated program digests it); the session's lifecycle starts
        # from the attached blob.
        manager.open("s", benchmark=BENCHMARK)
        monkeypatch.setattr(delta_module, "_method_digest", spy)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        for index in (1, 2):
            manager.evict("s")                          # park
            assert _edit(manager, "s", index)["mode"] == "warm"
            assert _edit(manager, "s", index + 2)["mode"] == "warm"
        assert digested and max(digested.values()) == 1
        # Only bodies the edits added were ever digested: the rest come
        # from the fingerprints stamped into the blobs.
        base = set(generate_benchmark(_spec()).methods)
        assert not base & set(names)

    def test_bodies_are_pickled_once_per_spill_and_decoded_once(
            self, manager, monkeypatch):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        program = manager._sessions["s"].session.program

        pickled = Counter()

        def count_pickle(self, protocol):
            pickled[id(self)] += 1
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(BasicBlock, "__reduce_ex__", count_pickle,
                            raising=False)
        manager.evict("s")
        blocks = [id(block) for method in program.methods.values()
                  for block in method.blocks]
        assert pickled and set(pickled) == set(blocks)
        assert set(pickled.values()) == {1}
        monkeypatch.undo()

        decoded = Counter()
        original = ProgramArena.method_blocks

        def count_decode(self, mid):
            decoded[mid] += 1
            return original(self, mid)

        monkeypatch.setattr(ProgramArena, "method_blocks", count_decode)
        assert _edit(manager, "s", 1)["mode"] == "warm"   # rehydrate + thaw
        assert len(decoded) == len(program.methods)
        assert set(decoded.values()) == {1}


    def test_states_hold_the_thawed_programs_own_methods(self, manager):
        """After rehydrate + edit, no state keeps an arena view (or buffer)."""
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")     # cold, on the attached arena
        _edit(manager, "s", 0)
        manager.evict("s")
        _edit(manager, "s", 1)
        live = manager._sessions["s"]
        program = live.session.program
        (slot,) = live.slots.values()
        graphs = slot.state.pvpg.methods
        assert graphs
        for name, graph in graphs.items():
            assert graph.method is program.methods[name]
            assert type(graph.method) is Method


class TestSpillMetrics:
    def test_latency_keys(self, manager):
        snapshot = manager.metrics_snapshot()
        for kind in ("analyze", "spill", "rehydrate"):
            assert set(snapshot[f"{kind}_latency_ms"]) == {
                "count", "p50", "p95", "p99"}
            assert snapshot[f"{kind}_latency_ms"]["count"] == 0

    def test_evict_and_rehydrating_update_are_timed(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.evict("s")
        after_evict = manager.metrics_snapshot()
        assert after_evict["spill_latency_ms"]["count"] == 1
        assert after_evict["spill_latency_ms"]["p50"] > 0
        assert after_evict["rehydrate_latency_ms"]["count"] == 0
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        after_update = manager.metrics_snapshot()
        rehydrate = after_update["rehydrate_latency_ms"]
        assert rehydrate["count"] == 1
        assert rehydrate["p99"] >= rehydrate["p95"] >= rehydrate["p50"] > 0
        manager.update("s", edit={"kind": "add-variant", "index": 1})
        assert manager.metrics_snapshot()["rehydrate_latency_ms"]["count"] == 1
