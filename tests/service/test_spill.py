"""The daemon's spill: a base blob plus a delta log, cleaned up, timed.

A session's program is a base arena blob (a benchmark's shared blob, or
the session's own frozen program) plus the deltas applied since; a spill
writes each solver state as a snapshot referencing the program's IR, and a
rehydration attaches the base, replays the log and resolves the snapshots
against the result.  Covered here:

* the files: parking an edited benchmark session lowers nothing and writes
  no program file; a source session freezes at its first spill only, and
  a rebuild makes the next spill freeze again; repeated park/rehydrate
  cycles leave at most one base and one set of snapshots per session,
  ``close`` leaves none, and a missing base blob is a loud
  :class:`SessionRehydrationError`;
* the work: across park -> rehydrate -> edit -> warm resume each method
  body is digested at most once per ``Method`` object; a park pickles no
  body, and a rehydration decodes each base body once;
* the metrics: spill and rehydrate latency percentiles;
* equivalence: park/rehydrate cycles mixing ``edit`` steps and ``source``
  updates serve the fixpoint and the wire report of a twin session that
  was never evicted, and every analyze after a rehydration is warm;
* ownership: ``close`` deletes a session-owned base, never a benchmark's
  shared store blob;
* the rebase rule: a spill freezes once the program has doubled since its
  base, and later replays start from the new base.
"""

from collections import Counter

import pytest

from repro.api.errors import SessionRehydrationError
from repro.ir import delta as delta_module
from repro.ir.arena import ProgramArena, lowering
from repro.ir.blocks import BasicBlock
from repro.ir.method import Method
from repro.service import SessionManager
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import extended_suites
from tests.conftest import fixpoint_signature

BENCHMARK = "wide-flat-64"

lower = lowering.lower

SOURCE = """
class Main {
    static void main() {
        Greeter greeter = new Greeter();
        greeter.greet();
    }
}
class Greeter {
    int greet() { return 1; }
    int wave() { return 1; }
    int nod() { return 1; }
}
"""


def _extended(classes):
    """``SOURCE`` plus ``classes`` new subclasses: a monotone extension."""
    return SOURCE + "".join(
        f"class Loud{index} extends Greeter {{ int greet() {{ return "
        f"{index + 2}; }} }}\n" for index in range(classes))


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

    The first open of a spec stores its program's arena blob as the
    daemon's program cache, shared by every session of that spec; those
    files are not a session's spill.
    """
    manager.open(name, benchmark=BENCHMARK)
    return set(_files(manager))


def _edit(manager, name, index):
    manager.update(name, edit={"kind": "add-variant", "index": index})
    return manager.analyze(name, "skipflow")


@pytest.fixture
def lowerings(monkeypatch):
    """The programs ``lowering.lower`` is called on while the test runs."""
    calls = []

    def counting_lower(program):
        calls.append(program)
        return lower(program)

    monkeypatch.setattr(lowering, "lower", counting_lower)
    return calls


def _requests(manager):
    return manager.metrics_snapshot()["requests"]


def _wire(response):
    """An analyze response's report, minus its wall clock."""
    report = dict(response["report"])
    report["metrics"] = dict(report["metrics"])
    report["metrics"].pop("analysis_time_seconds")
    return report


def _signature(manager, name):
    """:func:`fixpoint_signature` of a session's one solver state."""
    (slot,) = manager._sessions[name].slots.values()
    return fixpoint_signature(slot.state.pvpg, slot.state.reachable)


@pytest.fixture
def twin(tmp_path):
    return SessionManager(max_live_sessions=4, spill_dir=tmp_path / "twin")


class TestSpillFiles:
    def test_an_edited_benchmark_park_lowers_nothing(self, manager,
                                                     lowerings):
        cache = _open(manager, "s")
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        lowerings.clear()
        manager.evict("s")
        assert lowerings == []
        files = _files(manager, cache)
        assert len(files) == 1 and files[0].endswith(".state")
        assert _requests(manager)["spill_freezes"] == 0

    def test_a_source_session_freezes_at_its_first_spill_only(
            self, manager, lowerings):
        manager.open("s", source=SOURCE)
        manager.analyze("s", "skipflow")
        manager.evict("s")
        assert len(lowerings) == 1
        base = [name for name in _files(manager) if name.endswith(".arena")]
        assert len(base) == 1
        for cycle in range(1, 3):
            manager.update("s", source=_extended(cycle))
            assert manager.analyze("s", "skipflow")["mode"] == "warm"
            manager.evict("s")
        assert len(lowerings) == 1
        assert [name for name in _files(manager)
                if name.endswith(".arena")] == base
        requests = _requests(manager)
        assert requests["spill_freezes"] == 1
        assert requests["replayed_deltas"] == 1   # the second rehydration

    def test_a_rebuild_makes_the_next_spill_freeze(self, manager, lowerings):
        manager.open("s", source=SOURCE)
        manager.analyze("s", "skipflow")
        manager.evict("s")
        (first,) = [name for name in _files(manager)
                    if name.endswith(".arena")]
        result = manager.update("s", source=SOURCE.replace(
            "return 1", "return 42"), allow_rebuild=True)
        assert result["rebuilt"]
        manager.analyze("s", "skipflow")
        manager.evict("s")
        assert len(lowerings) == 2
        assert _requests(manager)["spill_freezes"] == 2
        (second,) = [name for name in _files(manager)
                     if name.endswith(".arena")]
        assert second != first   # the superseded own base was deleted
        manager.update("s", source=SOURCE.replace("return 1", "return 42"))
        assert manager.analyze("s", "skipflow")["mode"] == "cached"

    def test_cycles_keep_one_base_and_close_keeps_none(self, manager):
        cache = _open(manager, "a")
        manager.open("b", source="class Main { static void main() { } }")
        manager.analyze("a", "skipflow")
        manager.analyze("a", "pta")
        manager.analyze("b", "skipflow")
        manager.evict("b")
        for cycle in range(4):
            manager.evict("a")
            assert _edit(manager, "a", cycle)["mode"] == "warm"
            # One snapshot per stateful slot of the live "a" (its last
            # spill; its base is the shared program cache), plus the
            # parked "b"'s own base blob and snapshot.
            assert len(_files(manager, cache)) == 2 + 2
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

    def test_a_missing_base_blob_is_a_loud_error(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        manager.evict("s")
        base = manager._programs.path_for(manager._sessions["s"].base)
        base.unlink()
        for _ in range(2):   # the session stays parked: every request fails
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

    def test_a_park_pickles_no_body_and_a_rehydration_decodes_each_once(
            self, manager, monkeypatch):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)

        pickled = Counter()

        def count_pickle(self, protocol):
            pickled[id(self)] += 1
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(BasicBlock, "__reduce_ex__", count_pickle,
                            raising=False)
        manager.evict("s")
        assert not pickled
        monkeypatch.undo()

        decoded = Counter()
        original = ProgramArena.method_blocks

        def count_decode(self, mid):
            decoded[mid] += 1
            return original(self, mid)

        monkeypatch.setattr(ProgramArena, "method_blocks", count_decode)
        assert _edit(manager, "s", 1)["mode"] == "warm"   # rehydrate + replay
        # The thaw decodes every base body once; the replayed bodies are
        # the logged deltas' own methods and are never encoded at all.
        assert len(decoded) == manager._sessions["s"].base_methods
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


class TestReplayMatchesATwin:
    def test_three_cycles_of_edits_and_source_updates(self, manager, twin):
        for each in (manager, twin):
            each.open("bench", benchmark=BENCHMARK)
            each.open("src", source=SOURCE)
            each.analyze("bench", "skipflow")
            each.analyze("src", "skipflow")
        for cycle in range(3):
            manager.evict("bench")
            manager.evict("src")
            responses = {}
            for each in (manager, twin):
                each.update("bench", edit={"kind": "add-variant",
                                           "index": cycle})
                each.update("bench", edit={"kind": "add-dispatch",
                                           "index": cycle})
                each.update("src", source=_extended(cycle + 1))
                responses[each] = [each.analyze(name, "skipflow")
                                   for name in ("bench", "src")]
            for served, reference in zip(responses[manager], responses[twin]):
                assert served["mode"] == "warm", served
                assert reference["mode"] == "warm", reference
                assert served["steps_paid"] == reference["steps_paid"]
                assert _wire(served) == _wire(reference)
            for name in ("bench", "src"):
                assert _signature(manager, name) == _signature(twin, name)
        requests = _requests(manager)
        assert requests["rehydrations"] == 6
        assert requests["spill_freezes"] == 1     # the source session's base
        # Each rehydration replays the log since the base: two edits per
        # cycle on "bench", one update per cycle on "src" after its first.
        assert requests["replayed_deltas"] == (2 + 4) + (1 + 2)


class TestClose:
    def test_close_deletes_an_owned_base_and_its_snapshots(self, manager):
        manager.open("src", source=SOURCE)
        manager.analyze("src", "skipflow")
        manager.evict("src")
        manager.update("src", source=_extended(1))
        manager.analyze("src", "skipflow")
        manager.evict("src")
        owned = manager._sessions["src"].spilled
        assert sorted(path.suffix for path in owned) == [".arena", ".state"]
        assert all(path.is_file() for path in owned)
        manager.close("src")
        assert not any(path.exists() for path in owned)
        assert not [path for path in manager.spill_dir.rglob("*")
                    if path.is_file()]

    def test_close_keeps_the_benchmarks_shared_blob(self, manager):
        manager.open("a", benchmark=BENCHMARK)
        manager.analyze("a", "skipflow")
        manager.update("a", edit={"kind": "add-variant", "index": 0})
        manager.analyze("a", "skipflow")
        manager.evict("a")
        shared = manager._programs.path_for(manager._sessions["a"].base)
        manager.open("b", benchmark=BENCHMARK)
        assert manager._sessions["b"].base == manager._sessions["a"].base
        manager.close("a")
        assert shared.is_file()
        manager.analyze("b", "skipflow")
        manager.update("b", edit={"kind": "add-variant", "index": 0})
        manager.analyze("b", "skipflow")
        manager.evict("b")
        manager.update("b", edit={"kind": "add-variant", "index": 1})
        assert manager.analyze("b", "skipflow")["mode"] == "warm"
        manager.close("b")
        assert shared.is_file()
        assert _requests(manager)["replayed_deltas"] == 1


class TestRebase:
    def test_a_spill_rebases_once_the_program_doubles(self, manager, twin):
        for each in (manager, twin):
            each.open("s", source=SOURCE)
            each.analyze("s", "skipflow")
        manager.evict("s")
        session = manager._sessions["s"]
        first_base = manager._programs.path_for(session.base)
        assert session.base_methods == 4
        assert _requests(manager)["spill_freezes"] == 1

        def step(classes):
            manager.update("s", source=_extended(classes))
            twin.update("s", source=_extended(classes))
            served = manager.analyze("s", "skipflow")
            assert served["mode"] == "warm"
            assert _wire(served) == _wire(twin.analyze("s", "skipflow"))
            manager.evict("s")

        step(2)                       # 6 methods: below twice the base's 4
        assert _requests(manager)["spill_freezes"] == 1
        assert len(session.log) == 1
        step(4)                       # 8 methods: the spill re-bases
        assert _requests(manager)["spill_freezes"] == 2
        assert session.base_methods == 8 and session.log == []
        assert not first_base.exists()
        replayed = _requests(manager)["replayed_deltas"]
        assert replayed == 1          # the rehydration before the re-base
        step(5)                       # rehydrates from the new base: no replay
        assert _requests(manager)["replayed_deltas"] == replayed
        step(6)                       # replays the one delta since the re-base
        assert _requests(manager)["replayed_deltas"] == replayed + 1
        assert _requests(manager)["spill_freezes"] == 2
        manager.update("s", source=_extended(6))
        assert manager.analyze("s", "skipflow")["mode"] == "cached"
        assert _signature(manager, "s") == _signature(twin, "s")
