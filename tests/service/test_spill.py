"""The daemon's spill: a base blob plus a delta log, cleaned up, timed.

A session's program is a base arena blob (a benchmark's shared blob, or
the session's own frozen program) plus the deltas applied since; a spill
writes each arena solver state as its pickled tables, and a rehydration
attaches the base, replays the log (re-extending the arena) and restores
the states over the result.  Covered here:

* the files: parking an edited benchmark session lowers nothing and writes
  no program file; a source session freezes once, at open, and writes
  that blob at its first spill only, and a rebuild freezes again and
  makes the next spill write the new base; repeated park/rehydrate
  cycles leave at most one base and one set of snapshots per session,
  ``close`` leaves none, and a missing base blob is a loud
  :class:`SessionRehydrationError`;
* the work: across park -> rehydrate -> edit -> warm resume each method
  body is digested at most once per ``Method`` object; a park pickles no
  body, and no base body is decoded across a benchmark session's life;
* the metrics: spill and rehydrate latency percentiles;
* equivalence: park/rehydrate cycles mixing ``edit`` steps and ``source``
  updates serve the fixpoint and the wire report of a twin session that
  was never evicted, and every analyze after a rehydration is warm;
* ownership: ``close`` deletes a session-owned base, never a benchmark's
  shared store blob;
* the rebase rule: a spill freezes once the program has doubled since its
  base, and later replays start from the new base;
* non-monotone edits: the thawed and re-frozen program makes the next
  spill rebase, a state from before the edit parks without its tables,
  and the rehydrated slot answers ``cold-fallback`` naming the offenders.
"""

from collections import Counter

import pytest

from repro.api import AnalysisSession
from repro.api.errors import SessionRehydrationError
from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.ir import delta as delta_module
from repro.ir.arena import ProgramArena, lowering
from repro.ir.blocks import BasicBlock
from repro.ir.method import Method
from repro.service import SessionManager
from repro.workloads.edits import EditStepSpec, build_edit_delta
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
    """Spill files: everything in the spill directory except ``besides``.

    The stored base fixpoints are left out too: like the program cache,
    they are the daemon's, shared by every session of a spec, and no
    session's spill (``TestStoredFixpointFiles`` covers them).
    """
    fixpoints = manager.spill_dir / "fixpoints"
    return sorted(path.name for path in manager.spill_dir.rglob("*")
                  if path.is_file() and path.name not in besides
                  and path.parent != fixpoints)


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
    state = slot.state
    if isinstance(state, ArenaSolverState):
        state = state.inflate()
    return fixpoint_signature(state.pvpg, state.reachable)


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


class TestArenaRehydrationChecks:
    """A parked arena state is a table of fids: rebuilt over a program whose
    base or log differs, it would read the wrong flows, so rehydration
    refuses loudly instead of answering."""

    def _park(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        _edit(manager, "s", 1)
        manager.evict("s")
        return manager._sessions["s"]

    def test_a_swapped_base_blob_is_refused(self, manager):
        parked = self._park(manager)
        # The spec's own blob, extended by an edit the log does not hold:
        # the log still replays onto it, but every fid after the base's
        # moves.
        path = manager._programs.path_for(parked.base)
        other = manager._programs.attach(parked.base)
        build_edit_delta(_spec(), EditStepSpec(kind="add-variant",
                                               index=7)).apply_to(other)
        swap = path.with_suffix(".swap")
        swap.write_bytes(other.arena.to_bytes())
        swap.replace(path)
        for _ in range(2):   # the session stays parked: every request fails
            with pytest.raises(SessionRehydrationError,
                               match="no longer rebuild"):
                manager.analyze("s", "skipflow")

    def test_a_truncated_log_is_refused(self, manager):
        parked = self._park(manager)
        parked.log.pop()
        with pytest.raises(SessionRehydrationError,
                           match="no longer rebuild"):
            manager.update("s", edit={"kind": "add-variant", "index": 2})
        assert parked.session is None


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

    def test_no_body_is_pickled_or_decoded_in_a_sessions_life(
            self, manager, monkeypatch):
        """Open, edits, park, rehydration and the finishing cold ``pta`` of
        a benchmark session: the park pickles no body, and no body of the
        attached blob is ever decoded — the kernel reads columns only."""
        decoded = []
        monkeypatch.setattr(ProgramArena, "method_blocks",
                            lambda self, mid: decoded.append(mid))
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        _edit(manager, "s", 0)
        pickled = Counter()

        def count_pickle(self, protocol):
            pickled[id(self)] += 1
            return object.__reduce_ex__(self, protocol)

        with monkeypatch.context() as patch:
            patch.setattr(BasicBlock, "__reduce_ex__", count_pickle,
                          raising=False)
            manager.evict("s")
        assert not pickled
        assert _edit(manager, "s", 1)["mode"] == "warm"   # rehydrate + replay
        finish = manager.analyze("s", "pta")
        assert finish["mode"] == "cold"
        assert decoded == []
        requests = _requests(manager)
        assert requests["rehydrations"] == 1 and requests["thaws"] == 0

    def test_states_resume_over_the_rehydrated_program(self, manager):
        """After rehydrate + edit, the slot's arena tables index the
        session's own re-extended program, and their object view holds
        that program's methods."""
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")     # cold, on the attached arena
        _edit(manager, "s", 0)
        manager.evict("s")
        _edit(manager, "s", 1)
        live = manager._sessions["s"]
        program = live.session.program
        (slot,) = live.slots.values()
        assert isinstance(slot.state, ArenaSolverState)
        assert slot.state.program is program
        graphs = slot.state.inflate().pvpg.methods
        assert "Wide_flat_64EditInject1.apply" in graphs
        for name, graph in graphs.items():
            assert graph.method is program.methods[name]


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

    def test_a_rebase_keeps_the_fids_of_parked_arena_states(self, manager,
                                                           twin):
        """After its first spill a source session is arena-backed: a cold
        ``pta`` there solves on the arena kernel, and when the program
        doubles the re-base writes the extended arena as it is, so that
        slot's parked tables still resume over the new base."""
        for each in (manager, twin):
            each.open("s", source=SOURCE)
            each.analyze("s", "skipflow")
        manager.evict("s")
        assert manager.analyze("s", "pta")["mode"] == "cold"
        twin.analyze("s", "pta")
        for classes in (2, 4, 5):     # the spill after 4 re-bases
            manager.update("s", source=_extended(classes))
            twin.update("s", source=_extended(classes))
            manager.evict("s")
            served = manager.analyze("s", "pta")
            assert served["mode"] == "warm"
            assert _wire(served) == _wire(twin.analyze("s", "pta"))
        assert _requests(manager)["spill_freezes"] == 2
        assert _requests(manager)["thaws"] == 0


class TestNonMonotoneParks:
    """A non-monotone edit thaws and re-freezes the program, so a state
    solved before indexes an arena the session no longer has.  It can never
    resume: its slot parks without it, and the next spill rebases."""

    TOUCH = {"kind": "touch-existing", "index": 0}

    def test_parking_after_a_non_monotone_edit(self, tmp_path):
        manager = SessionManager(max_live_sessions=1,
                                 spill_dir=tmp_path / "spill")
        cache = _open(manager, "s")
        manager.analyze("s", "skipflow")
        manager.update("s", edit=self.TOUCH)
        assert manager.evict("s") == {"session": "s", "evicted": True}
        parked = manager._sessions["s"]
        # The thaw dropped the shared base: the spill wrote the session's
        # own, and no tables for the stale slot.
        files = _files(manager, cache)
        assert len(files) == 1 and files[0].endswith(".arena")
        assert [record.has_state for record in parked.evicted.slots] == [False]
        assert parked.log == []
        requests = _requests(manager)
        assert requests["thaws"] == 1 and requests["spill_freezes"] == 1

        served = manager.analyze("s", "skipflow")
        assert served["mode"] == "cold-fallback"
        assert any("non-monotone" in reason and "generation 1" in reason
                   for reason in served["fallback_reasons"])
        edited = generate_benchmark(_spec())
        build_edit_delta(_spec(), EditStepSpec(**self.TOUCH)).apply_to(edited)
        cold = AnalysisSession(edited).run("skipflow")
        assert served["report"]["call_graph"] == cold.to_dict()["call_graph"]

        # The session resumes warm again from its post-barrier state.
        manager.evict("s")
        assert _edit(manager, "s", 0)["mode"] == "warm"
        assert _requests(manager)["thaws"] == 1

    def test_lru_pressure_after_a_non_monotone_edit(self, tmp_path):
        manager = SessionManager(max_live_sessions=1,
                                 spill_dir=tmp_path / "spill")
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.update("s", edit=self.TOUCH)
        # A second client's open spills the least recently used session.
        manager.open("t", source="class Main { static void main() { } }")
        assert manager.metrics_snapshot()["sessions"] == {
            "live": 1, "evicted": 1, "max_live": 1}
        assert manager.analyze("s", "skipflow")["mode"] == "cold-fallback"
        assert manager.metrics_snapshot()["sessions"]["live"] == 1
