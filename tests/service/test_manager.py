"""SessionManager: lifecycle, coalescing, eviction, and concurrency.

The manager is the embeddable core of the service layer; these tests
drive it directly (no HTTP) and cover the four service-only behaviors:
per-session locking under concurrent clients, delta coalescing, LRU
eviction with transparent rehydration (preserving warm-resume step
counts *and* the fixpoint), and the structured metrics.
"""

import threading

import pytest

from repro.api.errors import (
    ServiceProtocolError,
    SessionExistsError,
    SessionNotFoundError,
)
from repro.ir.delta import NonMonotoneDeltaError
from repro.service import SessionManager

BENCHMARK = "wide-flat-64"

SOURCE_V1 = """
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

# A monotone extension of SOURCE_V1: one new subclass plus a driver.
SOURCE_V2 = SOURCE_V1 + """
class LoudGreeter extends Greeter {
    int greet() { return 2; }
}
class Patch {
    static void apply() {
        LoudGreeter greeter = new LoudGreeter();
        greeter.greet();
    }
}
"""

# Non-monotone relative to SOURCE_V1: Greeter.greet changes its body.
SOURCE_EDITED_BODY = SOURCE_V1.replace("return 1", "return 42")


@pytest.fixture
def manager(tmp_path):
    return SessionManager(max_live_sessions=4, spill_dir=tmp_path / "spill")


class TestLifecycle:
    def test_open_analyze_modes(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        cold = manager.analyze("s", "skipflow")
        assert cold["mode"] == "cold"
        assert cold["steps_paid"] > 0
        assert cold["report"]["schema_version"] == 1

        cached = manager.analyze("s", "skipflow")
        assert cached["mode"] == "cached"
        assert cached["steps_paid"] == 0
        assert cached["report"] == cold["report"]

    def test_updates_coalesce_into_one_warm_solve(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        cold = manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        manager.update("s", edit={"kind": "add-dispatch", "index": 1})
        warm = manager.analyze("s", "skipflow")
        assert warm["mode"] == "warm"
        assert warm["coalesced_updates"] == 2
        assert 0 < warm["steps_paid"] < cold["steps_paid"]
        assert warm["generation"] == 2

    def test_non_monotone_edit_falls_back_cold_with_reason(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "touch-existing", "index": 0})
        result = manager.analyze("s", "skipflow")
        assert result["mode"] == "cold-fallback"
        assert "non-monotone" in result["fallback_reasons"][0]

    def test_source_update_is_diffed_into_a_delta(self, manager):
        manager.open("s", source=SOURCE_V1)
        before = manager.analyze("s", "skipflow")
        update = manager.update("s", source=SOURCE_V2)
        assert update["queued"] == 1 and not update["rebuilt"]
        after = manager.analyze("s", "skipflow")
        assert after["mode"] == "warm"
        assert after["generation"] == 1
        # LoudGreeter.greet is not rooted, so reachability is unchanged --
        # but the hierarchy grew, which is exactly what the delta carries.
        assert (after["report"]["metrics"]["reachable_methods"]
                == before["report"]["metrics"]["reachable_methods"])

    def test_non_monotone_source_update_raises_unless_rebuild(self, manager):
        manager.open("s", source=SOURCE_V1)
        manager.analyze("s", "skipflow")
        with pytest.raises(NonMonotoneDeltaError):
            manager.update("s", source=SOURCE_EDITED_BODY)
        result = manager.update("s", source=SOURCE_EDITED_BODY,
                                allow_rebuild=True)
        assert result["rebuilt"]
        # The rebuild dropped every slot: the next analyze is cold.
        assert manager.analyze("s", "skipflow")["mode"] == "cold"

    def test_noop_source_update_queues_nothing(self, manager):
        manager.open("s", source=SOURCE_V1)
        update = manager.update("s", source=SOURCE_V1)
        assert update["noop"] and update["queued"] == 0

    def test_close_forgets_the_session(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.close("s")
        with pytest.raises(SessionNotFoundError):
            manager.analyze("s", "skipflow")

    def test_call_graph_analyzers_are_served_and_cached(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        first = manager.analyze("s", "cha")
        assert first["mode"] == "cold" and first["steps_paid"] == 0
        assert manager.analyze("s", "cha")["mode"] == "cached"


class TestProtocolErrors:
    def test_unknown_session(self, manager):
        with pytest.raises(SessionNotFoundError):
            manager.update("ghost", edit={"kind": "add-variant", "index": 0})

    def test_duplicate_open_needs_replace(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        with pytest.raises(SessionExistsError):
            manager.open("s", benchmark=BENCHMARK)
        manager.open("s", benchmark=BENCHMARK, replace=True)

    def test_open_needs_exactly_one_program_source(self, manager):
        with pytest.raises(ServiceProtocolError):
            manager.open("s")
        with pytest.raises(ServiceProtocolError):
            manager.open("s", source=SOURCE_V1, benchmark=BENCHMARK)

    def test_unknown_benchmark(self, manager):
        with pytest.raises(ServiceProtocolError):
            manager.open("s", benchmark="no-such-spec")

    def test_edit_updates_need_a_benchmark_session(self, manager):
        manager.open("s", source=SOURCE_V1)
        with pytest.raises(ServiceProtocolError):
            manager.update("s", edit={"kind": "add-variant", "index": 0})

    def test_bad_edit_step_is_a_protocol_error(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        with pytest.raises(ServiceProtocolError):
            manager.update("s", edit={"kind": "no-such-kind", "index": 0})
        with pytest.raises(ServiceProtocolError):
            manager.update("s", edit={"kind": "add-variant", "surprise": 1})

    def test_wire_options_are_whitelisted(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        with pytest.raises(ServiceProtocolError):
            manager.analyze("s", "skipflow", options={"policy": "x"})
        result = manager.analyze("s", "skipflow",
                                 options={"saturation_threshold": 8})
        assert result["mode"] == "cold"


class TestEviction:
    def test_lru_eviction_kicks_in_over_the_limit(self, tmp_path):
        manager = SessionManager(max_live_sessions=1,
                                 spill_dir=tmp_path / "spill")
        manager.open("first", benchmark=BENCHMARK)
        manager.analyze("first", "skipflow")
        manager.open("second", source=SOURCE_V1)
        described = {info["session"]: info for info in manager.sessions()}
        assert not described["first"]["live"]
        assert described["second"]["live"]
        assert manager.metrics_snapshot()["requests"]["evictions"] == 1

    def test_rehydration_preserves_warm_resume_step_counts(self, tmp_path):
        """The eviction round trip must not cost any warm-resume steps.

        Two managers run the identical open / cold / edit / warm sequence;
        one is evicted to disk (and transparently rehydrated) between the
        edit and the warm analyze.  The warm step count and the served
        fixpoint must be identical.
        """
        plain = SessionManager(spill_dir=tmp_path / "plain")
        spilled = SessionManager(spill_dir=tmp_path / "spilled")
        for manager in (plain, spilled):
            manager.open("s", benchmark=BENCHMARK)
            manager.analyze("s", "skipflow")
            manager.update("s", edit={"kind": "add-variant", "index": 0})
        evicted = spilled.evict("s")
        assert evicted["evicted"]

        reference = plain.analyze("s", "skipflow")
        rehydrated = spilled.analyze("s", "skipflow")
        assert rehydrated["mode"] == "warm"
        assert rehydrated["steps_paid"] == reference["steps_paid"]
        assert (rehydrated["report"]["call_graph"]
                == reference["report"]["call_graph"])
        counters = spilled.metrics_snapshot()["requests"]
        assert counters["rehydrations"] == 1
        assert counters["rehydration_state_misses"] == 0

    def test_lost_snapshot_rehydrates_cold(self, tmp_path):
        """A spilled state that no longer decodes costs warmth, never
        correctness: the next analyze runs cold and serves the same call
        graph as a manager that was never evicted."""
        plain = SessionManager(spill_dir=tmp_path / "plain")
        spilled = SessionManager(spill_dir=tmp_path / "spilled")
        for manager in (plain, spilled):
            manager.open("s", benchmark=BENCHMARK)
            manager.analyze("s", "skipflow")
            manager.update("s", edit={"kind": "add-variant", "index": 0})
        assert spilled.evict("s")["evicted"]
        snapshots = sorted((tmp_path / "spilled" / "snapshots").glob("*.state"))
        assert len(snapshots) == 1
        snapshots[0].write_bytes(b"not a solver state")

        reference = plain.analyze("s", "skipflow")
        assert reference["mode"] == "warm"
        recovered = spilled.analyze("s", "skipflow")
        assert recovered["mode"] == "cold"
        assert (recovered["report"]["call_graph"]
                == reference["report"]["call_graph"])
        counters = spilled.metrics_snapshot()["requests"]
        assert counters["rehydrations"] == 1
        assert counters["rehydration_state_misses"] == 1

    def test_rehydrated_fixpoint_equals_a_cold_solve(self, tmp_path):
        """Evict + rehydrate + warm solve == cold solve of the same program."""
        spilled = SessionManager(spill_dir=tmp_path / "spilled")
        cold = SessionManager(spill_dir=tmp_path / "cold")
        for manager in (spilled, cold):
            manager.open("s", benchmark=BENCHMARK)
        spilled.analyze("s", "skipflow")
        spilled.update("s", edit={"kind": "add-dispatch", "index": 0})
        spilled.evict("s")
        warm = spilled.analyze("s", "skipflow")
        assert warm["mode"] == "warm"

        cold.update("s", edit={"kind": "add-dispatch", "index": 0})
        reference = cold.analyze("s", "skipflow")
        assert reference["mode"] == "cold"
        assert warm["report"]["call_graph"] == reference["report"]["call_graph"]

    def test_warm_barrier_survives_the_round_trip(self, tmp_path):
        manager = SessionManager(spill_dir=tmp_path / "spill")
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "touch-existing", "index": 0})
        manager.analyze("s", "skipflow")  # moves past the barrier, cold
        manager.evict("s")
        info = manager.describe("s")
        assert info["warm_barrier"] == 1
        # After rehydration the post-barrier state resumes warm again.
        manager.update("s", edit={"kind": "add-variant", "index": 1})
        assert manager.analyze("s", "skipflow")["mode"] == "warm"


class TestConcurrency:
    def test_parallel_clients_on_distinct_sessions(self, manager):
        names = [f"s{i}" for i in range(4)]
        for name in names:
            manager.open(name, benchmark=BENCHMARK)
        results, errors = {}, []

        def run(name):
            try:
                results[name] = manager.analyze(name, "skipflow")
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # The sessions share one base: whichever solves first stores its
        # fixpoint, and one that finds it stored resumes it instead.
        modes = {results[name]["mode"] for name in names}
        assert "cold" in modes and modes <= {"cold", "stored"}, modes
        graphs = {frozenset(results[name]["report"]["call_graph"]
                            ["reachable_methods"]) for name in names}
        assert len(graphs) == 1  # identical program, identical fixpoint

    def test_interleaved_update_and_analyze_on_one_session(self, manager):
        """Updates and analyzes racing on one session stay consistent."""
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        rounds, errors, analyses = 6, [], []

        def editor():
            try:
                for index in range(rounds):
                    manager.update(
                        "s", edit={"kind": "add-variant", "index": index})
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def analyst():
            try:
                for _ in range(rounds):
                    analyses.append(manager.analyze("s", "skipflow"))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=editor),
                   threading.Thread(target=analyst)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every update lands exactly once: the final generation is the
        # number of updates, whatever interleaving the race produced.
        final = manager.analyze("s", "skipflow")
        assert final["generation"] == rounds
        assert all(result["mode"] in ("warm", "cached", "cold-fallback")
                   for result in analyses)
        # And the served fixpoint equals a cold solve of the final program.
        cold = SessionManager()
        cold.open("s", benchmark=BENCHMARK)
        for index in range(rounds):
            cold.update("s", edit={"kind": "add-variant", "index": index})
        reference = cold.analyze("s", "skipflow")
        assert (final["report"]["call_graph"]
                == reference["report"]["call_graph"])


class TestMetrics:
    def test_snapshot_counts_modes_and_latency(self, manager):
        manager.open("s", benchmark=BENCHMARK)
        manager.analyze("s", "skipflow")
        manager.update("s", edit={"kind": "add-variant", "index": 0})
        manager.analyze("s", "skipflow")
        manager.analyze("s", "skipflow")
        snapshot = manager.metrics_snapshot()
        assert snapshot["analyze_modes"] == {
            "cached": 1, "warm": 1, "stored": 0, "cold": 1,
            "cold-fallback": 0}
        assert snapshot["warm_resume_ratio"] == 0.5
        assert snapshot["warm_steps_paid"] < snapshot["cold_steps_paid"]
        assert snapshot["analyze_latency_ms"]["count"] == 3
        assert snapshot["analyze_latency_ms"]["p95"] >= \
            snapshot["analyze_latency_ms"]["p50"] >= 0
        assert snapshot["sessions"] == {
            "live": 1, "evicted": 0, "max_live": 4}


class TestSpillDirectoryCollection:
    """A reused spill directory drops other code versions' files at start."""

    STORES = {"programs": (".arena", ".pickle"), "snapshots": (".state",),
              "fixpoints": (".state",)}

    def test_other_versions_are_collected_and_this_one_kept(self, tmp_path):
        from repro.engine.cache import compute_code_version

        current = compute_code_version()
        spill = tmp_path / "spill"
        stale, kept = [], []
        for directory, suffixes in self.STORES.items():
            (spill / directory).mkdir(parents=True)
            for suffix in suffixes:
                for name in (f"0ld{current[:6]}-key{suffix}",
                             f"0ld{current[:6]}-key{suffix}.tmp1-2"):
                    stale.append(spill / directory / name)
                kept.append(spill / directory / f"{current}-key{suffix}")
            kept.append(spill / directory / "notes.txt")
        for path in stale + kept:
            path.write_bytes(b"x")

        manager = SessionManager(spill_dir=spill)
        assert [path for path in stale if path.exists()] == []
        assert all(path.exists() for path in kept)
        manager.open("s", source=SOURCE_V1)
        assert manager.analyze("s", "skipflow")["mode"] == "cold"
