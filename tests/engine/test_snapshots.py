"""The engine's snapshot store: keying, round-trips, crash-safety, GC.

Stored states are the arena kernel's tables over an attached program.
"""

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.core.state import SnapshotMismatchError
from repro.engine import SnapshotStore
from repro.ir.arena import freeze, open_program
from repro.workloads.edits import build_edit_delta, default_edit_script
from repro.workloads.generator import generate_benchmark, spec_from_reduction

SPEC = spec_from_reduction(name="snap-small", suite="test",
                           total_methods=70, reduction_percent=10.0)
OTHER_SPEC = spec_from_reduction(name="snap-other", suite="test",
                                 total_methods=70, reduction_percent=10.0)
CONFIG = AnalysisConfig.skipflow()


def solved_state(spec=SPEC):
    program = open_program(freeze(generate_benchmark(spec)))
    return SkipFlowAnalysis(program, CONFIG).run(), program


class TestKeying:
    def test_distinct_per_spec_and_config(self, tmp_path):
        store = SnapshotStore(tmp_path)
        keys = {
            store.key(SPEC, CONFIG),
            store.key(OTHER_SPEC, CONFIG),
            store.key(SPEC, AnalysisConfig.baseline_pta()),
            store.key(SPEC, CONFIG.with_saturation_threshold(8)),
            store.key(SPEC, CONFIG.with_saturation_policy(
                "allocated-type-reachable", 8)),
        }
        assert len(keys) == 5

    def test_edit_script_prefixes_key_distinctly(self, tmp_path):
        store = SnapshotStore(tmp_path)
        script = default_edit_script(SPEC, steps=3)
        keys = {store.key(script.prefix(count), CONFIG)
                for count in range(4)}
        assert len(keys) == 4

    def test_filenames_carry_the_code_version(self, tmp_path):
        store = SnapshotStore(tmp_path, code_version="cafe")
        assert store.path_for(SPEC, CONFIG).name.startswith("cafe-")


class TestRoundTrip:
    def test_store_load_resume(self, tmp_path):
        result, program = solved_state()
        store = SnapshotStore(tmp_path)
        store.store(SPEC, CONFIG, result.arena_state, program)
        assert store.contains(SPEC, CONFIG)

        reread = SnapshotStore(tmp_path)
        state = reread.load(SPEC, CONFIG, program)
        assert state is not None and reread.hits == 1
        before = state.counters()
        resumed = SkipFlowAnalysis(program, CONFIG, state=state).run()
        assert resumed.steps - before["steps"] == 0
        assert resumed.reachable_methods == result.reachable_methods

    def test_stored_snapshot_is_stamped(self, tmp_path):
        result, program = solved_state()
        store = SnapshotStore(tmp_path)
        store.store(SPEC, CONFIG, result.arena_state, program)
        state = store.load(SPEC, CONFIG, program)
        assert state.fingerprint is not None

    def test_resume_across_an_edit(self, tmp_path):
        result, program = solved_state()
        store = SnapshotStore(tmp_path)
        store.store(SPEC, CONFIG, result.arena_state, program)

        # Restore over a re-attached copy of the base, then extend it.
        copy = open_program(program.arena.to_bytes())
        state = store.load(SPEC, CONFIG, copy)
        script = default_edit_script(SPEC, steps=1)
        build_edit_delta(SPEC, script.steps[0]).apply_to(
            copy, require_monotone=True)
        before = state.counters()
        warm = SkipFlowAnalysis(copy, CONFIG, state=state).run()
        cold = SkipFlowAnalysis(copy, CONFIG).run()
        assert warm.reachable_methods == cold.reachable_methods
        assert warm.steps - before["steps"] < cold.steps

    def test_a_program_that_does_not_rebuild_the_arena_raises(self, tmp_path):
        """Tables over another arena would name other flows: a broken
        rebuild, not a lost cache, so the load raises (and counts a miss)."""
        result, _ = solved_state()
        store = SnapshotStore(tmp_path)
        store.store(SPEC, CONFIG, result.arena_state, result.program)
        _, other = solved_state(OTHER_SPEC)
        with pytest.raises(SnapshotMismatchError):
            store.load(SPEC, CONFIG, other)
        assert store.misses == 1 and store.hits == 0

    def test_missing_and_corrupt_blobs_are_misses(self, tmp_path):
        store = SnapshotStore(tmp_path)
        program = open_program(freeze(generate_benchmark(SPEC)))
        assert store.load(SPEC, CONFIG, program) is None
        store.path_for(SPEC, CONFIG).write_bytes(b"garbage")
        assert store.load(SPEC, CONFIG, program) is None
        assert store.misses == 2 and store.hits == 0


class TestMaintenance:
    def test_clear(self, tmp_path):
        result, program = solved_state()
        store = SnapshotStore(tmp_path)
        store.store(SPEC, CONFIG, result.arena_state, program)
        assert store.clear() == 1
        assert not store.contains(SPEC, CONFIG)
