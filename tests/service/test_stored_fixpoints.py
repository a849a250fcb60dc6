"""Stored base fixpoints: a first solve on a known base resumes its tables.

A session on a benchmark's shared blob does not solve a config cold when
the daemon already solved it on that blob: the manager loads the base's
stored tables (keyed by blob, config and roots) and resumes them over the
session's delta log.  Covered here:

* identity: over every ``daemon-edit`` spec, ``skipflow``, ``pta`` and
  ``skipflow`` saturated at ``allocated-type-reachable@4``, and logs of 0-4
  edit steps, the stored path (computing the table, then loading it)
  serves the fixpoint, reachable methods and call edges of a cold solve;
* the modes: ``cold`` while the table is written, ``stored`` (paying the
  resume's steps only) once it is loaded, ``cold-fallback`` naming the
  reason when a stored table is refused, after which it is rewritten;
* refusals: a table of another blob version, another config or other
  roots, an unreadable one and a foreign version are never resumed;
* the rest of a slot's life: a stored slot audits clean, parks and
  rehydrates warm, and ``close`` keeps the table;
* who takes the path: source sessions keep solving cold and write no table;
* concurrency: sessions racing on one base never read a torn table.
"""

import pickle
import sys
import threading

import pytest

from repro.api.registry import get_analyzer
from repro.core.analysis import SkipFlowAnalysis
from repro.core.kernel.arena_kernel import ARENA_SNAPSHOT_VERSION
from repro.engine.program_store import ProgramStore
from repro.service import SessionManager
from repro.workloads.edits import (
    MONOTONE_EDIT_KINDS,
    EditStepSpec,
    build_edit_delta,
)
from repro.workloads.suites import microservices_suite, wide_hierarchy_suite
from tests.conftest import fixpoint_signature

#: The ``daemon-edit`` pool: Microservices at this scale plus three wide specs.
SCALE = 0.25
WIDE = ("wide-flat-64", "wide-mid-144", "composed-duo-112")
SPECS = tuple([spec.name for spec in microservices_suite(SCALE)]
              + [spec.name for spec in wide_hierarchy_suite()
                 if spec.name in WIDE])

#: The analyses ``daemon-edit`` runs, plus a saturated one.
ANALYSES = (
    ("skipflow", {}),
    ("pta", {}),
    ("skipflow", {"saturation_policy": "allocated-type-reachable",
                  "saturation_threshold": 4}),
)

BENCHMARK = "wide-flat-64"

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


def _steps(count):
    """The first ``count`` steps of the ``daemon-edit`` edit script."""
    return [{"kind": MONOTONE_EDIT_KINDS[index % len(MONOTONE_EDIT_KINDS)],
             "index": index} for index in range(count)]


def _open(manager, name, spec=BENCHMARK, edits=0):
    manager.open(name, benchmark=spec, scale=SCALE)
    for step in _steps(edits):
        manager.update(name, edit=step)


def _state(manager, name):
    (slot,) = manager._sessions[name].slots.values()
    return slot.state


def _cold_reference(manager, spec_name, edits, analysis, options):
    """A cold solve of the blob plus ``edits`` steps, outside the manager."""
    spec = manager._find_benchmark(spec_name, SCALE)
    program = ProgramStore(manager.spill_dir / "programs").attach(spec)
    for step in _steps(edits):
        build_edit_delta(spec, EditStepSpec(**step)).apply_to(
            program, require_monotone=True)
    config = get_analyzer(analysis).config(**options)
    return SkipFlowAnalysis(program, config).run()


def _signature(state):
    """:func:`fixpoint_signature` of arena tables (through their inflation)."""
    inflated = state.inflate()
    return fixpoint_signature(inflated.pvpg, inflated.reachable)


def _table(manager):
    """The one stored fixpoint file."""
    (path,) = (manager.spill_dir / "fixpoints").glob("*.state")
    return path


@pytest.fixture
def manager(tmp_path):
    return SessionManager(max_live_sessions=8, spill_dir=tmp_path / "spill")


@pytest.mark.parametrize("spec_name", SPECS)
def test_stored_path_serves_the_cold_fixpoint(tmp_path, spec_name):
    manager = SessionManager(max_live_sessions=64,
                             spill_dir=tmp_path / "spill")
    for label, (analysis, options) in enumerate(ANALYSES):
        for edits in range(5):
            name = f"{label}-{edits}"
            _open(manager, name, spec_name, edits)
            served = manager.analyze(name, analysis, options)
            assert served["mode"] == ("cold" if edits == 0 else "stored")
            cold = _cold_reference(manager, spec_name, edits, analysis,
                                   options)
            state = _state(manager, name)
            assert _signature(state) == _signature(cold.arena_state), name
            assert state.reachable == cold.reachable_methods
            graph = served["report"]["call_graph"]
            assert set(graph["reachable_methods"]) == cold.reachable_methods
            assert (sorted(map(tuple, graph["call_edges"]))
                    == sorted(cold.call_edges()))
            manager.close(name)
    requests = manager.metrics_snapshot()["requests"]
    assert requests["stored_tables_written"] == len(ANALYSES)
    assert requests["stored_table_refusals"] == 0


class TestModes:
    def test_open_writes_the_table_and_the_next_open_loads_it(self,
                                                               manager):
        _open(manager, "first")
        cold = manager.analyze("first", "skipflow")
        assert cold["mode"] == "cold" and cold["steps_paid"] > 0
        manager.close("first")
        _open(manager, "second")
        stored = manager.analyze("second", "skipflow")
        assert stored["mode"] == "stored"
        assert stored["steps_paid"] == 0
        assert stored["fallback_reasons"] == []
        assert (stored["report"]["call_graph"]
                == cold["report"]["call_graph"])
        snapshot = manager.metrics_snapshot()
        assert snapshot["analyze_modes"]["stored"] == 1
        assert snapshot["requests"]["stored_tables_written"] == 1
        assert snapshot["stored_steps_paid"] == 0
        # A stored solve is a solve, and not a warm resume.
        assert snapshot["warm_resume_ratio"] == 0.0

    def test_a_stored_table_resumes_over_the_log(self, manager):
        _open(manager, "first")
        manager.analyze("first", "pta")
        _open(manager, "edited", edits=4)
        stored = manager.analyze("edited", "pta")
        assert stored["mode"] == "stored"
        _open(manager, "cold", edits=4)
        manager._fixpoints.clear()
        cold = manager.analyze("cold", "pta")
        assert cold["mode"] == "cold"
        # The cold request paid the base's solve and the same resume.
        assert 0 < stored["steps_paid"] < cold["steps_paid"]
        assert (stored["report"]["call_graph"]
                == cold["report"]["call_graph"])

    def test_close_keeps_the_table(self, manager):
        _open(manager, "s")
        manager.analyze("s", "skipflow")
        table = _table(manager)
        manager.close("s")
        assert table.is_file()

    def test_source_sessions_keep_solving_cold(self, manager):
        for name in ("a", "b"):
            manager.open(name, source=SOURCE)
            assert manager.analyze(name, "skipflow")["mode"] == "cold"
        assert manager.metrics_snapshot()["requests"][
            "stored_tables_written"] == 0
        assert not list((manager.spill_dir / "fixpoints").glob("*"))

    def test_a_thawed_session_keeps_solving_cold(self, manager):
        _open(manager, "first")
        manager.analyze("first", "skipflow")
        _open(manager, "touched")
        manager.update("touched", edit={"kind": "touch-existing", "index": 0})
        assert manager.analyze("touched", "skipflow")["mode"] == "cold"
        assert manager.metrics_snapshot()["requests"]["thaws"] == 1


class TestRefusals:
    """A stored table that cannot serve is refused, named and rewritten."""

    def _refused(self, manager, planted, match, analysis="skipflow",
                 options=None):
        path = _table(manager)
        path.write_bytes(planted)
        _open(manager, "next")
        refused = manager.analyze("next", analysis, options)
        assert refused["mode"] == "cold-fallback"
        (reason,) = refused["fallback_reasons"]
        assert "stored fixpoint" in reason and match in reason, reason
        assert manager.metrics_snapshot()["requests"][
            "stored_table_refusals"] == 1
        # The refused table was rewritten: the next session loads it.
        _open(manager, "after")
        again = manager.analyze("after", analysis, options)
        assert again["mode"] == "stored"
        assert (refused["report"]["call_graph"]
                == again["report"]["call_graph"])
        return refused

    def _first(self, manager, analysis="skipflow", options=None):
        _open(manager, "first")
        manager.analyze("first", analysis, options)
        return _table(manager).read_bytes()

    def test_a_table_of_another_blob_version(self, manager, tmp_path):
        """Tables stamped over another version of the blob: here, the
        blob with one edit step frozen in."""
        self._first(manager)
        other = SessionManager(spill_dir=tmp_path / "other")
        _open(other, "s", edits=1)
        other.analyze("s", "skipflow")
        program = other._sessions["s"].session.program
        planted = _state(other, "s").to_bytes(program)
        self._refused(manager, planted, "does not match this program")

    def test_a_table_of_another_spec(self, manager, tmp_path):
        self._first(manager)
        other = SessionManager(spill_dir=tmp_path / "other")
        _open(other, "s", spec="wide-mid-144")
        other.analyze("s", "skipflow")
        self._refused(manager, _table(other).read_bytes(),
                      "does not match this program")

    def test_a_table_of_another_config(self, manager):
        planted = self._first(manager, "pta")
        manager._fixpoints.clear()
        _open(manager, "skipflow")
        manager.analyze("skipflow", "skipflow")
        self._refused(manager, planted, "configuration 'PTA'")

    def test_a_table_of_other_roots(self, manager, tmp_path):
        """A table seeded from other roots is never resumed, even when it
        is found under this key."""
        self._first(manager)
        spec = manager._find_benchmark(BENCHMARK, SCALE)
        program = ProgramStore(tmp_path / "other").attach_or_build(spec)[0]
        assert program.entry_points == ["Main.main"]
        roots = ["Main.main", next(name for name in program.methods
                                   if name != "Main.main")]
        config = get_analyzer("skipflow").config()
        state = SkipFlowAnalysis(program, config).run(roots).arena_state
        assert len(state.seeded_roots) == 2
        self._refused(manager, state.to_bytes(program), "seeded from roots")

    def test_roots_are_part_of_the_key(self, manager):
        _open(manager, "first")
        manager.analyze("first", "skipflow")
        spec = manager._find_benchmark(BENCHMARK, SCALE)
        methods = manager._programs.attach(spec).methods
        extra = next(name for name in methods if name != "Main.main")
        manager.open("rooted", benchmark=BENCHMARK, scale=SCALE,
                     roots=["Main.main", extra])
        assert manager.analyze("rooted", "skipflow")["mode"] == "cold"
        assert len(list((manager.spill_dir / "fixpoints").glob("*"))) == 2

    def test_an_unreadable_table(self, manager):
        self._first(manager)
        self._refused(manager, b"not a table", "unreadable")

    def test_a_foreign_table_version(self, manager):
        payload = pickle.loads(self._first(manager))
        payload["snapshot_version"] = ARENA_SNAPSHOT_VERSION + 1
        self._refused(manager, pickle.dumps(payload), "snapshot version")


class TestStoredSlots:
    def _stored(self, manager, name):
        _open(manager, "first")
        manager.analyze("first", "skipflow")
        manager.close("first")
        _open(manager, name)

    def test_audit_on_a_stored_slot_is_clean(self, manager):
        self._stored(manager, "s")
        served = manager.analyze("s", "skipflow", audit=True)
        assert served["mode"] == "stored"
        assert served["audit"]["diagnostics"] == []

    def test_a_stored_slot_parks_and_rehydrates_warm(self, manager,
                                                     tmp_path):
        self._stored(manager, "s")
        assert manager.analyze("s", "skipflow")["mode"] == "stored"
        manager.update("s", edit=_steps(1)[0])
        assert manager.evict("s")["evicted"]
        manager.update("s", edit=_steps(2)[1])
        warm = manager.analyze("s", "skipflow")
        assert warm["mode"] == "warm"
        assert manager.metrics_snapshot()["requests"]["rehydrations"] == 1

        reference = SessionManager(spill_dir=tmp_path / "reference")
        _open(reference, "s", edits=2)
        cold = reference.analyze("s", "skipflow")
        assert cold["mode"] == "cold"
        assert warm["report"]["call_graph"] == cold["report"]["call_graph"]
        assert _signature(_state(manager, "s")) == _signature(
            _state(reference, "s"))


def test_sessions_racing_on_one_base_never_read_a_torn_table(tmp_path):
    """More clients than cores open one base and solve it at once, with a
    short switch interval: every one is served the same fixpoint, ``cold``
    (it wrote the table) or ``stored`` (it read one), and no table read is
    ever refused, which a half-written table would be."""
    manager = SessionManager(max_live_sessions=16,
                             spill_dir=tmp_path / "spill")
    names = [f"s{index}" for index in range(6)]
    for name in names:
        _open(manager, name, edits=int(name[1:]) % 3)
    results, errors = {}, []

    def run(name):
        try:
            results[name] = manager.analyze(name, "pta")
        except BaseException as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(name,))
                   for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    modes = {results[name]["mode"] for name in names}
    assert "cold" in modes and modes <= {"cold", "stored"}, modes
    requests = manager.metrics_snapshot()["requests"]
    assert requests["stored_table_refusals"] == 0
    for name in names:
        edits = int(name[1:]) % 3
        cold = _cold_reference(manager, BENCHMARK, edits, "pta", {})
        graph = results[name]["report"]["call_graph"]
        assert set(graph["reachable_methods"]) == cold.reachable_methods
