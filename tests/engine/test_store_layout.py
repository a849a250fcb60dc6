"""The on-disk layout shared by the result, snapshot and program stores.

Every store writes ``<code_version>-<key>.<suffix>`` files into its own
directory.  These names are what lets an existing cache or spill directory
keep hitting across releases of the same code, so they are pinned byte for
byte; the gc rule and the atomic write are checked once per store.
"""

import os
import threading

import pytest

from repro.core.analysis import AnalysisConfig, SkipFlowAnalysis
from repro.engine import ProgramStore, ResultCache, SnapshotStore
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import microservices_suite

SPEC = next(spec for spec in microservices_suite(0.25)
            if spec.name == "micronaut-helloworld")
CONFIG = AnalysisConfig.skipflow()


def _write_result(directory):
    cache = ResultCache(directory, code_version="cv0")
    cache.put(cache.config_key(SPEC, CONFIG), {"value": 1})
    assert cache.get(cache.config_key(SPEC, CONFIG)) == {"value": 1}


def _write_snapshot(directory):
    program = generate_benchmark(SPEC)
    state = SkipFlowAnalysis(program, CONFIG).run().solver_state
    store = SnapshotStore(directory, code_version="cv0")
    store.store(SPEC, CONFIG, state, program)
    assert store.load(SPEC, CONFIG, program) is not None


def _write_program(directory):
    store = ProgramStore(directory, code_version="cv0")
    store.load_or_build(SPEC)
    assert store.contains(SPEC) and store.has_arena(SPEC)
    assert store.attach(SPEC) is not None


@pytest.mark.parametrize("write, names", [
    (_write_result, {"cv0-92fa7dda61cac9d26503f2754d4d507c.json"}),
    (_write_snapshot, {"cv0-c0623a6b60dcb50fb454759e330c1938.state"}),
    (_write_program, {"cv0-f42786e37bea38ed813d95290635d57b.pickle",
                      "cv0-f42786e37bea38ed813d95290635d57b.arena"}),
], ids=["result", "snapshot", "program"])
def test_file_names_are_pinned(tmp_path, write, names):
    """A write lands on exactly these names and leaves no temp file behind.

    A moved name turns every existing entry into a miss, so it must only
    ever move deliberately.
    """
    write(tmp_path)
    assert {path.name for path in tmp_path.iterdir()} == names


KEY = "0123456789abcdef0123456789abcdef"
#: The suffixes each store owns; the other stores' suffixes are foreign.
SUFFIXES = {
    ResultCache: (".json",),
    SnapshotStore: (".state",),
    ProgramStore: (".pickle", ".arena"),
}


@pytest.mark.parametrize("store_class", list(SUFFIXES),
                         ids=["result", "snapshot", "program"])
def test_gc_drops_foreign_versions_of_its_own_suffixes(tmp_path, store_class):
    store = store_class(tmp_path, code_version="aaaa")
    assert store.gc() == 0
    assert store.last_gc_bytes == 0

    own = SUFFIXES[store_class]
    kept, dropped = [], []
    for suffix in own:
        # Current-version entries, and in-flight writes of this version.
        kept += [f"aaaa-{KEY}{suffix}", f"aaaa-{KEY}{suffix}.tmp999"]
        # Other versions, their crashed writers' temp files, and
        # pre-versioning flat names: none can ever be read again.
        dropped += [f"bbbb-{KEY}{suffix}", f"bbbb-{KEY}{suffix}.tmp999",
                    f"{KEY}{suffix}"]
    others = [f"bbbb-{KEY}{suffix}" for suffixes in SUFFIXES.values()
              for suffix in suffixes if suffix not in own]
    others.append(f"bbbb-{KEY}.txt")
    for size, name in enumerate(kept + dropped + others, start=1):
        (tmp_path / name).write_bytes(b"x" * size)
    dropped_bytes = sum((tmp_path / name).stat().st_size for name in dropped)

    assert store.gc() == len(dropped)
    assert store.last_gc_bytes == dropped_bytes
    assert {path.name for path in tmp_path.iterdir()} == set(kept + others)


def test_one_target_written_by_two_threads_at_once(tmp_path, monkeypatch):
    """Concurrent writers of one target must not share a temp file.

    Two daemon requests opening the same benchmark both store its blob.
    Holding every ``os.replace`` until both writers have written their temp
    file forces the interleaving in which a shared temp name is renamed
    away under the second writer.
    """
    store = ProgramStore(tmp_path)
    target = tmp_path / "shared.arena"
    start = threading.Barrier(2, timeout=10)
    both_written = threading.Barrier(2, timeout=10)
    replace = os.replace

    def replace_when_both_written(source, destination):
        both_written.wait()
        replace(source, destination)

    monkeypatch.setattr(os, "replace", replace_when_both_written)
    errors = []

    def write(blob):
        start.wait()
        try:
            store._write_atomic(target, blob)
        except Exception as error:  # reported below, not lost in the thread
            errors.append(error)

    threads = [threading.Thread(target=write, args=(bytes([n]) * 64,))
               for n in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert errors == []
    assert target.read_bytes() in (b"\x01" * 64, b"\x02" * 64)
    assert [path.name for path in tmp_path.iterdir()] == ["shared.arena"]
