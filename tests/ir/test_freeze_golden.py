"""Golden freeze digests: ``freeze`` output pinned byte for byte.

``freeze_golden.json`` holds the sha256 of ``freeze(program)`` for every
spec of ``all_suites(0.5)`` plus ``wide_hierarchy_suite()`` (the programs
the ``matrix-store`` benchmark fills its store with) and for every program
a ``tests/fuzz/corpus`` script passes through: its base program and the
program after each of its edits.  A changed digest means the arena buffer
changed, which the program store, the arena kernel and daemon
spill/rehydrate all read, so any change must be deliberate.  A few
programs pin IR shapes the generated ones lack: ``examples/app.java``
compiled by :mod:`repro.lang` (the frontend's explicit phis) and the
hand-written programs of ``tests/conftest.py`` (the virtual-thread
example, and a merge without explicit phis that takes the lazy-phi
paths).  ``freeze`` is
``serialize(lower(program))``; every golden program also pins that identity
and that the in-memory columns of ``lower`` equal an attached freeze's.

Each program is built with :class:`~repro.ir.values.Value` uids restarted
from zero: the pickled method bodies carry those uids, which otherwise
count every value the process created before.  The pickles also depend on
the interpreter (Python 3.11 pickles enum members by name, 3.10 and 3.12
by value), so the digests are compared only on the Python version that
recorded them and skipped elsewhere.

The buffer must not depend on set or dict iteration order either.  That
check needs no stored digests: print them under two hash seeds and
compare, as CI does::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/ir/test_freeze_golden.py --print > d0
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/ir/test_freeze_golden.py --print > d1
    diff d0 d1

Regenerate after filing or removing a ``tests/fuzz/corpus`` case (the
set of pinned programs changed), or for a deliberate format change with
``ARENA_VERSION`` bumped, on the Python version the file records::

    PYTHONPATH=src python tests/ir/test_freeze_golden.py --update
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import pytest

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.fuzz.reprofile import load_repro
from repro.ir import values
from repro.ir.arena import ProgramArena, freeze, lower, serialize
from repro.ir.program import Program
from repro.lang import compile_source
from repro.workloads.edits import build_edit_delta
from repro.workloads.generator import generate_benchmark
from repro.workloads.suites import all_suites, wide_hierarchy_suite
from tests.conftest import (
    build_no_phi_merge_program,
    build_virtual_threads_program,
)

GOLDEN_PATH = Path(__file__).with_name("freeze_golden.json")
CORPUS_DIR = Path(__file__).parent.parent / "fuzz" / "corpus"
APP_JAVA = Path(__file__).parents[2] / "examples" / "app.java"
SCALE = 0.5


def _corpus_program(path: Path, steps: int) -> Program:
    script, _ = load_repro(path)
    program = generate_benchmark(script.base)
    for step in script.steps[:steps]:
        build_edit_delta(script.base, step).apply_to(program)
    return program


def golden_programs() -> Iterator[Tuple[str, Callable[[], Program]]]:
    """``(key, build)`` for every program whose freeze digest is pinned."""
    for suite, specs in all_suites(SCALE).items():
        for spec in specs:
            yield f"{suite}/{spec.name}", (
                lambda spec=spec: generate_benchmark(spec))
    for spec in wide_hierarchy_suite():
        yield f"{spec.suite}/{spec.name}", (
            lambda spec=spec: generate_benchmark(spec))
    for path in sorted(CORPUS_DIR.glob("*.json")):
        script, _ = load_repro(path)
        for steps in range(len(script.steps) + 1):
            yield f"corpus/{path.stem}@{steps}", (
                lambda path=path, steps=steps: _corpus_program(path, steps))
    yield "lang/examples-app", (
        lambda: compile_source(APP_JAVA.read_text()))
    yield "ir/virtual-threads", build_virtual_threads_program
    yield "ir/virtual-threads-used", (
        lambda: build_virtual_threads_program(use_virtual_threads=True))
    yield "ir/no-phi-merge", build_no_phi_merge_program


def freeze_digest(program: Program) -> str:
    return hashlib.sha256(freeze(program)).hexdigest()


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


_PROGRAMS = list(golden_programs())


UPDATE_COMMAND = "PYTHONPATH=src python tests/ir/test_freeze_golden.py --update"


def test_golden_covers_every_program():
    """Filing or removing a ``tests/fuzz/corpus`` case changes the golden
    program set; the failure says which keys and how to regenerate."""
    recorded = sorted(_load_golden()["digests"])
    expected = sorted(key for key, _ in _PROGRAMS)
    missing = sorted(set(expected) - set(recorded))
    extra = sorted(set(recorded) - set(expected))
    assert recorded == expected, (
        f"{GOLDEN_PATH.name} does not cover the golden programs: missing "
        f"{missing or 'none'}, extra {extra or 'none'}.  A new or removed "
        f"corpus case changes the set; regenerate the digests on Python "
        f"{_load_golden()['python']} with `{UPDATE_COMMAND}`")


@pytest.mark.parametrize("key,build", _PROGRAMS,
                         ids=[key for key, _ in _PROGRAMS])
def test_freeze_matches_golden_digest(key, build, monkeypatch):
    golden = _load_golden()
    if golden["python"] != _python():
        pytest.skip(f"digests were recorded on Python {golden['python']}; "
                    f"pickled method bodies differ on {_python()}")
    monkeypatch.setattr(values, "_value_counter", itertools.count())
    assert freeze_digest(build()) == golden["digests"][key], (
        f"freeze output for {key} changed")


@pytest.mark.parametrize("key,build", _PROGRAMS,
                         ids=[key for key, _ in _PROGRAMS])
def test_freeze_is_the_serialized_lowering(key, build):
    """``freeze == serialize . lower``, and the in-memory columns and
    strings of a lowering are exactly those an attach of its freeze reads."""
    program = build()
    lowered = lower(program)
    frozen = freeze(program)
    assert serialize(lowered) == frozen
    attached = ProgramArena(frozen)
    assert {name: getattr(attached, name).tolist()
            for name in lowered.columns} == lowered.columns
    assert [attached.string(sid) for sid in range(len(lowered.strings))] == (
        lowered.strings)
    assert len(attached.str_offsets) == len(lowered.strings) + 1


def _digests() -> Dict[str, str]:
    digests = {}
    for key, build in _PROGRAMS:
        values._value_counter = itertools.count()
        digests[key] = freeze_digest(build())
    return digests


if __name__ == "__main__":
    if sys.argv[1:] == ["--update"]:
        digests = _digests()
        GOLDEN_PATH.write_text(json.dumps(
            {"python": _python(), "scale": SCALE, "digests": digests},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    elif sys.argv[1:] == ["--print"]:
        for key, digest in _digests().items():
            print(key, digest)
    else:
        sys.exit("usage: test_freeze_golden.py --update | --print")
