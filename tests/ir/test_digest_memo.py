"""The fingerprint memo: each body digested once, never stale.

``ProgramFingerprint.of`` memoizes a plain program's fingerprint per
revision and each body digest per ``Method`` object, and ``thaw`` seeds
both from the fingerprint stamped into the buffer.  On every freeze-golden
program, the memoized fingerprint must equal one taken from scratch after
each of the five mutation paths (``declare_class``, ``declare_field``,
``declare_method``, ``add_method``, ``add_entry_point``) and after a thaw
of the buffer or of an attached program.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro.ir.arena import freeze, open_program, thaw
from repro.ir.delta import ProgramFingerprint
from repro.ir.method import Method
from repro.ir.program import Program
from repro.ir.types import MethodSignature
from tests.ir.test_freeze_golden import golden_programs

_PROGRAMS = list(golden_programs())


def _from_scratch(program: Program) -> ProgramFingerprint:
    """The fingerprint of a memo-free program with the same content."""
    return ProgramFingerprint.of(Program(
        hierarchy=program.hierarchy, methods=dict(program.methods),
        entry_points=list(program.entry_points)))


def _mutations(program: Program) -> List[Tuple[str, Callable[[], object]]]:
    body = next(iter(program.methods.values())).blocks
    signature = MethodSignature("MemoProbe", "probe", is_static=True)
    return [
        ("declare_class", lambda: program.hierarchy.declare_class("MemoProbe")),
        ("declare_field", lambda: program.hierarchy.get(
            "MemoProbe").declare_field("counter", "int")),
        ("declare_method", lambda: program.hierarchy.get(
            "MemoProbe").declare_method(MethodSignature(
                "MemoProbe", "declared", is_static=True))),
        ("add_method", lambda: program.add_method(
            Method(signature=signature, blocks=body))),
        ("add_entry_point", lambda: program.add_entry_point("MemoProbe.probe")),
    ]


@pytest.mark.parametrize("key,build", _PROGRAMS,
                         ids=[key for key, _ in _PROGRAMS])
def test_memoized_fingerprint_matches_a_fresh_one(key, build):
    program = build()
    fingerprint = ProgramFingerprint.of(program)
    assert fingerprint == _from_scratch(program)
    assert ProgramFingerprint.of(program) is fingerprint  # memoized

    frozen = freeze(program)
    attached = open_program(frozen)
    next(iter(attached.methods.values())).blocks  # decode one body
    for thawed in (thaw(frozen), thaw(attached)):
        assert ProgramFingerprint.of(thawed) == _from_scratch(thawed) == fingerprint
        for name, mutate in _mutations(thawed):
            mutate()
            assert ProgramFingerprint.of(thawed) == _from_scratch(thawed), (
                f"stale fingerprint after {name}")
        assert ProgramFingerprint.of(thawed) != fingerprint
