"""Flat shared-memory program arena (struct-of-arrays IR encoding).

``lower(program)`` lowers a built program into integer-id columns in
memory, and ``serialize`` writes a lowering as one contiguous buffer;
``freeze(program)`` is the two in one.  ``open_program(buffer)`` attaches a
buffer (zero-copy, lazy bodies) as a read-only
:class:`~repro.ir.arena.program.ArenaProgram`; ``lowered_program(program)``
is the same façade over the program's memoized in-memory lowering;
``thaw(buffer)`` decodes a buffer back into a plain mutable Program.  See
``docs/architecture.md`` (Arena section) for the layout and id schema.
"""

from repro.ir.arena.lowering import (
    LoweredArena,
    freeze,
    lower,
    lowered_program,
    serialize,
)
from repro.ir.arena.layout import ARENA_VERSION, ArenaFormatError, BufferLike
from repro.ir.arena.program import (
    ArenaMethod,
    ArenaProgram,
    LazyMethodMap,
    ProgramArena,
    open_program,
    thaw,
)

__all__ = [
    "ARENA_VERSION",
    "ArenaFormatError",
    "ArenaMethod",
    "ArenaProgram",
    "BufferLike",
    "LazyMethodMap",
    "LoweredArena",
    "ProgramArena",
    "freeze",
    "lower",
    "lowered_program",
    "open_program",
    "serialize",
    "thaw",
]
