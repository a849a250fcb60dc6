"""Shared read-only store of built benchmark IR.

Generating a benchmark program from its :class:`~repro.workloads.generator.
BenchmarkSpec` is deterministic but not free: every worker process used to
rebuild (and re-lower) the same IR from scratch, once per configuration it
analyzed.  The :class:`ProgramStore` removes that cost by storing the built
program in the cache directory the first time a spec is seen; every later
solve — another configuration of the same spec, a worker in another
process, or a whole later run — reads the blob instead.

The one stored encoding is the program's **arena blob**: the flat
struct-of-arrays encoding of :mod:`repro.ir.arena`.  Blobs are written
*before* any analysis runs over the program, so the stored IR is pristine.
:meth:`ProgramStore.attach` maps a blob read-only (``mmap``) and hands back
an :class:`~repro.ir.arena.ArenaProgram` with *zero* per-worker decode: no
object graph, method bodies materialize lazily if anything asks.  An
attached arena is read-only, so callers may share it.
:meth:`ProgramStore.attach_or_build` is the worker-facing entry, and the
engine's only one: :func:`repro.engine.runner._program_for` takes every
store-backed half through it and solves an attached program on the arena
kernel, straight on the mapped buffer.  :meth:`ProgramStore.load` thaws an
attached blob into a mutable :class:`~repro.ir.program.Program`, a fresh
object graph per call.  Analysis results obtained from a stored program
are bit-identical to results from a freshly generated one (covered by
``tests/engine/test_program_store.py``).

Entries are keyed by the spec alone (kind ``program``; the store layout
is described in :mod:`repro.engine`): a program does not depend on any
analysis configuration, so every configuration of a spec shares its blob.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.engine.cache import BlobStore
from repro.ir.arena import ArenaFormatError, ArenaProgram, freeze, open_program, thaw
from repro.ir.program import Program
from repro.workloads.generator import BenchmarkSpec, generate_benchmark


class ProgramStore(BlobStore):
    """A directory of arena-encoded benchmark programs, one blob per spec.

    ``hits`` counts blob reads and ``misses`` counts generate-and-store
    fallbacks; both are in-process counters (workers on a pool keep their
    own), so tests that assert on them should run the engine serially or use
    the per-payload ``program_from_store`` flag instead.
    """

    kind = "program"
    # Nothing writes ``.pickle``; owning it lets gc/clear reclaim older versions' pickles.
    suffixes = (".pickle", ".arena")

    def key(self, spec: BenchmarkSpec) -> str:
        """The store key for one spec (spec hash + code version)."""
        return self._key(spec)

    def path_for(self, spec: BenchmarkSpec) -> Path:
        return self._path(self.key(spec), ".arena")

    def contains(self, spec: BenchmarkSpec) -> bool:
        """Whether a blob exists, without touching the hit/miss counters."""
        return self.path_for(spec).is_file()

    def store(self, spec: BenchmarkSpec,
              program: Union[Program, ArenaProgram]) -> Path:
        """Atomically persist ``program``'s arena blob; returns its path.

        A plain program is frozen; an attached one writes its own buffer
        back (exact, and no lowering).
        """
        target = self.path_for(spec)
        if isinstance(program, ArenaProgram):
            self._write_atomic(target, program.arena.to_bytes())
        else:
            self._write_atomic(target, freeze(program))
        return target

    def attach(self, spec: BenchmarkSpec) -> Optional[ArenaProgram]:
        """Map the arena blob read-only and attach it; ``None`` on a miss.

        The returned :class:`~repro.ir.arena.ArenaProgram` reads straight
        from the page cache — nothing is decoded up front, and several
        worker processes attaching the same blob share its physical pages.
        Corrupt or truncated blobs (bad magic, foreign format version, short
        sections) are misses.
        """
        try:
            with open(self.path_for(spec), "rb") as handle:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            return open_program(buffer)
        except (OSError, ArenaFormatError, struct.error, ValueError,
                IndexError, KeyError):
            # mmap raises ValueError on an empty file; a truncated buffer
            # surfaces as struct/index errors while binding the sections.
            return None

    def load(self, spec: BenchmarkSpec) -> Optional[Program]:
        """The stored program thawed into its own mutable object graph.

        ``None`` on a miss (missing or corrupt blob).
        """
        attached = self.attach(spec)
        return None if attached is None else thaw(attached)

    def attach_or_build(self, spec: BenchmarkSpec) -> Tuple[Union[Program, ArenaProgram], bool]:
        """The program for ``spec`` as an attached arena whenever possible.

        On a miss the program is generated, stored and attached.  A store
        that cannot be written (a read-only directory) leaves the plain
        :class:`~repro.ir.program.Program` as the answer.  The boolean
        matches :meth:`load_or_build`: whether program *generation* was
        skipped.
        """
        attached = self.attach(spec)
        if attached is not None:
            self.hits += 1
            return attached, True
        self.misses += 1
        program = generate_benchmark(spec)
        try:
            self.store(spec, program)
        except OSError:
            return program, False
        attached = self.attach(spec)
        return (program if attached is None else attached), False

    def load_or_build(self, spec: BenchmarkSpec) -> Tuple[Program, bool]:
        """The mutable program for ``spec`` plus whether it came from the store.

        On a miss the program is generated, stored (pre-analysis, so the blob
        stays pristine), and returned; every later call thaws its own copy.
        """
        program = self.load(spec)
        if program is not None:
            self.hits += 1
            return program, True
        self.misses += 1
        program = generate_benchmark(spec)
        self.store(spec, program)
        return program, False
