"""Shared read-only store of built benchmark IR.

Generating a benchmark program from its :class:`~repro.workloads.generator.
BenchmarkSpec` is deterministic but not free: every worker process used to
rebuild (and re-lower) the same IR from scratch, once per configuration it
analyzed.  The :class:`ProgramStore` removes that cost by storing the built
:class:`~repro.ir.program.Program` in the cache directory the first time a
spec is seen; every later solve — another configuration of the same spec, a
worker in another process, or a whole later run — reads the blob instead.

Blobs are written *before* any analysis runs over the program, so the stored
IR is pristine.  Unpickling hands every caller its own fresh object graph;
an attached arena is read-only, so callers may share it.  Analysis results
obtained from a stored program are bit-identical to results from a freshly
generated one (covered by ``tests/engine/test_program_store.py``).

Next to every pickle the store also writes the program's **arena blob** — the
flat struct-of-arrays encoding of :mod:`repro.ir.arena`.  :meth:`ProgramStore.
attach` maps that blob read-only (``mmap``) and hands back an
:class:`~repro.ir.arena.ArenaProgram` with *zero* per-worker decode: no
unpickling, no object graph, method bodies materialize lazily if anything
asks.  :meth:`ProgramStore.attach_or_build` is the worker-facing entry, and
the engine's only one: :func:`repro.engine.runner._program_for` takes every
store-backed half through it and solves an attached program on the arena
kernel, straight on the mapped buffer.  The pickle is read only when the
arena blob is missing or corrupt, and the blob is then backfilled from it;
when the backfill cannot be written (a read-only store) the unpickled
:class:`~repro.ir.program.Program` is returned and the half runs under its
config as given.

Entries are keyed by the spec alone (kind ``program``; the store layout
is described in :mod:`repro.engine`): a program does not depend on any
analysis configuration, so every configuration of a spec shares its blob.
"""

from __future__ import annotations

import mmap
import pickle
import struct
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.engine.cache import BlobStore
from repro.ir.arena import ArenaFormatError, ArenaProgram, freeze, open_program
from repro.ir.program import Program
from repro.workloads.generator import BenchmarkSpec, generate_benchmark


class ProgramStore(BlobStore):
    """A directory of pickled benchmark programs, one blob per spec.

    ``hits`` counts blob loads and ``misses`` counts generate-and-store
    fallbacks; both are in-process counters (workers on a pool keep their
    own), so tests that assert on them should run the engine serially or use
    the per-payload ``program_from_store`` flag instead.
    """

    kind = "program"
    suffixes = (".pickle", ".arena")

    def key(self, spec: BenchmarkSpec) -> str:
        """The store key for one spec (spec hash + code version)."""
        return self._key(spec)

    def path_for(self, spec: BenchmarkSpec) -> Path:
        return self._path(self.key(spec), ".pickle")

    def arena_path_for(self, spec: BenchmarkSpec) -> Path:
        """The sibling arena blob of :meth:`path_for` (same key, ``.arena``)."""
        return self._path(self.key(spec), ".arena")

    def contains(self, spec: BenchmarkSpec) -> bool:
        """Whether a blob exists, without touching the hit/miss counters."""
        return self.path_for(spec).is_file()

    def has_arena(self, spec: BenchmarkSpec) -> bool:
        """Whether the sibling ``.arena`` buffer exists for this spec.

        Pickles written before the arena encoding, and pickles whose arena
        write failed, have no sibling; ``repro bench`` surfaces these
        backfill gaps so a store can be migrated deliberately instead of
        silently falling back to the object kernel's unpickle path.
        """
        return self.arena_path_for(spec).is_file()

    def load(self, spec: BenchmarkSpec) -> Optional[Program]:
        """Unpickle the stored program, or ``None`` on a missing/corrupt blob."""
        try:
            blob = self.path_for(spec).read_bytes()
            return pickle.loads(blob)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, KeyError, TypeError, ValueError):
            # pickle.loads raises a wide range of exceptions on truncated or
            # corrupt input (e.g. plain ValueError for an unknown protocol).
            return None

    def store(self, spec: BenchmarkSpec, program: Program) -> None:
        """Atomically persist ``program`` for ``spec``: pickle plus arena blob.

        The two writes are individually atomic but not joint — a crash can
        leave one without the other; both read paths treat a missing sibling
        as an ordinary miss (:meth:`attach_or_build` backfills the arena).

        An already-attached :class:`~repro.ir.arena.ArenaProgram` is written
        back as its own buffer only (no pickle: an mmap-backed program does
        not pickle, and re-serializing the buffer is exact and free).
        """
        if not isinstance(program, ArenaProgram):
            self._write_atomic(
                self.path_for(spec),
                pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL))
        self.store_arena(spec, program)

    def store_arena(self, spec: BenchmarkSpec,
                    program: Union[Program, ArenaProgram]) -> Path:
        """Atomically persist ``program``'s arena blob alone; returns its path.

        No pickle is written; :meth:`attach` reads the blob back.  An
        attached program writes its own buffer back; a plain one is
        frozen.
        """
        target = self.arena_path_for(spec)
        if isinstance(program, ArenaProgram):
            self._write_atomic(target, program.arena.to_bytes())
        else:
            self._write_atomic(target, freeze(program))
        return target

    # ------------------------------------------------------------------ #
    # Arena attach (the zero-decode worker path)
    # ------------------------------------------------------------------ #
    def attach(self, spec: BenchmarkSpec) -> Optional[ArenaProgram]:
        """Map the arena blob read-only and attach it; ``None`` on a miss.

        The returned :class:`~repro.ir.arena.ArenaProgram` reads straight
        from the page cache — nothing is decoded up front, and several
        worker processes attaching the same blob share its physical pages.
        Corrupt or truncated blobs (bad magic, foreign format version, short
        sections) are misses, like an unreadable pickle.
        """
        try:
            with open(self.arena_path_for(spec), "rb") as handle:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            return open_program(buffer)
        except (OSError, ArenaFormatError, struct.error, ValueError,
                IndexError, KeyError):
            # mmap raises ValueError on an empty file; a truncated buffer
            # surfaces as struct/index errors while binding the sections.
            return None

    def attach_or_build(self, spec: BenchmarkSpec) -> Tuple[Union[Program, ArenaProgram], bool]:
        """The program for ``spec`` as an attached arena whenever possible.

        Priority: attach the arena blob (zero decode); otherwise fall back
        to :meth:`load_or_build` and backfill the missing or corrupt arena
        blob from the loaded program (store directories written before
        arena blobs existed heal on first touch), re-attaching if the
        backfill succeeded.  A backfill that cannot be written (a read-only
        store) leaves the plain :class:`~repro.ir.program.Program` as the
        answer.  The boolean matches :meth:`load_or_build`: whether program
        *generation* was skipped.
        """
        attached = self.attach(spec)
        if attached is not None:
            self.hits += 1
            return attached, True
        program, from_store = self.load_or_build(spec)
        if from_store:
            # A fresh build just wrote its own arena blob in ``store``.
            try:
                self.store_arena(spec, program)
            except OSError:
                return program, from_store
        attached = self.attach(spec)
        if attached is not None:
            return attached, from_store
        return program, from_store

    def load_or_build(self, spec: BenchmarkSpec) -> Tuple[Program, bool]:
        """The program for ``spec`` plus whether it came from the store.

        On a miss the program is generated, stored (pre-analysis, so the blob
        stays pristine), and returned; the build itself then runs on the
        freshly generated object, while every later solve of the same spec
        gets its own unpickled copy.
        """
        program = self.load(spec)
        if program is not None:
            self.hits += 1
            return program, True
        self.misses += 1
        program = generate_benchmark(spec)
        self.store(spec, program)
        return program, False
