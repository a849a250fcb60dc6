"""On-disk store of solver-state snapshots for warm re-analysis.

A :class:`SnapshotStore` keeps the serialized
:class:`~repro.core.state.SolverState` of a solved (spec, configuration)
pair, so a later process can *resume* the fixpoint after a monotone program
edit instead of re-deriving it: the warm path of
``benchmarks/run_incremental_study.py`` and the CI incremental phase.  A
snapshot is valid under exactly the circumstances of the result it
accompanies, so it is keyed like a result half (kind ``state``; the store
layout is described in :mod:`repro.engine`).

``spec`` is any dataclass :func:`~repro.engine.cache.hash_dataclass` can
digest: a plain :class:`~repro.workloads.generator.BenchmarkSpec` for base
programs, or an :class:`~repro.workloads.edits.EditScriptSpec` prefix for a
program-plus-edits state, which is how every step of an edit sequence gets
its own addressable snapshot.  The payload itself carries
``SNAPSHOT_VERSION`` (refused on mismatch by
:meth:`SolverState.from_bytes`), and :meth:`SnapshotStore.store` stamps
the program fingerprint into it, so even a snapshot loaded against the
wrong (non-monotone) program refuses to resume at solve time rather than
producing a stale fixpoint.  The arena kernel's
:class:`~repro.core.kernel.arena_kernel.ArenaSolverState` is stored the
same way (its pickled tables, stamped with the arena's fid and method
counts and the fingerprint) and read back with :meth:`SnapshotStore.
load_arena`, which refuses a program that does not rebuild them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.state import SnapshotMismatchError, SolverState, SolverStateError
from repro.engine.cache import BlobStore
from repro.ir.program import Program


class SnapshotStore(BlobStore):
    """A directory of solver-state snapshots, one per (spec, config) pair.

    ``hits`` counts successful :meth:`load` calls and ``misses`` the
    missing/corrupt ones, so smoke tests can assert "the second run resumed
    from the stored snapshot".
    """

    kind = "state"
    suffixes = (".state",)

    def key(self, spec, config) -> str:
        """The snapshot key for one (spec, configuration) solver state."""
        return self._key(spec, config)

    def path_for(self, spec, config) -> Path:
        return self._path(self.key(spec, config), ".state")

    def contains(self, spec, config) -> bool:
        """Whether a snapshot exists, without touching the hit/miss counters."""
        return self.path_for(spec, config).is_file()

    def load(self, spec, config, program: Program) -> Optional[SolverState]:
        """The stored state restored against ``program``, or ``None``.

        ``None`` on a missing, corrupt or stale blob, and on one that does
        not resolve against ``program`` (a method it references is missing
        or changed): snapshots store the program's IR by reference.
        """
        try:
            blob = self.path_for(spec, config).read_bytes()
            state = SolverState.from_bytes(blob, program)
        except (OSError, SolverStateError):
            self.misses += 1
            return None
        self.hits += 1
        return state

    def load_arena(self, spec, config,
                   program: Program) -> Optional[ArenaSolverState]:
        """The stored arena-kernel tables restored over ``program``.

        ``None`` on a missing, corrupt or stale blob.  A blob that does not
        match ``program`` — a different arena or fingerprint than it was
        written against — raises
        :class:`~repro.core.state.SnapshotMismatchError`: its fids would
        name other flows, and that is a broken rebuild, not a lost cache.
        """
        try:
            blob = self.path_for(spec, config).read_bytes()
            state = ArenaSolverState.from_bytes(blob, program)
        except SnapshotMismatchError:
            self.misses += 1
            raise
        except (OSError, SolverStateError):
            self.misses += 1
            return None
        self.hits += 1
        return state

    def store(self, spec, config, state: Union[SolverState, ArenaSolverState],
              program: Optional[Program] = None) -> None:
        """Atomically persist ``state``; with ``program``, stamp the snapshot.

        Stamping records the program's fingerprint inside the serialized
        snapshot (the live ``state`` is untouched), so any later resume
        against a non-monotone program fails loudly at solve time even if
        the cache keying were somehow bypassed.
        """
        self._write_atomic(self.path_for(spec, config), state.to_bytes(program))
