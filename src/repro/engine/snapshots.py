"""On-disk store of solver-state snapshots for warm re-analysis.

A :class:`SnapshotStore` keeps the arena kernel's tables
(:class:`~repro.core.kernel.arena_kernel.ArenaSolverState`) of a solved
(spec, configuration) pair, so a later process can *resume* the fixpoint
after a monotone program edit instead of re-deriving it: the warm path of
``benchmarks/run_incremental_study.py``, the CI incremental phase and the
daemon's parked sessions.  A snapshot is valid under exactly the
circumstances of the result it accompanies, so it is keyed like a result
half (kind ``state``; the store layout is described in
:mod:`repro.engine`).

``spec`` is any dataclass :func:`~repro.engine.cache.hash_dataclass` can
digest: a plain :class:`~repro.workloads.generator.BenchmarkSpec` for base
programs, an :class:`~repro.workloads.edits.EditScriptSpec` prefix for a
program-plus-edits state, which is how every step of an edit sequence gets
its own addressable snapshot, or a daemon session's spill spec.  The
payload is the pickled tables, versioned and stamped with the arena's fid
and method counts and the program fingerprint; it holds no IR, so it is
restored over an attached program that rebuilds the same arena (the
program store's blob, extended by the same deltas).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.state import SnapshotMismatchError, SolverStateError
from repro.engine.cache import BlobStore
from repro.ir.arena import ArenaProgram


class SnapshotStore(BlobStore):
    """A directory of solver-state snapshots, one per (spec, config) pair.

    ``hits`` counts successful :meth:`load` calls and ``misses`` the
    missing/corrupt/mismatched ones, so smoke tests can assert "the second
    run resumed from the stored snapshot".
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

    def load(self, spec, config,
             program: ArenaProgram) -> Optional[ArenaSolverState]:
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

    def store(self, spec, config, state: ArenaSolverState,
              program: ArenaProgram) -> None:
        """Atomically persist ``state``'s tables over ``program``.

        ``program`` is the attached program the tables index; its arena
        counts and fingerprint are stamped into the snapshot, so a restore
        over any other program refuses instead of misreading the fids.
        """
        self._write_atomic(self.path_for(spec, config), state.to_bytes(program))
