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
its own addressable snapshot, a daemon session's spill spec, or a
:class:`BaseFixpointSpec`: the daemon's stored fixpoint of a shared base
program, which later sessions on that base load and resume over their own
deltas (:meth:`SnapshotStore.load_base`).  The payload is the pickled
tables, versioned and stamped with the arena's fid and method counts and
the program fingerprint; it holds no IR, so it is restored over an
attached program that rebuilds the same arena (the program store's blob,
extended by the same deltas) or extends it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.core.kernel.arena_kernel import ArenaSolverState
from repro.core.state import SnapshotMismatchError, SolverStateError
from repro.engine.cache import BlobStore
from repro.ir.arena import ArenaProgram


@dataclass(frozen=True)
class BaseFixpointSpec:
    """The key of one base program's stored fixpoint (with its config).

    ``program`` is the program-store key of the base's arena blob (the
    spec's hash and the code version), and ``roots`` the resolved roots the
    fixpoint was seeded from.  The roots belong to the key because a
    resume only ever adds roots (``seeded_roots`` grows): tables solved
    from other roots would keep answering for those roots.
    """

    program: str
    roots: Tuple[str, ...]


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

    def load_base(self, spec: BaseFixpointSpec, config,
                  program: ArenaProgram) -> Optional[ArenaSolverState]:
        """A stored base fixpoint restored over ``program``, to resume.

        ``program`` is the base itself or an attached extension of it by
        monotone deltas.  ``None`` when no table is stored.  Unlike
        :meth:`load`, a stored table that cannot serve raises
        :class:`~repro.core.state.SolverStateError` saying why: it is
        unreadable or of a foreign version, it indexes another arena or
        fingerprint (:class:`~repro.core.state.SnapshotMismatchError`), or
        it was solved under another configuration or from other roots than
        its key names.  The caller solves cold and rewrites it.
        """
        try:
            blob = self.path_for(spec, config).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            self.misses += 1
            raise SolverStateError(
                f"unreadable stored fixpoint: {error}") from error
        try:
            state = ArenaSolverState.from_bytes(blob, program)
            if state.config != config:
                raise SolverStateError(
                    f"the stored fixpoint was solved under configuration "
                    f"{_label(state.config)}, not {_label(config)}")
            if set(state.seeded_roots) != set(spec.roots):
                raise SolverStateError(
                    f"the stored fixpoint was seeded from roots "
                    f"{sorted(state.seeded_roots)}, not {sorted(spec.roots)}")
        except SolverStateError:
            self.misses += 1
            raise
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


def _label(config) -> str:
    """A configuration's name plus its saturation cutoff, for messages."""
    if config.saturation_threshold is None:
        return repr(config.name)
    return (f"{config.name!r} ({config.saturation_policy}"
            f"@{config.saturation_threshold})")
