"""On-disk store of solver-state snapshots for warm re-analysis.

The third persistence layer of the engine, next to the result cache (JSON
payloads per configuration half) and the program store (pickled IR per
spec): a :class:`SnapshotStore` keeps the serialized
:class:`~repro.core.state.SolverState` of a solved (spec, configuration)
pair, so a later process can *resume* the fixpoint after a monotone program
edit instead of re-deriving it — the warm path of
``benchmarks/run_incremental_study.py`` and the CI incremental phase.

Keying mirrors the result cache exactly, because a snapshot is valid under
exactly the same circumstances as the result it accompanies::

    key = sha256("state/" + spec_hash / config_hash / code_version)

``spec`` is any dataclass :func:`~repro.engine.cache.hash_dataclass` can
digest — a plain :class:`~repro.workloads.generator.BenchmarkSpec` for base
programs, or an :class:`~repro.workloads.edits.EditScriptSpec` prefix for a
program-plus-edits state, which is how every step of an edit sequence gets
its own addressable snapshot.  Entries are versioned twice over: the
snapshot payload itself carries ``SNAPSHOT_VERSION`` (refused on mismatch by
:meth:`SolverState.from_bytes`), and filenames carry the code-version prefix
so :meth:`SnapshotStore.gc` — wired into ``repro bench --gc`` — can drop
snapshots written by other code versions without deserializing anything.
Writes are atomic (temp file + rename) and unreadable or mismatched blobs
are misses, matching the crash-safety story of the sibling stores.

Snapshots are *self-validating* on top of the keying: :meth:`store` stamps
the program fingerprint into the state, so even a snapshot loaded against
the wrong (non-monotone) program refuses to resume at solve time rather
than producing a stale fixpoint.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional

from repro.core.state import SolverState, SolverStateError
from repro.engine.cache import compute_code_version, hash_dataclass
from repro.ir.program import Program

_KEY_ABBREV = 32


class SnapshotStore:
    """A directory of solver-state snapshots, one per (spec, config) pair.

    ``hits`` counts successful :meth:`load` calls and ``misses`` the
    missing/corrupt ones, mirroring the result cache's counters so smoke
    tests can assert "the second run resumed from the stored snapshot".
    """

    def __init__(self, directory, code_version: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version or compute_code_version()
        self.hits = 0
        self.misses = 0
        #: Bytes reclaimed by the most recent :meth:`gc` / :meth:`clear`
        #: (``repro bench --gc`` reports it).
        self.last_gc_bytes = 0

    # ------------------------------------------------------------------ #
    # Keys
    # ------------------------------------------------------------------ #
    def key(self, spec, config) -> str:
        """The snapshot key for one (spec, configuration) solver state."""
        text = "/".join((
            hash_dataclass(spec),
            hash_dataclass(config),
            self.code_version,
        ))
        return hashlib.sha256(
            ("state/" + text).encode("utf-8")).hexdigest()[:_KEY_ABBREV]

    def path_for(self, spec, config) -> Path:
        # The code-version filename prefix mirrors the result cache and the
        # program store: gc() can spot foreign-version snapshots by name.
        return self.directory / f"{self.code_version}-{self.key(spec, config)}.state"

    # ------------------------------------------------------------------ #
    # Blobs
    # ------------------------------------------------------------------ #
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

    def store(self, spec, config, state: SolverState,
              program: Optional[Program] = None) -> None:
        """Atomically persist ``state``; with ``program``, stamp the snapshot.

        Stamping records the program's fingerprint inside the serialized
        snapshot (the live ``state`` is untouched), so any later resume
        against a non-monotone program fails loudly at solve time even if
        the cache keying were somehow bypassed.
        """
        target = self.path_for(spec, config)
        temp = target.with_name(target.name + f".tmp{os.getpid()}")
        temp.write_bytes(state.to_bytes(program))
        os.replace(temp, target)

    def clear(self) -> int:
        """Delete every snapshot; returns the number of files removed.

        ``last_gc_bytes`` records how many bytes the deletions reclaimed.
        """
        removed = 0
        freed = 0
        for path in self.directory.glob("*.state"):
            freed += self._size_of(path)
            path.unlink()
            removed += 1
        self.last_gc_bytes = freed
        return removed

    def gc(self) -> int:
        """Drop snapshots written by other code versions; returns files removed.

        Mirrors :meth:`repro.engine.cache.ResultCache.gc`: filenames are
        prefixed with the code version that wrote them, so mismatched blobs
        are stale by construction, as are ``.tmp`` files orphaned by
        crashed writers of other versions.  ``last_gc_bytes`` records the
        bytes reclaimed.
        """
        prefix = f"{self.code_version}-"
        removed = 0
        freed = 0
        for pattern in ("*.state", "*.state.tmp*"):
            for path in self.directory.glob(pattern):
                if not path.name.startswith(prefix):
                    freed += self._size_of(path)
                    path.unlink()
                    removed += 1
        self.last_gc_bytes = freed
        return removed

    @staticmethod
    def _size_of(path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0
