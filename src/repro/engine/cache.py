"""On-disk JSON cache for per-configuration analysis results.

One cache entry per ``(spec, configuration, code version)`` triple — one
*half* of an N-way comparison; see the package docstring
(:mod:`repro.engine`) for the key scheme and why halves (rather than whole
comparisons) are the cache unit.  Entries are single JSON files written
atomically (temp file + rename), so a cache directory can be shared between
concurrent runs and an interrupted run never leaves a corrupt entry behind —
unreadable files are simply treated as misses.

Entry filenames are prefixed with the code version
(``<code_version>-<key>.json``).  The key already embeds the code version,
so the prefix adds no correctness — it exists so that :meth:`ResultCache.gc`
can identify entries written by *other* code versions from the filename
alone and drop them (``repro bench --gc``); without it stale entries would
accumulate forever, since a key is an opaque hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

_HASH_ABBREV = 16


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def hash_dataclass(instance: Any) -> str:
    """Stable hash of a (possibly nested) dataclass instance."""
    return _sha256(_canonical_json(dataclasses.asdict(instance)))[:_HASH_ABBREV]


_code_version_cache: Optional[str] = None


def compute_code_version() -> str:
    """Hash every ``*.py`` file of the ``repro`` package (memoized).

    Including relative paths in the digest means renames invalidate too, not
    just content edits.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(path.relative_to(package_root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_version_cache = digest.hexdigest()[:_HASH_ABBREV]
    return _code_version_cache


class ResultCache:
    """A directory of cached per-configuration payloads, keyed as described above.

    ``hits``/``misses`` count :meth:`get` outcomes on this instance; a
    comparison served entirely from the cache therefore scores one hit per
    configuration half, which is what lets tests assert that an ablation
    sweep recomputed the shared baseline exactly once.
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
    def config_key(self, spec, config) -> str:
        """The cache key for one (spec, configuration) analysis result."""
        parts = "/".join((
            hash_dataclass(spec),
            hash_dataclass(config),
            self.code_version,
        ))
        return _sha256("result/" + parts)[:2 * _HASH_ABBREV]

    def path_for(self, key: str) -> Path:
        return self.directory / f"{self.code_version}-{key}.json"

    # ------------------------------------------------------------------ #
    # Entries
    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        """Whether an entry exists, without touching the hit/miss counters."""
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path_for(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        target = self.path_for(key)
        temp = target.with_name(target.name + f".tmp{os.getpid()}")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
        os.replace(temp, target)

    def clear(self) -> int:
        """Delete every entry; returns the number of files removed.

        ``last_gc_bytes`` records how many bytes the deletions reclaimed.
        """
        removed = 0
        freed = 0
        for path in self.directory.glob("*.json"):
            freed += _size_of(path)
            path.unlink()
            removed += 1
        self.last_gc_bytes = freed
        return removed

    def gc(self) -> int:
        """Drop entries written by other code versions; returns files removed.

        An entry's filename starts with the code version that wrote it, so
        anything not matching this cache's version — including pre-versioning
        flat-named entries, which can never be read again either — is stale
        by construction and safe to delete.  The same rule reclaims ``.tmp``
        files orphaned by crashed writers; entries and in-flight ``.tmp``
        files of the *current* version are left alone (a concurrent run may
        be mid-write).
        """
        prefix = f"{self.code_version}-"
        removed = 0
        freed = 0
        for pattern in ("*.json", "*.json.tmp*"):
            for path in self.directory.glob(pattern):
                if not path.name.startswith(prefix):
                    freed += _size_of(path)
                    path.unlink()
                    removed += 1
        self.last_gc_bytes = freed
        return removed


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0
