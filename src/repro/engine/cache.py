"""The engine's on-disk store layout, and its JSON result cache.

:class:`BlobStore` is the one layout the result cache, the snapshot store
(:mod:`repro.engine.snapshots`) and the program store
(:mod:`repro.engine.program_store`) share: keys, versioned filenames, the
atomic write and garbage collection.  The package docstring
(:mod:`repro.engine`) describes it.  :class:`ResultCache` keeps one JSON
payload per ``(spec, configuration, code version)`` triple: one *half* of
an N-way comparison, the cache unit the package docstring motivates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple

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


class BlobStore:
    """A directory of ``<code_version>-<key><suffix>`` files.

    A subclass names its key namespace (:attr:`kind`) and the suffixes it
    owns (:attr:`suffixes`), and reads and writes its own format; the key
    derivation, the versioned path, the atomic write, :meth:`clear` and
    :meth:`gc` are shared.  ``hits``/``misses`` are in-process counters
    that each subclass bumps on its own read path.
    """

    #: The namespace hashed in front of every key of this store.
    kind = ""
    #: The suffixes this store owns; :meth:`clear` and :meth:`gc` touch
    #: no other files.
    suffixes: Tuple[str, ...] = ()

    def __init__(self, directory, code_version: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_version = code_version or compute_code_version()
        self.hits = 0
        self.misses = 0
        #: Bytes reclaimed by the most recent :meth:`gc` / :meth:`clear`
        #: (``repro bench --gc`` reports it).
        self.last_gc_bytes = 0

    def _key(self, *parts: Any) -> str:
        """``sha256(kind/ hash(part)... /code_version)``, abbreviated."""
        hashes = "/".join([hash_dataclass(part) for part in parts]
                          + [self.code_version])
        return _sha256(f"{self.kind}/{hashes}")[:2 * _HASH_ABBREV]

    def _path(self, key: str, suffix: str) -> Path:
        return self.directory / f"{self.code_version}-{key}{suffix}"

    def _write_atomic(self, target: Path, blob: bytes) -> None:
        # One temp name per writer: two threads storing one target (two
        # daemon requests opening the same benchmark) must not rename each
        # other's temp file away.
        temp = target.with_name(
            f"{target.name}.tmp{os.getpid()}-{threading.get_ident()}")
        temp.write_bytes(blob)
        os.replace(temp, target)

    def clear(self) -> int:
        """Delete every file of this store; returns the number removed."""
        return self._unlink(path for suffix in self.suffixes
                            for path in self.directory.glob(f"*{suffix}"))

    def gc(self) -> int:
        """Drop files written by other code versions; returns files removed."""
        prefix = f"{self.code_version}-"
        return self._unlink(
            path for suffix in self.suffixes
            for pattern in (f"*{suffix}", f"*{suffix}.tmp*")
            for path in self.directory.glob(pattern)
            if not path.name.startswith(prefix))

    def _unlink(self, paths: Iterable[Path]) -> int:
        removed = 0
        freed = 0
        for path in paths:
            freed += _size_of(path)
            path.unlink()
            removed += 1
        self.last_gc_bytes = freed
        return removed


class ResultCache(BlobStore):
    """Cached per-configuration payloads, one JSON file per half.

    ``hits``/``misses`` count :meth:`get` outcomes on this instance; a
    comparison served entirely from the cache therefore scores one hit per
    configuration half, which is what lets tests assert that an ablation
    sweep recomputed the shared baseline exactly once.
    """

    kind = "result"
    suffixes = (".json",)

    def config_key(self, spec, config) -> str:
        """The cache key for one (spec, configuration) analysis result."""
        return self._key(spec, config)

    def path_for(self, key: str) -> Path:
        return self._path(key, ".json")

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
        self._write_atomic(self.path_for(key), json.dumps(
            payload, sort_keys=True, indent=1).encode("utf-8"))


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0
