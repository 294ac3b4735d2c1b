"""Deterministic on-disk result cache for characterization runs.

Each cache entry holds the scaled counter values of one application-input
pair collected under one exact collection setup.  The entry key is a
content hash over everything that can change those values:

* the full :class:`~repro.config.SystemConfig` (caches, pipeline,
  predictor, frequency — the simulated substrate),
* the full :class:`~repro.workloads.profile.WorkloadProfile`,
* the sample parameters (``sample_ops``, ``warmup_fraction``) and the
  resolved execution engine,
* the package version and the cache schema version (code invalidation).

Because the simulation is deterministic, a cache hit is bitwise identical
to a fresh run; anything that would change the numbers changes the key, so
stale entries are never *reused* — they are simply unreachable until
:meth:`ResultCache.clear` garbage-collects them.

Entries live in one append-only JSONL shard per *sweep identity*: the key
material minus the profile.  A runner reads its shard once
(:meth:`ResultCache.shard`), serves every lookup from memory, and appends
one line per newly simulated pair.  Shards keep the run ledger's
durability contract (:func:`~repro.obs.ledger.append_line`,
:func:`~repro.obs.ledger.salvage_jsonl`): one ``os.write`` per line on an
``O_APPEND`` descriptor, corrupt lines skipped with a warning, and the
last line for a key wins.

The default location is ``~/.cache/repro`` and can be overridden with the
``REPRO_CACHE_DIR`` environment variable or per-cache with the
``directory`` argument.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

# This module is the historical home of the content hash and the default
# cache directory; both are re-exported from the neutral repro.hashing /
# repro.paths modules so repro.obs can use them without importing the
# runner.  Shards keep the ledger's contract through its two helpers.
from ..hashing import content_hash, jsonable
from ..obs.ledger import append_line, salvage_jsonl
from ..paths import CACHE_DIR_ENV, default_cache_dir

#: Bump to invalidate every existing cache entry on disk (layout changes).
CACHE_SCHEMA = 1

#: A shard's file name, from the hash of its sweep identity.
_SHARD_NAME = "shard-%s.jsonl"


def _code_version() -> str:
    # Imported lazily: repro/__init__ re-exports the runner package, so a
    # module-level import here would be circular.
    from .. import __version__

    return __version__


@dataclass(frozen=True)
class CacheShard:
    """One sweep identity's shard file and the entries read from it.

    ``entries`` maps each key to its last well-formed line, as the file
    stood when :meth:`ResultCache.shard` read it.  A store appends to the
    file only; a runner that keeps the shard adds the entry
    :meth:`ResultCache.store` returns.
    """

    path: Path
    entries: Dict[str, Dict[str, object]]


class ResultCache:
    """Content-addressed JSONL store of per-pair counter values."""

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ResultCache(%r)" % str(self.directory)

    def key(
        self,
        config,
        profile,
        sample_ops: int,
        warmup_fraction: float,
        engine: Optional[str] = None,
    ) -> str:
        """The cache key of one (config, profile, sample params) tuple.

        ``engine`` is the *resolved* execution engine ("scalar" or
        "vector"), never "auto": both engines are parity-
        checked but keyed separately so a regression in either can never
        hide behind the other's cached entries.  ``None`` (legacy
        callers) hashes like the pre-engine layout did not exist —
        it participates in the hash as an explicit null.
        """
        return content_hash(
            {
                "schema": CACHE_SCHEMA,
                "code_version": _code_version(),
                "config": config,
                "profile": profile,
                "sample_ops": sample_ops,
                "warmup_fraction": warmup_fraction,
                "engine": engine,
            }
        )

    def shard(
        self,
        config,
        sample_ops: int,
        warmup_fraction: float,
        engine: Optional[str] = None,
    ) -> CacheShard:
        """Read the shard of one sweep identity: :meth:`key`'s material
        without the profile.

        The file is read once, here; a missing or unreadable shard
        reads as empty.  A line that is not JSON or not a cache line is
        skipped with a warning, and the last line for a key wins.
        """
        identity = content_hash(
            {
                "schema": CACHE_SCHEMA,
                "code_version": _code_version(),
                "config": config,
                "sample_ops": sample_ops,
                "warmup_fraction": warmup_fraction,
                "engine": engine,
            }
        )
        path = self.directory / (_SHARD_NAME % identity)
        return CacheShard(path, _read_shard(path))

    def load(
        self, key: str, shard: CacheShard
    ) -> Optional[Dict[str, float]]:
        """The counter values stored under ``key``, or None on a miss or
        a malformed entry.  Reads ``shard``'s entries, not the disk."""
        entry = shard.entries.get(key)
        if entry is None or entry.get("schema") != CACHE_SCHEMA:
            return None
        values = entry.get("values")
        if not isinstance(values, dict):
            return None
        try:
            return {str(name): float(value) for name, value in values.items()}
        except (TypeError, ValueError):
            return None

    def store(
        self,
        key: str,
        pair_name: str,
        values: Dict[str, float],
        shard: CacheShard,
    ) -> Dict[str, object]:
        """Append one pair's counter values to ``shard`` as one line, and
        return the entry that line holds.

        The line also names the code version, which the shard's file
        name only hashes, so stale shards can be found by reading them.
        """
        entry = {
            "code_version": _code_version(),
            "key": key,
            "pair": pair_name,
            "schema": CACHE_SCHEMA,
            "values": {name: float(value) for name, value in values.items()},
        }
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        append_line(shard.path, (line + "\n").encode("utf-8"))
        return entry

    def _files(self) -> List[Path]:
        """Every shard, plus the ``<key>.json`` files of the
        one-file-per-entry layout, which nothing reads any more."""
        return sorted(self.directory.glob(_SHARD_NAME % "*")) + sorted(
            self.directory.glob("*.json")
        )

    def entry_count(self) -> int:
        """Number of distinct entries currently on disk."""
        return sum(_entries_in(path) for path in self._files())

    def clear(self) -> int:
        """Delete every shard and leftover entry file; returns the number
        of entries removed.  The run ledger stays."""
        removed = 0
        for path in self._files():
            count = _entries_in(path)
            try:
                path.unlink()
            except OSError:
                continue
            removed += count
        return removed


def _read_shard(path: Path) -> Dict[str, Dict[str, object]]:
    """Each key's last well-formed line in the shard at ``path``."""
    try:
        lines = salvage_jsonl(path, "cache shard", "cache", "key")
    except OSError:
        return {}
    return {line["key"]: line for line in lines if type(line["key"]) is str}


def _entries_in(path: Path) -> int:
    """Distinct entries in one shard, or 1 for a ``<key>.json`` file."""
    return 1 if path.suffix == ".json" else len(_read_shard(path))
