"""On-disk content-addressed result cache.

Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fan-out keeps
directories small over full-corpus sweeps.  Values are the evaluator's
plain-JSON result dicts; Python's ``json`` round-trips floats through
their shortest-repr form, so a cached result is **bit-identical** to a
freshly computed one (the differential test relies on this).

Writes are atomic (temp file + ``os.replace``) so concurrent engines
sharing one cache directory never observe torn entries.

Corrupt entries (truncated writes that predate the atomic-rename
scheme, disk rot, a crashed tool holding the file open) are **not**
silently conflated with misses: the lookup counts them in
:attr:`CacheStats.corrupt`, quarantines the damaged file under
``<root>/corrupt/`` so it cannot fail every future lookup of that key,
and logs a warning once per cache instance.  The caller still sees
``None`` — a recomputed result will simply re-populate the slot.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

log = logging.getLogger(__name__)

#: subdirectory (under the cache root) holding quarantined corrupt
#: entries; never matched by the ``??/*.json`` entry globs
CORRUPT_DIR = "corrupt"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: entries that existed but failed to parse (quarantined, not counted
    #: as misses — the accounting identity is hits+misses+corrupt == lookups)
    corrupt: int = 0
    #: put() calls that failed with OSError and were absorbed by the engine
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.corrupt

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Content-addressed store of evaluator results."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.stats = CacheStats()
        self._warned_corrupt = False

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(
        self, key: str, stats: Optional[CacheStats] = None
    ) -> Optional[dict[str, Any]]:
        """The entry under *key*, or ``None`` for a miss or a corrupt
        entry.  The lookup counts in :attr:`stats` and, when given, in
        *stats* too (a tally of one engine batch, which concurrent
        batches do not touch)."""
        tallies = (self.stats,) if stats is None else (self.stats, stats)
        path = self._path(key)
        try:
            value = json.loads(path.read_text())
        except FileNotFoundError:
            for s in tallies:
                s.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            for s in tallies:
                s.corrupt += 1
            self._quarantine(path, exc)
            return None
        for s in tallies:
            s.hits += 1
        return value

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a corrupt entry aside so it cannot fail future lookups."""
        dest = self.root / CORRUPT_DIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
            where = f"quarantined to {dest}"
        except OSError:
            try:
                path.unlink()
                where = "removed (quarantine dir unwritable)"
            except OSError:
                where = "left in place (unremovable)"
        if not self._warned_corrupt:
            self._warned_corrupt = True
            log.warning(
                "corrupt cache entry %s (%s: %s); %s — further corrupt "
                "entries in this cache will be quarantined silently",
                path.name, type(exc).__name__, exc, where,
            )

    def put(self, key: str, value: dict[str, Any]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(value, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1

    def corrupt_entries(self) -> list[Path]:
        """Quarantined corrupt files (diagnostics; empty when healthy)."""
        d = self.root / CORRUPT_DIR
        return sorted(d.glob("*.json")) if d.is_dir() else []

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        n = 0
        if not self.root.is_dir():
            return n
        for p in self.root.glob("??/*.json"):
            p.unlink(missing_ok=True)
            n += 1
        for p in self.root.glob(f"{CORRUPT_DIR}/*.json"):
            p.unlink(missing_ok=True)
        for d in (*self.root.glob("??"), self.root / CORRUPT_DIR):
            try:
                d.rmdir()
            except OSError:
                pass
        return n
