"""Content-addressed artifact cache: in-memory LRU over a pickle store.

Every expensive pipeline stage (calibrated profiles, generated traces,
annotated traces and the memory systems that annotated them) is keyed by a
SHA-256 hash of the *content* that produced it — the workload profile,
experiment settings, trace variant and memory-side configuration — so a
key can never serve a stale artifact: any input change changes the key.
Values flow through two tiers:

1. an in-memory LRU (object identity preserved within a process), and
2. an optional on-disk pickle store (shared between processes and runs).

The store pickles whatever it is given; the values decide their own form.
The Workbench stores ``trace`` and ``annotation`` artifacts as
:mod:`repro.trace.columns` lists, which pickle as struct-of-arrays columns
(~31 bytes per annotated instruction instead of ~77) and unpickle with the
cyclic garbage collector paused.  The ``memory`` kind holds the
``MemorySystem`` of an annotation under the annotation's key, apart from
it, so a run that only simulates never loads it.

Disk writes are atomic (temp file + ``os.replace``), so parallel workers
racing to fill the same key are safe: last writer wins and every reader
sees either nothing or a complete artifact.  Unreadable, truncated or
damaged entries (a decoder that rejects its columns raises
``pickle.UnpicklingError``) are treated as misses and deleted.

``SCHEMA_SALT`` versions the key space; bump it whenever the pipeline's
semantics or an artifact's stored form change, so old cache directories
are ignored rather than trusted.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bump when trace generation / annotation semantics or an artifact's
#: stored form change incompatibly.  v2: columnar traces and annotations,
#: memory systems under their own ``memory`` kind.
SCHEMA_SALT = "repro-artifacts-v2"

#: Internal miss marker: distinguishes "no entry" from a cached ``None``
#: (a ``None``-returning factory is a legitimate artifact and must not be
#: recomputed on every lookup).
_MISS = object()


def stable_token(obj: Any) -> str:
    """A canonical, process-independent string rendering of *obj*.

    Supports the value types configuration objects are made of: scalars,
    strings, enums, (frozen) dataclasses and the standard containers.
    Anything else raises ``TypeError`` — an unstable ``repr`` silently
    corrupting cache keys is far worse than a loud failure.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)  # repr round-trips floats exactly
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={stable_token(getattr(obj, f.name))}"
            for f in fields(obj)
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(stable_token(item) for item in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(stable_token(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            (stable_token(key), stable_token(value))
            for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(
        f"cannot build a stable cache token for {type(obj).__name__}"
    )


def content_key(kind: str, *parts: Any) -> str:
    """SHA-256 content hash identifying one artifact."""
    token = stable_token((SCHEMA_SALT, kind) + parts)
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def snapshot(self) -> Tuple[int, int]:
        """(hits, misses) — for computing per-job deltas."""
        return (self.hits, self.misses)

    def register_metrics(self, registry: Any, prefix: str = "cache") -> None:
        """Expose this cache's tiers as gauges on a
        :class:`repro.obs.metrics.MetricsRegistry`."""
        registry.gauge(
            f"{prefix}_memory_hits", lambda: self.memory_hits,
            help="artifact cache hits served from the in-memory LRU",
        )
        registry.gauge(
            f"{prefix}_disk_hits", lambda: self.disk_hits,
            help="artifact cache hits served from the on-disk store",
        )
        registry.gauge(
            f"{prefix}_misses", lambda: self.misses,
            help="artifact cache misses (artifact recomputed)",
        )
        registry.gauge(
            f"{prefix}_writes", lambda: self.writes,
            help="artifacts written to the on-disk store",
        )
        registry.gauge(
            f"{prefix}_evictions", lambda: self.evictions,
            help="in-memory LRU evictions",
        )


class ArtifactCache:
    """Two-tier content-addressed cache for pipeline artifacts.

    ``directory=None`` disables the persistent tier: the cache degrades to a
    plain in-memory LRU, which is exactly the old Workbench behaviour.
    """

    def __init__(
        self,
        directory: str | Path | None,
        memory_entries: int = 128,
    ) -> None:
        if memory_entries < 1:
            raise ValueError("memory_entries must be positive")
        self.directory: Optional[Path] = (
            Path(directory) if directory is not None else None
        )
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        #: Per-key writer locks: publish (put) and eviction (prune) of the
        #: same key serialize, so a prune working from a stale directory
        #: listing can never unlink an entry a concurrent writer just
        #: republished.
        self._key_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._key_locks_guard = threading.Lock()

    def _lock_for(self, kind: str, key: str) -> threading.Lock:
        with self._key_locks_guard:
            return self._key_locks.setdefault((kind, key), threading.Lock())

    # ------------------------------------------------------------ lookup --

    def get(self, kind: str, key: str, default: Any = None) -> Any:
        """The cached value, consulting memory then disk."""
        mem_key = (kind, key)
        if mem_key in self._memory:
            self._memory.move_to_end(mem_key)
            self.stats.memory_hits += 1
            return self._memory[mem_key]
        value = self._read_disk(kind, key)
        if value is not _MISS:
            self._remember(mem_key, value)
            self.stats.disk_hits += 1
            return value
        self.stats.misses += 1
        return default

    def get_or_create(
        self, kind: str, key: str, factory: Callable[[], Any]
    ) -> Any:
        """The cached value, computing and storing it on a miss."""
        sentinel = object()
        value = self.get(kind, key, default=sentinel)
        if value is not sentinel:
            return value
        value = factory()
        self.put(kind, key, value)
        return value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Insert into the LRU and (when persistent) write through to disk."""
        self._remember((kind, key), value)
        self.stats.writes += 1
        if self.directory is None:
            return
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: writers never expose a partial pickle.  The
        # per-key lock additionally orders this publish against a
        # concurrent prune of the same key.
        with self._lock_for(kind, key):
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".pkl"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(
                        value, handle, protocol=pickle.HIGHEST_PROTOCOL,
                    )
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    # ---------------------------------------------------------- internals --

    def _remember(self, mem_key: Tuple[str, str], value: Any) -> None:
        self._memory[mem_key] = value
        self._memory.move_to_end(mem_key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _read_disk(self, kind: str, key: str) -> Any:
        """The stored value, or the ``_MISS`` marker — never conflated."""
        if self.directory is None:
            return _MISS
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return _MISS
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            # Truncated or stale entry: drop it and treat as a miss.
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS

    def _path(self, kind: str, key: str) -> Path:
        assert self.directory is not None
        return self.directory / kind / key[:2] / f"{key}.pkl"

    # -------------------------------------------------------------- admin --

    def clear_memory(self) -> None:
        """Drop the in-memory tier (persistent artifacts survive)."""
        self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)

    # ---------------------------------------------------- disk-tier admin --

    def _disk_entries(self) -> List["DiskEntry"]:
        """Every persisted artifact, with its size and mtime.

        Temp files mid-publish (``.tmp-*``) are skipped; entries that vanish
        while being statted (a concurrent prune or replace) are skipped too.
        """
        if self.directory is None or not self.directory.is_dir():
            return []
        entries: List[DiskEntry] = []
        for kind_dir in sorted(self.directory.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.pkl")):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append(DiskEntry(
                    kind=kind_dir.name,
                    key=path.stem,
                    path=path,
                    bytes=stat.st_size,
                    mtime=stat.st_mtime,
                ))
        return entries

    def disk_stats(self) -> "DiskTierStats":
        """Entry count and footprint of the persistent tier, by kind."""
        stats = DiskTierStats()
        for entry in self._disk_entries():
            stats.entries += 1
            stats.total_bytes += entry.bytes
            kind_entries, kind_bytes = stats.by_kind.get(entry.kind, (0, 0))
            stats.by_kind[entry.kind] = (
                kind_entries + 1, kind_bytes + entry.bytes,
            )
        return stats

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> "PruneResult":
        """Evict persistent entries, oldest-mtime first.

        ``older_than`` removes every entry whose mtime is more than that many
        seconds in the past; ``max_bytes`` then evicts the oldest remaining
        entries (LRU by mtime — reads do not touch mtime, so this is really
        least-recently-*written*) until the tier fits.  Both criteria may be
        combined; with neither, nothing is removed.  The in-memory tier is
        untouched: evicted artifacts may survive there until process exit.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if older_than is not None and older_than < 0:
            raise ValueError("older_than must be non-negative")
        entries = sorted(self._disk_entries(), key=lambda e: e.mtime)
        total = sum(entry.bytes for entry in entries)
        cutoff = (
            (now if now is not None else time.time()) - older_than
            if older_than is not None else None
        )
        result = PruneResult(
            remaining_entries=len(entries), remaining_bytes=total,
        )
        for index, entry in enumerate(entries):
            stale = cutoff is not None and entry.mtime < cutoff
            over = (
                max_bytes is not None and result.remaining_bytes > max_bytes
            )
            if not stale and not over:
                if max_bytes is None:
                    break  # mtime-sorted: nothing later is stale either
                continue
            # Under the key's writer lock, re-stat before unlinking: the
            # listing above may be stale, and a writer may have republished
            # this key since — its fresh entry must survive the prune.
            with self._lock_for(entry.kind, entry.key):
                try:
                    current_mtime = entry.path.stat().st_mtime
                except FileNotFoundError:
                    # Concurrent removal: already gone, still count it out.
                    result.removed_entries += 1
                    result.removed_bytes += entry.bytes
                    result.remaining_entries -= 1
                    result.remaining_bytes -= entry.bytes
                    continue
                except OSError:
                    continue  # unstattable entry stays in remaining totals
                if current_mtime != entry.mtime:
                    continue  # republished since the listing: keep it
                try:
                    entry.path.unlink()
                except FileNotFoundError:
                    pass
                except OSError:
                    continue  # unremovable entry stays in remaining totals
            result.removed_entries += 1
            result.removed_bytes += entry.bytes
            result.remaining_entries -= 1
            result.remaining_bytes -= entry.bytes
        return result


@dataclass(frozen=True)
class DiskEntry:
    """One persisted artifact on disk."""

    kind: str
    key: str
    path: Path
    bytes: int
    mtime: float


@dataclass
class DiskTierStats:
    """Footprint of the persistent tier."""

    entries: int = 0
    total_bytes: int = 0
    #: kind -> (entry count, bytes)
    by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)


@dataclass
class PruneResult:
    """Outcome of one :meth:`ArtifactCache.prune` pass."""

    removed_entries: int = 0
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0


def resolve_cache_dir(cache_dir: str | Path | None) -> Optional[Path]:
    """Resolve the Workbench/runner ``cache_dir`` convention.

    ``"auto"`` means: honour the ``REPRO_CACHE_DIR`` environment variable,
    defaulting to ``.repro-cache`` under the current directory (covered by
    ``.gitignore``).  ``None`` disables persistence; anything else is used
    as given.
    """
    if cache_dir is None:
        return None
    if cache_dir == "auto":
        return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
    return Path(cache_dir)
