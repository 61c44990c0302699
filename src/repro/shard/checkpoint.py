"""Digest-verified checkpoint persistence and fault-injection hooks.

A checkpoint is a :class:`~repro.core.snapshot.SimulatorSnapshot` wrapped
in a :class:`CheckpointRecord` that also carries the job spec and
experiment settings that produced it — self-contained enough that
``mlpsim resume <token>`` can rebuild the whole run from the token alone.
Records live in the shared :class:`~repro.engine.cache.ArtifactCache`
under the ``checkpoint`` kind; the record key (the *resume token*) is the
content hash of (spec, settings), so a retried or resubmitted job finds its
own latest checkpoint with no coordination.

Integrity: the record stores a SHA-256 digest of the snapshot's canonical
wire encoding.  :meth:`CheckpointStore.load` recomputes and compares it,
raising :class:`~repro.errors.CheckpointCorruptError` on mismatch — a
corrupt checkpoint is discarded and the shard restarts from its beginning,
never resumed into a silently wrong state.

:class:`FaultInjector` interprets ``JobSpec.fault`` strings for the
recovery tests and the CI fault-injection smoke:

- ``"kill@M"`` — at the first checkpoint at or past the absolute trace
  position *M* (only in the shard whose span holds *M*), persist
  the checkpoint, then kill the executing attempt (``os._exit`` in a pool
  worker, an exception on the serial path).
- ``"corrupt@M"`` — same trigger, but the persisted record is tampered
  first, so the retry's resume attempt must detect the corruption.

Both fire once per cache directory (a marker file records the firing), so
the retry that follows demonstrates real recovery instead of dying again.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple, TYPE_CHECKING

from ..core.snapshot import SimulatorSnapshot
from ..core.store_unit import StoreEntry, StoreUnitStats
from ..core.window import DeferredLoad
from ..engine import serialize
from ..engine.cache import ArtifactCache, content_key
from ..errors import CheckpointCorruptError, FaultInjectedError

if TYPE_CHECKING:
    from ..engine.runner import JobSpec
    from ..harness.experiment import ExperimentSettings

__all__ = [
    "CheckpointRecord",
    "CheckpointStore",
    "FaultInjector",
    "snapshot_digest",
]

#: Checkpoint record schema version.
CHECKPOINT_VERSION = 1


def snapshot_digest(snapshot: SimulatorSnapshot) -> str:
    """SHA-256 of the snapshot's canonical wire encoding."""
    payload = json.dumps(
        serialize.to_jsonable(snapshot), sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CheckpointRecord:
    """One persisted checkpoint: snapshot + provenance + integrity digest."""

    version: int
    spec: "JobSpec"
    settings: "ExperimentSettings"
    snapshot: SimulatorSnapshot
    digest: str

    def verify(self) -> SimulatorSnapshot:
        """The snapshot, after recomputing and checking its digest."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint record version {self.version} != "
                f"{CHECKPOINT_VERSION}"
            )
        actual = snapshot_digest(self.snapshot)
        if actual != self.digest:
            raise CheckpointCorruptError(
                f"checkpoint digest mismatch (stored {self.digest[:12]}..., "
                f"recomputed {actual[:12]}...); discarding checkpoint"
            )
        return self.snapshot


class CheckpointStore:
    """Checkpoint persistence over the shared artifact cache."""

    KIND = "checkpoint"

    def __init__(self, cache: ArtifactCache) -> None:
        self.cache = cache

    @staticmethod
    def token(spec: "JobSpec", settings: "ExperimentSettings") -> str:
        """The resume token: content hash of the work the checkpoint is for.

        The fault-injection field is excluded so a clean resubmission of
        the same job finds checkpoints written by a faulted attempt.
        """
        clean = replace(spec, fault="")
        return content_key("checkpoint", clean, settings)

    def save(
        self,
        spec: "JobSpec",
        settings: "ExperimentSettings",
        snapshot: SimulatorSnapshot,
    ) -> str:
        """Persist *snapshot* (replacing any older checkpoint); returns the
        resume token."""
        record = CheckpointRecord(
            version=CHECKPOINT_VERSION,
            spec=spec,
            settings=settings,
            snapshot=snapshot,
            digest=snapshot_digest(snapshot),
        )
        key = self.token(spec, settings)
        self.cache.put(self.KIND, key, record)
        return key

    def load_record(self, token: str) -> Optional[CheckpointRecord]:
        """The stored record for *token*, unverified; ``None`` if absent."""
        record = self.cache.get(self.KIND, token)
        if record is None:
            return None
        if not isinstance(record, CheckpointRecord):
            raise CheckpointCorruptError(
                f"checkpoint entry {token[:12]}... holds a "
                f"{type(record).__name__}, not a CheckpointRecord"
            )
        return record

    def load(
        self, spec: "JobSpec", settings: "ExperimentSettings",
    ) -> Optional[SimulatorSnapshot]:
        """The latest verified snapshot for (spec, settings), or ``None``.

        Raises :class:`CheckpointCorruptError` when a record exists but
        fails verification; callers discard it (:meth:`discard`) and
        restart the shard.
        """
        record = self.load_record(self.token(spec, settings))
        if record is None:
            return None
        return record.verify()

    def discard(self, spec: "JobSpec", settings: "ExperimentSettings") -> None:
        """Drop the checkpoint for (spec, settings) from both cache tiers."""
        token = self.token(spec, settings)
        self.cache._memory.pop((self.KIND, token), None)
        if self.cache.directory is not None:
            try:
                self.cache._path(self.KIND, token).unlink()
            except OSError:
                pass


# ---------------------------------------------------------------- faults --

#: In-memory fired-marker fallback for cache-less (memory-only) runs.
_FIRED_IN_PROCESS: set = set()


class FaultInjector:
    """Interprets a ``JobSpec.fault`` string at checkpoint time.

    Grammar: ``""`` (no fault), ``"kill@M"`` or ``"corrupt@M"`` with *M* an
    absolute trace position.  The injector belongs to the shard spanning
    ``[start:stop)`` (``stop=None`` is the natural end) and is armed only
    when that span holds *M*, so one fault fires in one shard.  It fires at
    the first checkpoint whose absolute position (``start`` plus the
    shard-relative snapshot position) is at or past *M*, exactly once per
    (fault, token) — the marker file lives next to the cache so the firing
    survives the worker's death.
    """

    def __init__(
        self, fault: str, cache: ArtifactCache, token: str,
        start: int = 0, stop: Optional[int] = None,
    ) -> None:
        self.kind, self.at = self._parse(fault)
        self.cache = cache
        self.token = token
        self.start = start
        self.armed = (
            bool(self.kind)
            and start <= self.at
            and (stop is None or self.at < stop)
        )

    @staticmethod
    def _parse(fault: str) -> Tuple[str, int]:
        if not fault:
            return "", 0
        kind, sep, raw = fault.partition("@")
        if kind not in ("kill", "corrupt") or not sep:
            raise ValueError(
                f"unknown fault spec {fault!r}; expected 'kill@M' or "
                f"'corrupt@M'"
            )
        try:
            position = int(raw)
        except ValueError:
            raise ValueError(
                f"fault position in {fault!r} must be an integer"
            ) from None
        return kind, position

    def _marker(self) -> Optional[str]:
        if self.cache.directory is None:
            return None
        return str(
            self.cache.directory / "faults" / f"{self.kind}-{self.token}.fired"
        )

    def _fire_once(self) -> bool:
        """Atomically claim the right to fire; False if already fired."""
        marker = self._marker()
        if marker is None:
            key = (self.kind, self.token)
            if key in _FIRED_IN_PROCESS:
                return False
            _FIRED_IN_PROCESS.add(key)
            return True
        os.makedirs(os.path.dirname(marker), exist_ok=True)
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def corrupts_next_save(self, snapshot: SimulatorSnapshot) -> bool:
        """True when this checkpoint save should be tampered (claims the
        firing; the caller must follow up with :meth:`terminate`)."""
        return (
            self.armed
            and self.kind == "corrupt"
            and self.start + snapshot.pos >= self.at
            and self._fire_once()
        )

    def should_kill(self, snapshot: SimulatorSnapshot) -> bool:
        """True when the attempt should die after this checkpoint save."""
        return (
            self.armed
            and self.kind == "kill"
            and self.start + snapshot.pos >= self.at
            and self._fire_once()
        )

    def terminate(self, in_worker: bool) -> None:
        """Kill the current attempt: hard exit in a pool worker (the
        process is disposable), an exception on the serial path (the
        caller's process must survive to retry)."""
        if in_worker:
            os._exit(17)
        raise FaultInjectedError(
            f"fault injection: {self.kind}@{self.at} fired"
        )


serialize.register(
    SimulatorSnapshot, DeferredLoad, StoreEntry, StoreUnitStats,
    CheckpointRecord,
)
