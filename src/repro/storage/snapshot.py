"""Snapshots and log compaction: bounded-memory replicas with snapshot catch-up.

Without compaction every replica keeps the entire decided log, the decided-value
index and the durable ``("decided", pos)`` entries forever, and a replica that
fell far behind replays the whole history through ``CATCHUP_REQ/REP`` — memory
and recovery time are O(history).  This module adds the classic cure: periodic
**snapshots** of the applied state plus **truncation** of the decided prefix
they cover, so steady-state residency is O(compaction window) and a laggard's
recovery is bounded by one snapshot transfer plus the decided tail.

The pieces
----------
:class:`Snapshot`
    An immutable, CRC-32-checksummed capture of one replica at one log
    position: the state-machine payload (for the key-value service: data,
    exactly-once session table and applied counters), the snapshot ``floor``
    (first position *not* covered), and the count of values the log delivered
    below it, so an installer adopts a consistent observer counter.  It
    records no per-position values: agreement across snapshot-restored
    replicas is checked by the shard's :class:`~repro.analysis.
    service_metrics.AgreementMonitor`.  The checksum follows the
    :class:`~repro.consensus.commands.Command` discipline: computed at
    construction, verified (memoised) at every trust boundary, so the
    corruption suite cannot forge a snapshot — a tampered chunk surfaces as a
    checksum mismatch over the assembled payload and the transfer is rejected
    and restarted.

:class:`SnapshotManager`
    One per compacting replica, built bound to its
    :class:`~repro.consensus.replicated_log.ReplicatedLog`.  It

    * **captures** a snapshot whenever the contiguous decided prefix grew by
      the policy's ``interval`` (persisting it under ``("snapshot", slot)``
      when a :class:`~repro.storage.stable_store.StableStore` is attached —
      charged through the store's ``WriteCostModel`` like any durable write),
      then truncates everything below ``floor - retain`` out of the log and
      the store;
    * **serves** snapshot transfers: a peer whose catch-up frontier lies below
      the truncation floor receives the latest snapshot in bounded
      :class:`~repro.consensus.messages.SnapshotReply` chunks (the receiver
      pulls further chunks with :class:`~repro.consensus.messages.
      SnapshotRequest`, so a lost chunk just stalls until the next poll);
    * **installs** verified snapshots — received over the wire or found
      durable at recovery — restoring the state machine, fast-forwarding the
      log frontier and truncating everything the snapshot covers.

Durable layout: the last **two** snapshot slots are retained.  A crash in the
middle of the newest snapshot write leaves a torn (checksum-failing) entry;
rehydration detects it, falls back to the previous slot and counts the event
in ``snapshots_rejected`` — the window between the two snapshots is still
covered by the durable decided tail, which is only truncated after the newer
snapshot is fully written.

What compaction does **not** change: quorum-amnesia reasoning.  A snapshot
restores *applied* state, never the acceptor's promise memory — only durable
acceptor state (stable storage) prevents a restarted acceptor from re-promising
a lower ballot.  Truncating acceptor state below the floor is safe precisely
because those positions are decided: a truncated acceptor stays silent for
them (messages below the floor are dropped), which the protocol treats like a
crashed acceptor, and any prepare quorum that completes must include a
non-truncated intersection witness.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.consensus.messages import SnapshotReply, SnapshotRequest
from repro.storage.compaction import CompactionPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.consensus.replicated_log import ReplicatedLog
    from repro.storage.stable_store import StableStore


def _crc32(payload: object) -> int:
    """Stable CRC-32 of a payload's textual representation."""
    return zlib.crc32(repr(payload).encode("utf-8"))


#: State-machine items carried per SnapshotReply chunk (bounds message size,
#: mirroring CATCH_UP_BATCH for decided positions).
SNAPSHOT_CHUNK_ITEMS = 64

#: Durable snapshot slots retained (current + previous, the torn-write fallback).
RETAINED_SNAPSHOTS = 2


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """A checksummed capture of one replica's applied state at ``floor``.

    Attributes
    ----------
    floor:
        First log position **not** covered: the capturing replica's contiguous
        decided frontier at capture time.  Installing the snapshot makes the
        installer's frontier exactly ``floor``.
    delivered_total:
        Non-noop values delivered below ``floor`` (the installer's observer
        counter resumes from here).
    payload:
        Opaque state-machine items (the capture callback's output, e.g.
        ``("kv", ...)`` / ``("session", ...)`` rows for the key-value store).
        A flat tuple so transfers can chunk it.
    checksum:
        CRC-32 over all payload fields, filled in at construction; honest code
        never passes ``checksum=`` explicitly.  A snapshot whose stored
        checksum does not match was torn on disk or tampered in flight.
    """

    floor: int
    delivered_total: int
    payload: Tuple[Any, ...]
    checksum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checksum is None:
            object.__setattr__(self, "checksum", self.expected_checksum())

    def expected_checksum(self) -> int:
        """Recompute the CRC-32 the snapshot's fields should carry.

        Each ``bytes`` field of a payload row (the packed seqs of a session
        row) enters the CRC as its raw bytes, after the ``repr`` of the fields
        with every such field written as its length; ``repr`` would spell most
        stored bytes as four characters.  Nothing is cached here: the answer
        is kept by :meth:`verify`, per object, and nothing invalidates it,
        because a snapshot is frozen and a tampered copy is a new object.
        """
        rows = []
        packed = []
        for row in self.payload:
            if type(row) is tuple and bytes in map(type, row):
                packed.extend(field for field in row if type(field) is bytes)
                row = tuple(len(field) if type(field) is bytes else field for field in row)
            rows.append(row)
        crc = _crc32((self.floor, self.delivered_total, tuple(rows)))
        return zlib.crc32(b"".join(packed), crc)

    def verify(self) -> bool:
        """True when the carried checksum matches the contents (memoised)."""
        cached = getattr(self, "_intact", None)
        if cached is None:
            cached = self.checksum == self.expected_checksum()
            object.__setattr__(self, "_intact", cached)
        return cached

    def chunk_count(self, items_per_chunk: int = SNAPSHOT_CHUNK_ITEMS) -> int:
        """Number of :class:`SnapshotReply` chunks the payload splits into."""
        if not self.payload:
            return 1
        return -(-len(self.payload) // items_per_chunk)

    def chunk(
        self, index: int, items_per_chunk: int = SNAPSHOT_CHUNK_ITEMS
    ) -> SnapshotReply:
        """Build the transfer message for chunk *index*."""
        items = self.payload[index * items_per_chunk : (index + 1) * items_per_chunk]
        return SnapshotReply(
            floor=self.floor,
            delivered_total=self.delivered_total,
            checksum=self.checksum,
            index=index,
            total=self.chunk_count(items_per_chunk),
            items=items,
        )


class _IncomingTransfer:
    """Assembly state of one in-flight snapshot transfer at the receiver."""

    __slots__ = ("floor", "checksum", "delivered_total", "total", "chunks")

    def __init__(self, first: SnapshotReply) -> None:
        self.floor = first.floor
        self.checksum = first.checksum
        self.delivered_total = first.delivered_total
        self.total = first.total
        self.chunks: Dict[int, Tuple[Any, ...]] = {}

    def matches(self, message) -> bool:
        return message.floor == self.floor and message.checksum == self.checksum

    def add(self, message: SnapshotReply) -> None:
        if 0 <= message.index < self.total:
            self.chunks[message.index] = message.items

    @property
    def complete(self) -> bool:
        return len(self.chunks) >= self.total

    def next_missing(self) -> int:
        for index in range(self.total):
            if index not in self.chunks:
                return index
        return self.total  # pragma: no cover - guarded by `complete`

    def assemble(self) -> Snapshot:
        payload: Tuple[Any, ...] = ()
        for index in range(self.total):
            payload += self.chunks[index]
        return Snapshot(
            floor=self.floor,
            delivered_total=self.delivered_total,
            payload=payload,
            checksum=self.checksum,  # carried, so tampering fails verify()
        )


class SnapshotManager:
    """Snapshot capture, transfer and installation for one replica.

    Parameters
    ----------
    log:
        The :class:`~repro.consensus.replicated_log.ReplicatedLog` this
        manager compacts; its owner assigns the manager to the log's
        ``snapshots`` attribute.
    policy:
        The :class:`~repro.storage.compaction.CompactionPolicy` deciding when
        to snapshot and how much decided tail to retain.
    capture:
        Zero-argument callback returning the state machine's payload items
        (a flat tuple of hashable rows); called at each snapshot.
    restore:
        Callback taking such a payload and resetting the state machine to it;
        called when a verified snapshot is installed.

    When stable storage is attached, the log binds the manager to the
    replica's store with :meth:`bind_store`.

    Counts into the log's counter registry:

    ``snapshots_taken``
        Snapshots captured locally.
    ``snapshot_restores``
        Verified snapshots installed — over the wire or from durable storage.
    ``positions_compacted``
        Decided log positions truncated out of memory (and, when durable, out
        of the store).
    ``snapshots_rejected``
        Assembled transfers or durable slots whose checksum failed (tampered
        chunk, torn write).
    ``snapshot_chunks_sent`` / ``snapshot_chunks_received``
        Transfer traffic accounting.
    """

    def __init__(
        self,
        log: "ReplicatedLog",
        policy: CompactionPolicy,
        capture: Callable[[], Tuple[Any, ...]],
        restore: Callable[[Tuple[Any, ...]], None],
    ) -> None:
        self._log = log
        #: The log's counter registry (rehydration counts into it too).
        self.counters = log.counters
        self.policy = policy
        self._capture = capture
        self._restore = restore
        self._store: Optional["StableStore"] = None
        self._latest: Optional[Snapshot] = None
        self._incoming: Optional[_IncomingTransfer] = None
        self._last_floor = 0
        self._next_slot = 0

    # ------------------------------------------------------------------ wiring --
    def bind_store(self, store: "StableStore") -> None:
        self._store = store

    @property
    def latest(self) -> Optional[Snapshot]:
        """The newest verified snapshot this replica holds (serves transfers)."""
        return self._latest

    # ------------------------------------------------------------------ capture --
    def maybe_snapshot(self) -> None:
        """Capture + compact when the prefix grew past the policy interval.

        Called by the log after each frontier advance; cheap when there is
        nothing to do (one subtraction and compare).
        """
        if self.policy.should_snapshot(self._log.frontier, self._last_floor):
            self.take_snapshot()

    def take_snapshot(self) -> Snapshot:
        """Capture the replica's state at its current frontier and compact.

        The order is crash-safe with durable storage: the snapshot is fully
        persisted (a new slot; the previous slot survives as the torn-write
        fallback) *before* the decided tail below the truncation floor is
        deleted, so at every instant either a verifying snapshot or the full
        decided prefix is durable.
        """
        log = self._log
        snapshot = Snapshot(
            floor=log.frontier,
            delivered_total=log.delivered_total,
            payload=self._capture(),
        )
        self._latest = snapshot
        self._last_floor = snapshot.floor
        self.counters["snapshots_taken"] += 1
        if self._store is not None:
            self._persist(snapshot)
        self.counters["positions_compacted"] += log.compact_below(
            self.policy.truncation_floor(snapshot.floor)
        )
        return snapshot

    def _persist(self, snapshot: Snapshot) -> None:
        """Durably write *snapshot* into a fresh slot, then drop old slots."""
        store = self._store
        store.put(("snapshot", self._next_slot), snapshot)
        self._next_slot += 1
        for key, _ in store.items_with_prefix("snapshot"):
            if key[1] <= self._next_slot - 1 - RETAINED_SNAPSHOTS:
                store.delete(key)

    # ------------------------------------------------------------------ serving --
    def serve(self, env, dest: int) -> None:
        """Start a snapshot transfer to *dest* (chunk 0; the receiver pulls on).

        Called by the log when *dest*'s catch-up frontier lies below the
        truncation floor — the positions it wants no longer exist.
        """
        if self._latest is None:
            return
        env.send(dest, self._latest.chunk(0))
        self.counters["snapshot_chunks_sent"] += 1

    def on_request(self, env, sender: int, message: SnapshotRequest) -> None:
        """Answer a receiver pulling chunk ``message.index``.

        If our latest snapshot moved on since the transfer started, restart the
        receiver on the new one (chunk 0 with a different identity).
        """
        snapshot = self._latest
        if snapshot is None:
            return
        if (
            message.floor != snapshot.floor
            or message.checksum != snapshot.checksum
            or not 0 <= message.index < snapshot.chunk_count()
        ):
            env.send(sender, snapshot.chunk(0))
        else:
            env.send(sender, snapshot.chunk(message.index))
        self.counters["snapshot_chunks_sent"] += 1

    # ------------------------------------------------------------------ receiving --
    def on_chunk(self, env, sender: int, message: SnapshotReply) -> None:
        """Process one incoming transfer chunk; install when assembly completes."""
        self.counters["snapshot_chunks_received"] += 1
        log = self._log
        if message.floor <= log.frontier:
            return  # stale transfer: we already advanced past its floor
        incoming = self._incoming
        if incoming is None or not incoming.matches(message):
            if incoming is not None and message.floor < incoming.floor:
                return  # keep assembling the newer snapshot
            incoming = _IncomingTransfer(message)
            self._incoming = incoming
        incoming.add(message)
        if not incoming.complete:
            env.send(
                sender,
                SnapshotRequest(
                    floor=incoming.floor,
                    checksum=incoming.checksum,
                    index=incoming.next_missing(),
                ),
            )
            return
        self._incoming = None
        snapshot = incoming.assemble()
        if not snapshot.verify():
            # A chunk was tampered in flight (the corruption model preserves
            # the carried whole-snapshot checksum, so the garbled payload fails
            # here): reject the transfer.  The next catch-up poll restarts it.
            self.counters["snapshots_rejected"] += 1
            return
        self.install(snapshot, persist=True)

    # ------------------------------------------------------------------ install --
    def install(self, snapshot: Snapshot, persist: bool) -> bool:
        """Adopt a verified *snapshot*: restore state, fast-forward the log.

        Returns False (a no-op) when the local frontier already reached the
        snapshot's floor.  With ``persist`` the installed snapshot is also
        written durably, so a crash right after installation recovers from it
        instead of an empty store.
        """
        log = self._log
        if snapshot.floor <= log.frontier:
            return False
        self._restore(snapshot.payload)
        self._latest = snapshot
        self._last_floor = snapshot.floor
        if persist and self._store is not None:
            self._persist(snapshot)
        self.counters["positions_compacted"] += log.adopt_snapshot(snapshot)
        self.counters["snapshot_restores"] += 1
        return True

    # ------------------------------------------------------------------ recovery --
    def rehydrate(self) -> int:
        """Install the newest *verifying* durable snapshot; return its floor.

        Called by ``ReplicatedLog.attach_storage`` before the decided tail is
        replayed.  A torn newest slot (crash mid-snapshot-write) fails its
        checksum, is counted in ``snapshots_rejected``, deleted, and the
        previous slot is used instead — whose coverage gap is closed by the
        durable decided tail (only truncated after a snapshot is fully
        written).  Returns 0 when no usable snapshot exists.
        """
        store = self._store
        if store is None:
            return 0
        entries = store.items_with_prefix("snapshot")
        if entries:
            self._next_slot = max(key[1] for key, _ in entries) + 1
        best: Optional[Snapshot] = None
        for key, value in reversed(entries):
            if isinstance(value, Snapshot) and value.verify():
                best = value
                break
            self.counters["snapshots_rejected"] += 1
            store.delete(key)
        if best is None:
            return 0
        self.install(best, persist=False)
        return best.floor


__all__ = [
    "RETAINED_SNAPSHOTS",
    "SNAPSHOT_CHUNK_ITEMS",
    "Snapshot",
    "SnapshotManager",
]
