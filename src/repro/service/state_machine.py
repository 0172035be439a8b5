"""The replicated state machine applied from the delivered log prefix.

The consensus layer totally orders opaque values; :class:`KeyValueStore` gives
those values meaning.  Because every correct replica applies the same command
sequence (the delivered prefix of :class:`~repro.consensus.replicated_log.
ReplicatedLog`) to a deterministic machine, all replicas traverse identical
states — the classic replicated-state-machine reading of Theorem 5.

The store is string-keyed, with ``put``/``get``/``delete``/``cas``/``incr`` and
**exactly-once** application.  The log may legitimately decide the same command
at two positions (a client retried through a second gateway, or two leaders
proposed overlapping batches); the store tracks, per client session, the
applied sequence numbers and the latest cached result, so re-applications are
no-ops that return the original result.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, Tuple

from repro.consensus.commands import Command, SeqSet

#: Sentinel distinguishing "key absent" from "value is None" in ``delete``.
_MISSING = object()


@dataclasses.dataclass
class ClientSessionState:
    """Exactly-once bookkeeping for one client at one shard.

    A shard sees an arbitrary *subset* of a client's sequence numbers (the other
    commands hashed to other shards, and lease-served reads are never applied)
    in decided-log order, which need not be seq order.  Deduplication therefore
    tracks the applied seq *set*: no contiguous-prefix watermark could ever
    advance past the first seq this shard never sees.  The set is a
    :class:`~repro.consensus.commands.SeqSet`, 8 bytes per applied command.
    ``last_seq``/``last_result`` cache the most recently applied command so a
    retry of it can be answered with the original result.
    """

    applied_seqs: SeqSet = dataclasses.field(default_factory=SeqSet)
    last_seq: int = -1
    last_result: Any = None


class KeyValueStore:
    """String-keyed store with exactly-once command application.

    Attributes
    ----------
    applied:
        Number of commands that took effect (duplicates excluded).
    duplicates_skipped:
        Number of re-applications absorbed by the session table.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}
        self._sessions: Dict[str, ClientSessionState] = {}
        self.applied = 0
        self.duplicates_skipped = 0

    # ------------------------------------------------------------------ application --
    def apply(self, command: Command) -> Any:
        """Apply one command and return its result (idempotent per identity)."""
        if not isinstance(command, Command):
            raise TypeError(
                f"KeyValueStore can only apply Command values, got {command!r}"
            )
        session = self._sessions.get(command.client_id)
        if session is None:
            session = ClientSessionState()
            self._sessions[command.client_id] = session
        if command.seq in session.applied_seqs:
            # Exactly-once: this (client_id, seq) already took effect.  Return the
            # cached result when it is the latest command, nothing otherwise.
            self.duplicates_skipped += 1
            return session.last_result if command.seq == session.last_seq else None
        result = self._execute(command)
        session.applied_seqs.add(command.seq)
        session.last_seq = command.seq
        session.last_result = result
        self.applied += 1
        return result

    #: Operation -> the argument counts :meth:`_execute` runs it with.
    ARITIES: Dict[str, Tuple[int, ...]] = {
        "put": (1,),
        "get": (0,),
        "delete": (0,),
        "cas": (2,),
        "incr": (0, 1),
    }

    @classmethod
    def check_operation(cls, command: Command) -> None:
        """Raise ``ValueError`` unless :meth:`_execute` can run *command*: its
        op is one of :attr:`ARITIES` and its args are as many as the op takes.

        A replica checks at submit, since a decided command that fails here
        would raise out of every replica that applies it.
        """
        arities = cls.ARITIES.get(command.op)
        if arities is None:
            raise ValueError(f"unknown operation {command.op!r}")
        if len(command.args) not in arities:
            raise ValueError(
                f"{command.op} takes {' or '.join(map(str, arities))} argument(s),"
                f" got {command.args!r}"
            )

    def _execute(self, command: Command) -> Any:
        op, key, args = command.op, command.key, command.args
        if op == "put":
            self._data[key] = args[0]
            return "OK"
        if op == "get":
            return self._data.get(key)
        if op == "delete":
            return self._data.pop(key, _MISSING) is not _MISSING
        if op == "cas":
            expected, new = args
            if self._data.get(key) == expected:
                self._data[key] = new
                return True
            return False
        if op == "incr":
            delta = args[0] if args else 1
            current = self._data.get(key, 0)
            # A non-integer value (e.g. written by a put) deterministically resets
            # the counter: apply() must never raise, or replicas could diverge.
            base = current if isinstance(current, int) and not isinstance(current, bool) else 0
            value = base + delta
            self._data[key] = value
            return value
        raise ValueError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------ queries --
    def get(self, key: str, default: Any = None) -> Any:
        """Read *key* locally (no ordering; use a ``get`` command for linearizable reads)."""
        return self._data.get(key, default)

    def __len__(self) -> int:
        return len(self._data)

    def is_applied(self, client_id: str, seq: int) -> bool:
        """True once the command identified by ``(client_id, seq)`` took effect."""
        session = self._sessions.get(client_id)
        return session is not None and seq in session.applied_seqs

    def last_seq(self, client_id: str) -> int:
        """Most recently applied sequence number of *client_id* (-1 when none)."""
        session = self._sessions.get(client_id)
        return session.last_seq if session is not None else -1

    def last_result(self, client_id: str) -> Any:
        """Result of the most recently applied command of *client_id*."""
        session = self._sessions.get(client_id)
        return session.last_result if session is not None else None

    def snapshot(self) -> Dict[str, Any]:
        """Return a copy of the materialised keys."""
        return dict(self._data)

    def sessions(self) -> Dict[str, Tuple[int, ...]]:
        """Return client_id -> sorted applied sequence numbers."""
        return {
            client: tuple(session.applied_seqs)
            for client, session in self._sessions.items()
        }

    def digest(self) -> str:
        """SHA-256 over the sorted data items and per-client applied-seq sets.

        Two replicas that applied the same command prefix have equal digests; the
        session table is included so that agreement covers exactly-once bookkeeping,
        not just the materialised keys.
        """
        payload = repr(
            (sorted(self._data.items()), sorted(self.sessions().items()))
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    # ------------------------------------------------------------------ snapshots --
    def snapshot_items(self) -> Tuple[Any, ...]:
        """Serialize data, exactly-once session table and counters as flat rows.

        Row shapes (all hashable, so snapshot chunks travel inside frozen
        messages like any command payload):

        * ``("meta", applied, duplicates_skipped)`` — the apply counters;
        * ``("kv", key, value)`` — one materialised key;
        * ``("session", client_id, packed_seqs, last_seq, last_result)`` —
          one client's exactly-once state: the complete applied-seq set, so
          dedup below a compaction floor keeps working from the snapshot, as
          the ``bytes`` of :meth:`~repro.consensus.commands.SeqSet.to_bytes`
          (8 per seq, where a tuple of ints costs about 36).

        Keys and clients are sorted, making the payload — and therefore the
        snapshot's CRC — a deterministic function of the state.
        """
        items: list = [("meta", self.applied, self.duplicates_skipped)]
        for key in sorted(self._data):
            items.append(("kv", key, self._data[key]))
        for client in sorted(self._sessions):
            session = self._sessions[client]
            items.append(
                (
                    "session",
                    client,
                    session.applied_seqs.to_bytes(),
                    session.last_seq,
                    session.last_result,
                )
            )
        return tuple(items)

    def restore_snapshot(self, items: Tuple[Any, ...]) -> None:
        """Reset this store to the state captured by :meth:`snapshot_items`."""
        self._data = {}
        self._sessions = {}
        self.applied = 0
        self.duplicates_skipped = 0
        for item in items:
            kind = item[0]
            if kind == "meta":
                _, self.applied, self.duplicates_skipped = item
            elif kind == "kv":
                _, key, value = item
                self._data[key] = value
            elif kind == "session":
                _, client, packed_seqs, last_seq, last_result = item
                self._sessions[client] = ClientSessionState(
                    applied_seqs=SeqSet.from_bytes(packed_seqs),
                    last_seq=last_seq,
                    last_result=last_result,
                )
            else:
                raise ValueError(f"unknown snapshot item kind {kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KeyValueStore(keys={len(self._data)}, applied={self.applied}, "
            f"duplicates={self.duplicates_skipped})"
        )
