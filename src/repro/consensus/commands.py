"""Command envelopes and proposal batches for the replicated log.

The seed replicated log deduplicated submissions by *value equality*, which is
fragile: two genuinely distinct commands with equal payloads (two ``+1``
increments, say) collapse into one.  A :class:`Command` fixes that by carrying an
explicit identity ``(client_id, seq)`` assigned by the submitting client session:
equality over the frozen dataclass *is* identity, retransmissions of the same
command compare equal (and are deduplicated), while distinct commands with equal
effects compare different (and are both ordered and applied).

A :class:`Batch` groups many commands into a single consensus value so that one
consensus instance (one Paxos round trip) orders many commands — the classic
amortisation that turns a per-command protocol into a high-throughput log.

Payload integrity
-----------------
Both envelopes carry a CRC-32 **checksum** over their payload, computed at
construction.  The fault layer's corruption model
(:mod:`repro.simulation.corruption`) tampers with command payloads *while
preserving the stale checksum*, exactly like a bit-flip on the wire slips past a
forwarding hop but not past an end-to-end check.  :func:`payload_intact` is the
receive-side guard: the replicated log verifies every command-bearing message
before processing it and rejects (drops) tampered deliveries, so a corrupted
command can never be proposed, decided or applied — corruption degrades into
message loss, which the indulgent consensus layer already tolerates.  The
checksum is a deterministic function of the payload fields, so two honestly
constructed copies of the same command still compare (and deduplicate) equal.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Any, Optional, Tuple


def _crc32(payload: object) -> int:
    """Stable CRC-32 of a payload's textual representation."""
    return zlib.crc32(repr(payload).encode("utf-8"))


@dataclasses.dataclass(frozen=True)
class Command:
    """One client command, uniquely identified by ``(client_id, seq)``.

    Attributes
    ----------
    client_id:
        Identifier of the issuing client session.
    seq:
        Per-client sequence number (1, 2, ...); retransmissions reuse it, so the
        state machine can apply each command exactly once.
    op:
        Operation name (the key-value store understands ``put``, ``get``,
        ``delete``, ``cas`` and ``incr``).
    key:
        The key the operation addresses (also the sharding key).
    args:
        Operation-specific arguments (must be hashable; commands travel inside
        frozen consensus messages).
    checksum:
        CRC-32 over the payload fields, filled in automatically at construction.
        A command whose stored checksum does not match its recomputed one was
        tampered with in flight (see :func:`payload_intact`); honest code never
        passes ``checksum=`` explicitly.
    """

    client_id: str
    seq: int
    op: str
    key: str
    args: Tuple[Any, ...] = ()
    checksum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checksum is None:
            object.__setattr__(self, "checksum", self.expected_checksum())

    def expected_checksum(self) -> int:
        """Recompute the CRC-32 the payload fields should carry."""
        return _crc32((self.client_id, self.seq, self.op, self.key, self.args))

    def verify(self) -> bool:
        """True when the carried checksum matches the payload (not tampered).

        Memoised per object: commands are immutable and one command object is
        shared by every message and replica that carries it, so the CRC walk
        runs once per object, not once per delivery — the boundary check costs
        a cached attribute read on the hot path.  A garbled copy is a *new*
        object and gets its own (failing) verification.
        """
        cached = getattr(self, "_intact", None)
        if cached is None:
            cached = self.checksum == self.expected_checksum()
            object.__setattr__(self, "_intact", cached)
        return cached

    # ------------------------------------------------------------ constructors --
    @classmethod
    def put(cls, client_id: str, seq: int, key: str, value: Any) -> "Command":
        """Store *value* under *key*."""
        return cls(client_id=client_id, seq=seq, op="put", key=key, args=(value,))

    @classmethod
    def get(cls, client_id: str, seq: int, key: str) -> "Command":
        """Read the value under *key* (ordered like any other command)."""
        return cls(client_id=client_id, seq=seq, op="get", key=key)

    @classmethod
    def delete(cls, client_id: str, seq: int, key: str) -> "Command":
        """Remove *key*; the result reports whether it existed."""
        return cls(client_id=client_id, seq=seq, op="delete", key=key)

    @classmethod
    def cas(
        cls, client_id: str, seq: int, key: str, expected: Any, new: Any
    ) -> "Command":
        """Compare-and-swap: set *key* to *new* iff its value equals *expected*."""
        return cls(client_id=client_id, seq=seq, op="cas", key=key, args=(expected, new))

    @classmethod
    def incr(cls, client_id: str, seq: int, key: str, delta: int = 1) -> "Command":
        """Add *delta* to the integer counter under *key* (0 when absent)."""
        return cls(client_id=client_id, seq=seq, op="incr", key=key, args=(delta,))


@dataclasses.dataclass(frozen=True)
class Batch:
    """An ordered group of commands decided as one consensus value.

    Carries its own CRC-32 over the *member checksums* (order included), so a
    reordered or substituted member is caught even when each member's own
    checksum still verifies; a garbled member is caught by its member check.
    """

    commands: Tuple[Any, ...]
    checksum: Optional[int] = None

    def __post_init__(self) -> None:
        if self.checksum is None:
            object.__setattr__(self, "checksum", self.expected_checksum())

    def expected_checksum(self) -> int:
        """Recompute the CRC-32 over the ordered member checksums."""
        return _crc32(
            tuple(
                command.checksum if isinstance(command, Command) else repr(command)
                for command in self.commands
            )
        )

    def verify(self) -> bool:
        """True when the batch and every checksummed member are untampered.

        Memoised per object, like :meth:`Command.verify`: a batch is decided
        once and then travels through many messages and replicas unchanged.
        """
        cached = getattr(self, "_intact", None)
        if cached is None:
            cached = self.checksum == self.expected_checksum() and all(
                command.verify()
                for command in self.commands
                if isinstance(command, Command)
            )
            object.__setattr__(self, "_intact", cached)
        return cached

    def __len__(self) -> int:
        return len(self.commands)


def flatten_value(value: Any) -> Tuple[Any, ...]:
    """Return the commands carried by a decided value.

    A :class:`Batch` contributes its members in order; any other value (a bare
    command, a legacy opaque value) contributes itself.
    """
    if isinstance(value, Batch):
        return value.commands
    return (value,)


def _value_intact(value: Any) -> bool:
    """True when *value* carries no checksum or its checksum verifies."""
    verify = getattr(value, "verify", None)
    if verify is None:
        return True
    return bool(verify())


def _rows_intact(rows: Optional[Tuple[tuple, ...]]) -> bool:
    """True when every row's value (its last element) is intact."""
    return not rows or all(_value_intact(row[-1]) for row in rows)


def payload_intact(message: Any) -> bool:
    """True when every checksummed payload carried by *message* verifies.

    This is the digest check at the consensus/service boundary: the replicated
    log calls it on every incoming message and drops tampered ones (counting
    them), so corruption on a link degrades into message loss rather than a
    divergent decision or a garbled state-machine command.  The walk mirrors the
    shapes the corruption model can tamper with — a wrapped envelope's
    ``inner``, a ``value`` field, and the rows of a catch-up reply's or a
    promise's ``decisions`` and of a promise's ``accepted`` (the value is the
    last element of each row); messages carrying none of these are trivially
    intact.
    """
    inner = getattr(message, "inner", None)
    if inner is not None:
        return payload_intact(inner)
    if not _value_intact(getattr(message, "value", None)):
        return False
    return _rows_intact(getattr(message, "decisions", None)) and _rows_intact(
        getattr(message, "accepted", None)
    )
