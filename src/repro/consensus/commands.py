"""Command envelopes and proposal batches for the replicated log.

The seed replicated log deduplicated submissions by *value equality*, which is
fragile: two genuinely distinct commands with equal payloads (two ``+1``
increments, say) collapse into one.  A :class:`Command` fixes that by carrying an
explicit identity ``(client_id, seq)`` assigned by the submitting client session:
equality over the frozen dataclass *is* identity, retransmissions of the same
command compare equal (and are deduplicated), while distinct commands with equal
effects compare different (and are both ordered and applied).

A replica remembers which identities it has applied (the state machine's
session table) and which its log has decided (until compaction).  The session
table grows with history, so it stores one client's seqs as a :class:`SeqSet`,
a sorted array of 8-byte integers: each remembered command costs 8 bytes
instead of a hash-set slot and a boxed integer.  Compaction bounds the decided
index to the log's window, so the log keeps it as a plain set of
``(client_id, seq)`` identities.

A :class:`Batch` groups many commands into a single consensus value so that one
consensus instance (one Paxos round trip) orders many commands — the classic
amortisation that turns a per-command protocol into a high-throughput log.

Payload integrity
-----------------
Both envelopes carry a CRC-32 **checksum** over their payload: a batch computes
it at construction, a command the first time something reads it (its hash,
equality, ``repr``, a batch, a ``dataclasses.replace`` copy), so a read served
from a lease never pays for it.  The fault layer's corruption model
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
from array import array
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Optional, Tuple


def _crc32(payload: object) -> int:
    """Stable CRC-32 of a payload's textual representation."""
    return zlib.crc32(repr(payload).encode("utf-8"))


class _ChecksumOnFirstRead:
    """The ``checksum`` of a :class:`Command` built without one.

    A non-data descriptor: the first read of ``command.checksum`` computes
    :meth:`Command.expected_checksum` and stores it on the instance, whose
    attribute then shadows the descriptor, so every later read is a plain
    attribute load.  Read on the class, it is the field's default, ``None``.
    """

    def __get__(
        self, command: Optional["Command"], owner: Optional[type] = None
    ) -> Optional[int]:
        if command is None:
            return None
        checksum = command.expected_checksum()
        object.__setattr__(command, "checksum", checksum)
        return checksum


@dataclasses.dataclass(frozen=True, init=False)
class Command:
    """One client command, uniquely identified by ``(client_id, seq)``.

    Attributes
    ----------
    client_id:
        Identifier of the issuing client session (a ``str``).
    seq:
        Per-client sequence number (1, 2, ...; an ``int``, never a float or a
        bool, which would compare equal to a distinct command's seq);
        retransmissions reuse it, so the state machine can apply each command
        exactly once.
    op:
        Operation name (the key-value store understands ``put``, ``get``,
        ``delete``, ``cas`` and ``incr``).
    key:
        The key the operation addresses (also the sharding key).
    args:
        Operation-specific arguments (must be hashable; commands travel inside
        frozen consensus messages).
    checksum:
        CRC-32 over the payload fields, computed on its first read and kept.
        A command whose stored checksum does not match its recomputed one was
        tampered with in flight (see :func:`payload_intact`); honest code never
        passes ``checksum=`` explicitly.

    The checksum is also the hash: equal commands carry equal checksums.
    """

    client_id: str
    seq: int
    op: str
    key: str
    args: Tuple[Any, ...] = ()
    checksum: Optional[int] = _ChecksumOnFirstRead()

    #: What :meth:`verify` answers.  A command built without a checksum is
    #: intact from birth and stores nothing; a copy built around a carried
    #: checksum stores ``None`` until it is verified.
    _intact = True

    def __init__(
        self,
        client_id: str,
        seq: int,
        op: str,
        key: str,
        args: Tuple[Any, ...] = (),
        checksum: Optional[int] = None,
    ) -> None:
        # Hand-written rather than generated, because one command is built
        # per client operation: the checks run on the arguments, with no
        # ``__post_init__`` call and no field stored twice.  Fields are stored
        # one by one, not through ``self.__dict__``: touching the dict would
        # materialise it and double what a decided command costs.  Without a
        # carried checksum none is stored: the class's descriptor computes it
        # on the first read.  ``__eq__``/``__repr__`` stay generated.
        if not isinstance(client_id, str):
            raise TypeError(f"client_id must be a str, got {client_id!r}")
        if type(seq) is not int:
            raise TypeError(f"seq must be an int, got {seq!r}")
        store = object.__setattr__
        store(self, "client_id", client_id)
        store(self, "seq", seq)
        store(self, "op", op)
        store(self, "key", key)
        store(self, "args", args)
        if checksum is not None:
            store(self, "checksum", checksum)
            store(self, "_intact", None)

    def __hash__(self) -> int:
        return self.checksum

    def expected_checksum(self) -> int:
        """Recompute the CRC-32 the payload fields should carry."""
        return _crc32((self.client_id, self.seq, self.op, self.key, self.args))

    def verify(self) -> bool:
        """True when the carried checksum matches the payload (not tampered).

        A command built without a checksum is intact from birth, so the
        boundary check costs an attribute read on the hot path.  A copy built
        around a carried checksum (``dataclasses.replace``, the corruption
        model) runs the CRC walk once, on its first check, and keeps the
        answer: commands are immutable.
        """
        cached = self._intact
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


def identity_key(value: Any) -> Tuple[Any, Any]:
    """What a decided-value index knows *value* by.

    A :class:`Command` is its identity ``(client_id, seq)``, so a copy with
    another payload is the same member: honest clients never reuse a seq, and
    a garbled copy is rejected by :func:`payload_intact` before a log sees it.
    Any other value (the no-op filler, an opaque test value) is
    ``(None, value)``, kept by equality, and equal to no identity, since a
    ``client_id`` is a ``str``.
    """
    if isinstance(value, Command):
        return value.client_id, value.seq
    return None, value


class SeqSet:
    """An exact set of sequence numbers, kept as one sorted ``array("q")``.

    Membership is a binary search; adding a seq above every stored one — the
    common case, since a client numbers its commands upwards — is an O(1)
    append, and any other add or discard shifts the tail.  Each entry costs
    8 bytes (a ``set`` of ints costs about 40), and iteration yields the seqs
    in ascending order.  Seqs must fit a signed 64-bit integer.
    """

    __slots__ = ("_seqs",)

    def __init__(self, seqs: Iterable[int] = ()) -> None:
        self._seqs = array("q", sorted(set(seqs)))

    @classmethod
    def from_bytes(cls, packed: bytes) -> "SeqSet":
        """The set whose :meth:`to_bytes` gave *packed*."""
        seqs = cls()
        seqs._seqs.frombytes(packed)
        return seqs

    def to_bytes(self) -> bytes:
        """The sorted seqs as machine-order 64-bit integers, 8 bytes each."""
        return self._seqs.tobytes()

    def add(self, seq: int) -> None:
        seqs = self._seqs
        if not seqs or seq > seqs[-1]:
            seqs.append(seq)
            return
        index = bisect_left(seqs, seq)
        if seqs[index] != seq:
            seqs.insert(index, seq)

    def discard(self, seq: int) -> None:
        seqs = self._seqs
        index = bisect_left(seqs, seq)
        if index < len(seqs) and seqs[index] == seq:
            del seqs[index]

    def __contains__(self, seq: object) -> bool:
        seqs = self._seqs
        if not seqs or seq > seqs[-1]:
            return False
        return seqs[bisect_left(seqs, seq)] == seq

    def __iter__(self) -> Iterator[int]:
        return iter(self._seqs)

    def __len__(self) -> int:
        return len(self._seqs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeqSet):
            return NotImplemented
        return self._seqs == other._seqs

    def __repr__(self) -> str:
        return f"SeqSet({list(self._seqs)!r})"


@dataclasses.dataclass(frozen=True)
class Batch:
    """An ordered group of commands decided as one consensus value.

    Carries its own CRC-32 over the *member checksums* (order included), so a
    reordered or substituted member is caught even when each member's own
    checksum still verifies; a garbled member is caught by its member check.
    """

    commands: Tuple[Any, ...]
    checksum: Optional[int] = None

    #: What :meth:`verify` answers, as for :class:`Command`: a batch whose
    #: constructor computed its checksum is intact when its members are, and a
    #: copy around a carried checksum stores ``None`` until it is verified.
    _intact = True

    def __post_init__(self) -> None:
        if self.checksum is not None:
            object.__setattr__(self, "_intact", None)
            return
        object.__setattr__(self, "checksum", self.expected_checksum())
        if not self._members_intact():
            object.__setattr__(self, "_intact", False)

    def expected_checksum(self) -> int:
        """Recompute the CRC-32 over the ordered member checksums."""
        return _crc32(
            tuple(
                command.checksum if isinstance(command, Command) else repr(command)
                for command in self.commands
            )
        )

    def _members_intact(self) -> bool:
        return all(
            command.verify() for command in self.commands if isinstance(command, Command)
        )

    def verify(self) -> bool:
        """True when the batch and every checksummed member are untampered.

        Known from birth for a batch built here, like :meth:`Command.verify`;
        a copy around a carried checksum is checked once, on its first call.
        """
        cached = self._intact
        if cached is None:
            cached = self.checksum == self.expected_checksum() and self._members_intact()
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


def value_checksum(value: Any) -> int:
    """The CRC-32 a decided value is known by: the checksum a command or batch
    carries (computed once, a command's on its first read), else the CRC of
    its ``repr`` (the no-op filler, opaque values of a bare log)."""
    checksum = getattr(value, "checksum", None)
    return _crc32(value) if checksum is None else checksum


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
