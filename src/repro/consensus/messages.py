"""Messages of the Omega-based consensus / replicated-log layer.

The consensus protocol is a classical ballot-based, quorum-ack protocol in its
Multi-Paxos form (in the family of the leader-based indulgent consensus
algorithms the paper cites [8, 12, 17]): **one ballot covers many log
positions**.  A ``Prepare``/``Promise`` exchange is about the whole log suffix
from ``from_position`` on, so a leader that keeps its ballot runs only
``AcceptRequest``/``Accepted``/``Decide`` per position.  Ballots are totally
ordered integers; ballot ``b`` of proposer ``p`` in an ``n``-process system is
encoded as ``b = attempt * n + p`` so that two proposers never use the same
ballot.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Tuple

from repro.core import messages as core_messages
from repro.core.interfaces import Message


@dataclasses.dataclass(frozen=True, slots=True)
class Prepare(Message):
    """Phase-1a, once per leadership: the proposer asks acceptors to promise
    ``ballot`` for every log position at or above ``from_position`` (its
    frontier — everything below is decided at the proposer)."""

    ballot: int
    from_position: int

    @property
    def tag(self) -> str:
        return "PREPARE"


@dataclasses.dataclass(frozen=True, slots=True)
class Promise(Message):
    """Phase-1b: an acceptor promises ``ballot`` log-wide and reveals what it
    holds at or above the ``Prepare``'s ``from_position``.

    ``accepted`` lists ``(position, accepted_ballot, accepted_value)`` for
    every undecided position it has accepted a value at — the proposer must
    re-propose the highest-ballot value per position; ``decisions`` lists
    ``(position, value)`` for the positions it knows decided (the
    :class:`CatchUpReply` shape), which the proposer simply learns.  Both are
    in position order and never reach below the sender's compaction floor.
    """

    ballot: int
    accepted: Tuple[Tuple[int, int, Any], ...]
    decisions: Tuple[Tuple[int, Any], ...]

    @property
    def tag(self) -> str:
        return "PROMISE"


@dataclasses.dataclass(frozen=True, slots=True)
class AcceptRequest(Message):
    """Phase-2a: the proposer asks acceptors to accept ``value`` at ``ballot``."""

    instance: int
    ballot: int
    value: Any

    @property
    def tag(self) -> str:
        return "ACCEPT"


@dataclasses.dataclass(frozen=True, slots=True)
class Accepted(Message):
    """Phase-2b: an acceptor acknowledges having accepted ``value`` at ``ballot``."""

    instance: int
    ballot: int
    value: Any

    @property
    def tag(self) -> str:
        return "ACCEPTED"


@dataclasses.dataclass(frozen=True, slots=True)
class Nack(Message):
    """An acceptor refuses ``ballot`` — a ``Prepare`` or an ``AcceptRequest``
    at any position — because it promised ``promised``, which is at least as
    high.  The proposer's next ballot starts above ``promised``."""

    ballot: int
    promised: int

    @property
    def tag(self) -> str:
        return "NACK"


@dataclasses.dataclass(frozen=True, slots=True)
class Decide(Message):
    """Decision announcement for one consensus instance."""

    instance: int
    value: Any

    @property
    def tag(self) -> str:
        return "DECIDE"


@dataclasses.dataclass(frozen=True, slots=True)
class Forward(Message):
    """Client commands handed to the process currently trusted as leader.

    ``value`` is a :class:`~repro.consensus.commands.Batch` of the sender's
    commands in submission order, at most one message per drive tick (what is
    sent when: "The command path" in :mod:`repro.consensus.replicated_log`).
    Reusing the batch envelope means the receive-side payload check and the
    corruption model already cover it: a tampered member fails the batch's
    verification and the message is rejected whole.  A bare (unbatched) value
    is still admitted as itself.
    """

    value: Any

    @property
    def tag(self) -> str:
        return "FORWARD"


@dataclasses.dataclass(frozen=True, slots=True)
class CatchUpRequest(Message):
    """A replica asks a peer for decisions at positions >= ``frontier``.

    Sent on a drive tick to the peer whose :class:`FrontierAdvert` proved it
    is ahead (or, by a follower that has heard no advertisement for a
    ``retry_period``, to the leader it trusts).  A replica that fell behind —
    it recovered from a crash, or sat on the minority side of a partition
    while the majority kept deciding — is answered with the decisions it
    missed.  This is what makes crash-recovery and partition healing
    converge: ``Decide`` announcements are broadcast once and are gone for
    whoever was not listening.
    """

    frontier: int

    @property
    def tag(self) -> str:
        return "CATCHUP_REQ"


@dataclasses.dataclass(frozen=True, slots=True)
class CatchUpReply(Message):
    """Decided ``(position, value)`` pairs answering a :class:`CatchUpRequest`.

    Bounded in size (the server sends at most a fixed number of positions per
    reply); the requester's next drive tick asks again from its new frontier.
    """

    decisions: Tuple[Tuple[int, Any], ...]

    @property
    def tag(self) -> str:
        return "CATCHUP_REP"


@dataclasses.dataclass(frozen=True, slots=True)
class FrontierAdvert(Message):
    """The oracle's ``ALIVE`` with the sender's decided frontier as a header.

    :class:`~repro.consensus.stack.OmegaConsensusStack` sends every outgoing
    ``ALIVE`` in this envelope, so the heartbeat the detector already
    broadcasts to every peer once per period also tells each of them the first
    position the sender has not decided.  A replica sends a
    :class:`CatchUpRequest` only to a peer whose latest advertisement is above
    its own frontier.  The receiving stack hands ``(sender, frontier)`` to its
    log and the bare ``ALIVE`` to its oracle, which never sees the header; the
    network walks ``inner`` for the tag and the round number, so the
    ``ALIVE``'s delay is drawn exactly as for a bare one.
    """

    inner: core_messages.Alive
    frontier: int


@dataclasses.dataclass(frozen=True, slots=True)
class LeaseRequest(Message):
    """The trusted leader asks every replica to (re)grant its read lease.

    Broadcast on each drive tick by the process that currently trusts itself
    as leader.  ``round`` identifies one renewal attempt; ``sent_at`` is the
    leader's virtual send time — the lease term the leader may assume once a
    quorum grants this round is ``sent_at + duration`` (send time is never
    later than any granter's receipt time under non-negative delays, so the
    leader's view of the term is the *conservative* one).
    """

    round: int
    sent_at: float

    @property
    def tag(self) -> str:
        return "LEASE_REQ"


@dataclasses.dataclass(frozen=True, slots=True)
class LeaseGrant(Message):
    """A replica grants (or renews) the requester's read lease.

    Sent only when the granter holds no live grant to a *different* process;
    the grant expires ``duration`` after the granter's receipt time.  While a
    grant is live the granter drops ``Prepare``/``AcceptRequest`` from other
    proposers, so a quorum of grants excludes any foreign commit until the
    grants — and therefore the leader's earlier-expiring lease — have run out.

    ``barrier_hint`` carries the granter's read-authority barrier ingredient:
    the highest log position it has either seen decided or accepted from a
    *foreign* proposer.  The leader may only serve reads once its applied
    frontier has passed the maximum hint over a granting quorum — this is what
    stops a freshly (re)leased leader from serving a state that misses commits
    decided before its lease began.
    """

    round: int
    barrier_hint: int

    @property
    def tag(self) -> str:
        return "LEASE_GRANT"


@dataclasses.dataclass(frozen=True, slots=True)
class ReadIndexRequest(Message):
    """A follower asks the leader to certify its commit frontier for one read.

    ``read_id`` is an opaque identifier of the pending read at the follower.
    A leader answers only while it holds read authority (valid lease + frontier
    past the barrier), so the index it returns upper-bounds every write that
    completed before the request was answered.
    """

    read_id: int

    @property
    def tag(self) -> str:
        return "READ_INDEX_REQ"


@dataclasses.dataclass(frozen=True, slots=True)
class ReadIndexReply(Message):
    """The leader's frontier certification answering a :class:`ReadIndexRequest`.

    The follower serves the pending read from its local state machine once its
    own applied frontier reaches ``index``.
    """

    read_id: int
    index: int

    @property
    def tag(self) -> str:
        return "READ_INDEX_REP"


@dataclasses.dataclass(frozen=True, slots=True)
class SnapshotRequest(Message):
    """A receiver mid-transfer asks the sender for one more snapshot chunk.

    ``(floor, checksum)`` identify the snapshot being transferred (the pair the
    first :class:`SnapshotReply` announced); ``index`` is the chunk wanted
    next.  A server whose latest snapshot moved on answers with chunk 0 of the
    new one instead — the receiver notices the changed identity and restarts
    its assembly.
    """

    floor: int
    checksum: int
    index: int

    @property
    def tag(self) -> str:
        return "SNAP_REQ"


@dataclasses.dataclass(frozen=True, slots=True)
class SnapshotReply(Message):
    """One chunk of a snapshot transfer (chunked like :class:`CatchUpReply`).

    Sent when a :class:`CatchUpRequest` carries a frontier below the server's
    truncation floor: the decided prefix the requester is missing no longer
    exists position-by-position, so the server ships its latest
    :class:`~repro.storage.snapshot.Snapshot` instead.  Every chunk repeats the
    snapshot header (``floor``, ``delivered_total``, whole-snapshot
    ``checksum``) so the receiver can assemble from any subset order; the
    payload integrity check happens once, over the *assembled* snapshot,
    against ``checksum`` — a chunk tampered in flight surfaces there and the
    whole transfer is rejected and restarted.
    """

    floor: int
    delivered_total: int
    checksum: int
    index: int
    total: int
    items: Tuple[Any, ...]

    @property
    def tag(self) -> str:
        return "SNAP_REP"
