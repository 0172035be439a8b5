"""Leader-driven replicated log (repeated consensus / atomic broadcast).

This is the application layer the paper motivates Omega with (Section 1.1 and
Theorem 5): commands submitted at any process are forwarded to the process currently
trusted by the leader oracle, which proposes them — one log position after the
other, all under one ballot (see "The leader ballot" below).  Decided positions form
a totally ordered log delivered identically at every process (atomic broadcast by
repeated consensus, as in [3, 12]).

Properties exercised by the tests and experiments E7/E8/E10:

* **Safety always** (indulgence): for every log position, no two processes ever
  learn different values, and every learnt value was submitted by some process (or
  is the explicit no-op filler) — regardless of the leader oracle's behaviour and of
  the delay model.
* **Liveness under the paper's assumption**: with ``t < n/2`` and a scenario
  satisfying the intermittent rotating t-star, every submitted command is eventually
  decided and delivered at every correct process.

Two throughput features serve the service layer of :mod:`repro.service`:

* **Batching** (``batch_size > 1``): the leader packs up to ``batch_size`` distinct
  pending commands into one :class:`~repro.consensus.commands.Batch` per instance,
  amortising the consensus round trips over many commands.
* **Delivery callback** (``on_deliver``): invoked once per non-noop value as the
  contiguous decided prefix extends, in log order — the hook state machines use to
  apply the log without rescanning it.

The command path
----------------
A command submitted at a non-leader reaches the leader in a
:class:`~repro.consensus.messages.Forward`.  Forwarding is **once, batched**:
on a drive tick a non-leader sends *at most one* ``Forward`` to the process it
trusts, carrying — as a :class:`~repro.consensus.commands.Batch`, so the
payload check and the corruption model treat it like any other command
envelope — only the commands submitted since its previous ``Forward``.

A submission that finds the replica **idle** — nothing of its own undecided
and nothing forwarded to it queued — does not wait for the tick (Nagle's
rule: send at once only when nothing is outstanding).
:meth:`ReplicatedLog.submit` dispatches it in the submitting turn, through
the environment the process was started with: a non-leader sends a
``Forward`` holding just this command, and a leader that owns its ballot
with no position in flight proposes it.  A replica with anything
outstanding queues the command for its next tick, and so does one not yet
started, crashed or stopped.  How often a replica is idle depends on the
load: in the perfbench workloads (run seed 110400) 97% of the submissions
of six thinking clients find it idle, 22% at 60% of capacity and 5.4% at
the throughput knee.  Each idle dispatch travels as a batch of one.

A full batch does not wait for the tick either (the **backlog rule**):
when a leader's own vote count closes the quorum of its position and a full
batch (the batch limit) of undecided commands is queued, it proposes the
next position in the same turn, if it still owns its ballot and its oracle
still names it.  The early proposal takes that full batch, so the rule never
sends a batch smaller than the limit; a shorter queue waits for the tick.
With a limit of 1 (``batch_size=1``, or an adaptive limit at its floor), a
single queued command is a full batch.  One position is still in flight at
a time.

The whole pending set is sent again only when

* the trusted leader **changed** since the previous forward (the new leader has
  never seen them; a process that was leader itself and got demoted is the
  same case), or
* ``retry_period`` has elapsed since the last full send to an unchanged
  leader — the retransmission that covers a lost ``Forward``, a tampered one
  (rejected whole by the payload check) and a leader that restarted amnesic.

The receiver admits each member that is neither decided nor already queued, so
a re-send of something the leader already holds changes nothing.  A leader
proposes its own submissions and the forwarded ones from one queue, in the
order it learnt of them, so a busy leader-side gateway cannot starve the
followers'.

Forwarding therefore costs O(submissions + ticks / retry) messages instead of
the O(backlog × ticks) of re-sending every pending command on every tick,
which during a leader outage was most of the traffic in the system.

The leader ballot
-----------------
Consensus is Multi-Paxos: **one ballot, many positions**.  Phase 1 is run once
per leadership, not once per position:

* the first proposal of a process its oracle names leader broadcasts one
  ``Prepare(ballot, from_position=frontier)`` to its peers.  Each acceptor
  holds **one log-wide promise** (durable under the single key
  ``("promised",)`` before its reply leaves) and answers a higher ballot with
  one ``Promise`` listing, for the positions at or above ``from_position``,
  the undecided ones it accepted a value at and the ones it knows decided; a
  ballot that is not higher gets a ``Nack`` carrying the promise that beat it;
* on a quorum of promises (its own included) the leader **owns** the ballot:
  it learns the reported decisions, re-proposes the highest-ballot accepted
  value at each reported position — never a different value — fills holes
  below them with ``NOOP``, and sends every later position straight to
  ``AcceptRequest`` under the owned ballot;
* ownership is volatile and is dropped by a ``Nack`` for the ballot, by
  promising or accepting a rival's higher ballot, by the oracle naming
  someone else on a drive tick, and by a restart.  The next tick that has
  something to propose prepares afresh, above every ballot this process has
  promised or was nacked with — one round, however long the rival's history.

These rules live in :class:`Ballots`, with no environment, timer or oracle;
the log does every send.  The leader is its own acceptor and learner:
``Prepare``, ``AcceptRequest`` and ``Decide`` are fanned out to the *peers*
only, and **then** the leader runs its own request through the acceptor
handler a peer runs and the reply through its proposer handler, in the same
turn, so its own promise and vote pass the same check as a peer's.  Sending
first matters under a write-cost model: the fan-out is not charged the
leader's own fsync (the two overlap, as they would on a real disk), while
every *reply* an acceptor sends still leaves after its write.  A steady
leader therefore spends ``3 × (n - 1)`` messages and two message delays per
decided position.  One position is in flight at a time.  A ``Forward`` that
reaches a leader which owns its ballot and has nothing in flight is proposed
in the same handler turn, so a follower's batch does not wait for the
leader's next drive tick; so is a local submission that finds such a leader
with an empty queue, and so is the next position when a quorum closes on a
full batch.  Everything else stays on the drive tick:
starting a ballot, proposing local submissions that arrive while others are
queued, proposing again once a quorum closed on less than a batch, and
re-sending an unanswered ``AcceptRequest`` after ``retry_period`` under the
same ballot with the same value, to the peers only, since the leader's
acceptor answered it when it first left (an unanswered ``Prepare`` is retried
with a higher ballot: acceptors nack a ballot they already promised, which is
what stops an amnesic restarted proposer from reusing one).

The catch-up protocol
---------------------
``Decide`` announcements are broadcast once and are gone for whoever was not
listening — a replica that recovered from a crash (empty log) or sat on the
minority side of a partition (holes in the log) would stay behind forever.
Catch-up closes the gap with two messages and one rule, **poll on evidence**:

* the evidence travels for free: hosted in an
  :class:`~repro.consensus.stack.OmegaConsensusStack`, every ``ALIVE`` the
  oracle broadcasts carries the sender's frontier (the first undecided
  position) as a header, and the stack hands it to :meth:`heard_frontier`,
  which keeps the *latest* advertisement per peer — after a storage-less
  restart a peer's frontier goes down, and a stale maximum would keep a
  replica polling a peer that cannot serve it;
* on a drive tick any replica, leader or follower, whose frontier is below
  some peer's latest advertisement sends one
  :class:`~repro.consensus.messages.CatchUpRequest` carrying its frontier to
  the peer advertising the highest one.  That advertisement is then spent: a
  live peer renews it with its next ``ALIVE``, a crashed one is not polled
  again.  A current replica — the steady state — sends nothing.  This also
  covers a restarted replica that trusts *itself* as leader: its followers'
  heartbeats advertise their higher frontiers;
* **fallback**: a follower that has heard no advertisement for longer than
  ``retry_period`` (counted from its incarnation's start) polls the leader it
  trusts on every tick, as every follower once did — a bare log under a
  scripted oracle hears none, and neither does a follower cut off from every
  peer;
* the polled peer answers with a bounded
  :class:`~repro.consensus.messages.CatchUpReply` (at most ``CATCH_UP_BATCH``
  decided positions; the requester's next tick continues from its advanced
  frontier) or stays silent when it holds nothing newer, and the receiver
  learns each ``(position, value)`` through :meth:`_learn`, which skips a
  position already learnt.  A request never triggers a request back.

Payload integrity
-----------------
Every incoming message is checked with
:func:`~repro.consensus.commands.payload_intact` before it is processed: a
delivery whose command payload was tampered in flight (a
:class:`~repro.simulation.faults.CorruptLink` garbles payloads but preserves
their stale checksums) is **rejected** — counted as ``corruption_rejections``
and otherwise treated exactly like a lost message, which the
indulgent protocol already tolerates.  Rejection happens *before* the consensus
state machine sees the message, so a garbled value can never be promised,
accepted, decided, learnt through catch-up or applied.

Stable storage
--------------
By default a crashed replica restarts empty and converges through catch-up —
crash recovery *without* stable storage, with the quorum-amnesia caveat that a
restarted acceptor forgets its promises.  Attaching a
:class:`~repro.storage.stable_store.StableStore` (:meth:`attach_storage`, done
by the :class:`~repro.simulation.system.System` when built with ``storage=``)
makes the log durable: the log-wide promise is persisted under
``("promised",)`` and each accept under ``("acceptor", pos)`` before the reply
that reveals it leaves, and every decided position under ``("decided", pos)``
before it is indexed.  In memory a position is held by the acceptor map
:attr:`Ballots.accepted` while undecided and by :attr:`decisions` once learnt;
the durable acceptor record stays until compaction.  A leader promises its own ballot
like any acceptor, so the durable promise is also what keeps a restarted
proposer from reusing one of its own ballots.  Attaching a non-empty store
(the recovery path) **rehydrates** the new incarnation: decided positions are
replayed in log order (driving ``on_deliver``, which rebuilds the state
machine and its exactly-once session table), then the promise and the
accepted values of the still undecided positions are restored.
Pending/forwarded submissions are deliberately volatile — losing them is
message loss, which client retransmission already covers.

Snapshots and compaction
------------------------
A :class:`~repro.storage.snapshot.SnapshotManager` assigned to
:attr:`ReplicatedLog.snapshots` (every :class:`~repro.service.replica.
ServiceReplica` assigns one, bound to its log, under its compaction policy)
bounds the log's memory:
whenever the contiguous decided prefix grows past the policy interval the
manager captures a checksummed :class:`~repro.storage.snapshot.Snapshot` of
the applied state and the log **truncates** everything below the truncation
floor — ``decisions``, the decided-value index, the acceptor map and (when
durable) the ``("decided"/"acceptor", pos)`` store entries.  Steady-state
residency becomes O(interval + retain) instead of O(history).  One routine,
:meth:`ReplicatedLog.compact_below`, truncates, position by position from the
old floor up; installing a snapshot runs it too, whether the snapshot came
over the wire or from the store at recovery.

Three protocol consequences:

* messages addressed to instances below the floor are dropped (counted as
  ``compacted_drops``), and so is a ``Prepare`` whose ``from_position``
  lies below it — a truncated acceptor stays *silent* about decided positions
  rather than promising "nothing accepted there", which is the amnesia-safe
  behaviour (silence looks like a crash; any promise quorum that completes
  then consists of acceptors that still hold everything from
  ``from_position`` up, a witness of every chosen value among them);
* a catch-up request whose frontier lies below the floor cannot be served
  position-by-position any more — the server starts a chunked **snapshot
  transfer** instead (``SNAP_REP`` chunks pulled with ``SNAP_REQ``; see
  :mod:`repro.storage.snapshot`), after which the requester's next poll
  fetches the decided tail normally;
* rehydration becomes snapshot-then-tail: :meth:`attach_storage` installs the
  newest verifying durable snapshot (a torn newest write falls back to the
  previous slot) and replays only the decided entries at or above its floor,
  so recovery time is bounded by the compaction window, not the history;
  installing it already deleted the records a crash left below the floor.

A truncated prefix leaves no record of its values in the log, only the
count :attr:`ReplicatedLog.delivered_total` (which the divergence probe
reads, and from which :attr:`ReplicatedLog.decided_value_count` is
derived).  Agreement across
truncation and restarts is checked outside the log, by the shard's
:class:`~repro.analysis.service_metrics.AgreementMonitor`, which
:attr:`ReplicatedLog.on_learn` feeds each position as a replica learns it.

With no manager attached nothing changes: the floor stays 0 and every code
path behaves (and fingerprints) exactly as before.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.consensus.batching import ADAPTIVE, AdaptiveBatchPolicy, require_batch_size
from repro.consensus.commands import (
    Batch,
    flatten_value,
    identity_key,
    payload_intact,
)
from repro.consensus.instance import NO_BALLOT
from repro.consensus.leases import LeaseManager
from repro.consensus.messages import (
    Accepted,
    AcceptRequest,
    CatchUpReply,
    CatchUpRequest,
    Decide,
    Forward,
    LeaseGrant,
    LeaseRequest,
    Nack,
    Prepare,
    Promise,
    ReadIndexReply,
    ReadIndexRequest,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.interfaces import Environment, LeaderOracle, Message, Process, TimerHandle
from repro.util.validation import require_positive, validate_process_count

#: Value proposed to fill a hole in the log when a leader has nothing to propose.
NOOP = "<noop>"

#: Name of the log's one timer; the stack routes every other name to the oracle.
DRIVE_TIMER = "drive"

#: Maximum decided positions shipped per CatchUpReply (bounds message size; the
#: requester's next drive tick continues from its advanced frontier).
CATCH_UP_BATCH = 16


@dataclasses.dataclass(eq=False)
class Ballots:
    """The ballot rules of one process (see "The leader ballot" above): each
    handler returns its reply.  *decisions* is the log's learner map, read only."""

    pid: int
    n: int
    quorum: int
    retry_period: float
    decisions: Dict[int, Any]
    counters: Dict[str, int]
    #: The log's stable store once attached, its one reference; ``None``: volatile.
    store: Any = None
    #: Acceptor: the one log-wide promise (durable under ``("promised",)``).
    promised: int = NO_BALLOT
    #: Acceptor: undecided position -> the ``(ballot, value)`` accepted
    #: there.  A position leaves it when it is learnt; from then on only
    #: the learner map holds it.
    accepted: Dict[int, Tuple[int, Any]] = dataclasses.field(default_factory=dict)
    # Proposer, all volatile: the ballot being prepared or owned (owned
    # once a quorum promised it), when its Prepare left, who promised,
    # and the highest-ballot accepted value they reported per position —
    # what this leader is bound to re-propose there.
    ballot: int = NO_BALLOT
    owned: bool = False
    ballot_time: float = 0.0
    promisers: Set[int] = dataclasses.field(default_factory=set)
    recovered: Dict[int, Tuple[int, Any]] = dataclasses.field(default_factory=dict)
    #: Highest promise a Nack reported; the next ballot starts above it.
    nacked_ballot: int = NO_BALLOT
    # The one accept round in flight: its position and value, when its
    # AcceptRequest last left, and who voted for it so far.
    inflight: int = -1
    inflight_value: Any = None
    inflight_time: float = 0.0
    votes: Set[int] = dataclasses.field(default_factory=set)

    # ------------------------------------------------------------------ acceptor --
    def _promise(self, ballot: int) -> None:
        """Raise the log-wide promise to *ballot*, durably, before the reply
        revealing it leaves: a restart must never make this acceptor honour a
        lower ballot.  Promising someone else's ballot ends our own."""
        self.promised = ballot
        if ballot != self.ballot:
            self.drop_ballot()
        if self.store is not None:
            self.store.put(("promised",), ballot)

    def on_prepare(self, message: Prepare) -> Union[Promise, Nack]:
        """Promise a higher ballot and report what is held at or above its
        ``from_position``, in position order; refuse any other."""
        if message.ballot <= self.promised:
            return Nack(ballot=message.ballot, promised=self.promised)
        self._promise(message.ballot)
        accepted = tuple(
            (position, *self.accepted[position])
            for position in sorted(p for p in self.accepted if p >= message.from_position)
        )
        decisions = tuple(
            (position, self.decisions[position])
            for position in sorted(p for p in self.decisions if p >= message.from_position)
        )
        return Promise(ballot=message.ballot, accepted=accepted, decisions=decisions)

    def on_accept_request(self, message: AcceptRequest) -> Union[Accepted, Nack]:
        """Accept at or above the promise, durably; refuse below it.  A decided
        position is written through too — its proposer may still be
        collecting a quorum — but stays in the learner map only."""
        if message.ballot < self.promised:
            return Nack(ballot=message.ballot, promised=self.promised)
        if message.ballot > self.promised:
            # Accepting is promising: a restart must not let a lower ballot
            # overwrite what is accepted here.
            self._promise(message.ballot)
        position = message.instance
        if position not in self.decisions:
            self.accepted[position] = (message.ballot, message.value)
        if self.store is not None:
            self.store.put(("acceptor", position), (message.ballot, message.value))
        return Accepted(instance=position, ballot=message.ballot, value=message.value)

    # ------------------------------------------------------------------ proposer --
    def drop_ballot(self) -> None:
        """Give up the ballot being prepared or owned (ownership is volatile)."""
        self.ballot = NO_BALLOT
        self.owned = False

    def preparing(self, ballot: int) -> bool:
        """True when a ``Promise`` for *ballot* still counts."""
        return ballot == self.ballot and not self.owned

    def on_promise(self, sender: int, message: Promise) -> bool:
        """Count a promise; True when it completes the quorum that hands this
        proposer its ballot.  The log learns its decisions before this runs."""
        if not self.preparing(message.ballot):
            return False
        for position, ballot, value in message.accepted:
            best = self.recovered.get(position)
            if best is None or ballot > best[0]:
                self.recovered[position] = (ballot, value)
        self.promisers.add(sender)
        self.owned = len(self.promisers) >= self.quorum
        return self.owned

    def on_nack(self, message: Nack) -> None:
        """A higher ballot exists: ownership is gone whichever phase or position
        the refusal was for, and the next ballot starts above the one that won."""
        if message.ballot == self.ballot:
            self.nacked_ballot = max(self.nacked_ballot, message.promised)
            self.drop_ballot()

    def propose(self, now: float, position: int, max_decided: int, value: Any) -> Tuple[Optional[Message], bool]:
        """The ``Prepare`` or ``AcceptRequest`` (or None) to broadcast for the
        first undecided *position* and the queue's candidate *value*, and
        whether our own acceptor has yet to answer it: not on a re-send."""
        if not self.owned:
            if self.ballot != NO_BALLOT and now - self.ballot_time < self.retry_period:
                return None, False  # our Prepare is in flight
            if value is None and max_decided <= position:
                return None, False
            # Phase 1, once per leadership: ask for the whole log suffix.
            attempt = max(self.promised, self.nacked_ballot) // self.n + 1
            self.ballot = attempt * self.n + self.pid
            self.ballot_time = now
            self.promisers = set()
            self.recovered = {}
            self.inflight = -1
            self.counters["ballots_started"] += 1  # = Prepare broadcasts
            return Prepare(ballot=self.ballot, from_position=position), True
        fresh = position != self.inflight
        if not fresh:
            if now - self.inflight_time < self.retry_period:
                return None, False
            # Unanswered: same ballot, so it must be the same value.
            value = self.inflight_value
        else:
            recovered = self.recovered.pop(position, None)
            if recovered is not None:
                value = recovered[1]
            elif value is None:
                # Nothing to propose; only fill a hole below something decided
                # or reported accepted.
                if max_decided > position or any(
                    above > position for above in self.recovered
                ):
                    value = NOOP
                else:
                    return None, False
            self.inflight = position
            self.inflight_value = value
            self.votes = set()
        self.inflight_time = now
        self.counters["accept_rounds_started"] += 1  # = AcceptRequest broadcasts
        return AcceptRequest(instance=position, ballot=self.ballot, value=value), fresh

    def on_accepted(self, sender: int, message: Accepted) -> Optional[Decide]:
        """Count a vote for the position in flight; the ``Decide`` to
        broadcast when it closes the quorum."""
        if not (
            self.owned
            and message.ballot == self.ballot
            and message.instance == self.inflight
        ):
            return None
        self.votes.add(sender)
        if len(self.votes) < self.quorum:
            return None
        self.inflight = -1
        # The proposer's copy: a catch-up may have learnt the position
        # already, and a learnt position keeps no acceptor record.
        return Decide(instance=message.instance, value=self.inflight_value)


class ReplicatedLog(Process):
    """Omega-driven replicated log running at one process.

    Parameters
    ----------
    pid, n, t:
        System parameters; consensus safety requires ``t < n/2`` (Theorem 5).
    oracle:
        The local leader oracle instance (typically the Figure 3 algorithm running
        in the same process, held beside the log by
        :class:`~repro.consensus.stack.OmegaConsensusStack`).
    drive_period:
        How often (virtual time) the process re-evaluates leadership, forwards its
        newly submitted commands and (if leader) starts proposals.  A
        submission that finds the replica idle does not wait for it (see
        :meth:`submit`).
    retry_period:
        The retransmission clock of the command path, with two meanings.  For a
        leader: how long an unanswered ``Prepare`` or ``AcceptRequest`` stays in
        flight before it is sent again (the ``Prepare`` under a higher ballot,
        the ``AcceptRequest`` unchanged).  For a
        non-leader: time after which its whole pending set is forwarded again to
        an unchanged trusted leader (covers a lost or tampered ``Forward`` and
        an amnesic leader restart; see "The command path" in the module
        docstring).  Also how long a follower goes without hearing a frontier
        advertisement before it falls back to polling its trusted leader
        (see "The catch-up protocol").
    batch_size:
        Maximum number of distinct commands the leader packs into one consensus
        value.  1 (the default) proposes bare values exactly like the seed
        implementation; larger values propose :class:`Batch` envelopes.  The
        string ``"adaptive"`` makes the limit track offered load instead: this
        log builds its own :class:`~repro.consensus.batching.AdaptiveBatchPolicy`
        (EWMA of the backlog observed at each proposal opportunity).  Anything
        else raises ``ValueError``.
    leases:
        Optional :class:`~repro.consensus.leases.LeaseManager` enabling the
        lease-based read path: lease requests/grants piggyback on the drive
        tick, grant holders gate foreign proposer traffic, and the
        :attr:`on_read_index` and :attr:`on_drive` hooks become live.
        ``None`` (the default) leaves every code path — and every
        fingerprint — exactly as before.

    The log's hooks — :attr:`on_deliver`, :attr:`on_learn`,
    :attr:`on_read_index`, :attr:`on_drive` — and its snapshot manager
    (:attr:`snapshots`) are plain attributes, ``None`` until their owner
    assigns them.
    """

    variant_name = "replicated-log"

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        oracle: LeaderOracle,
        drive_period: float = 2.0,
        retry_period: float = 10.0,
        batch_size: Union[int, str] = 1,
        leases: Optional[LeaseManager] = None,
    ) -> None:
        validate_process_count(n, t)
        if t >= n / 2:
            raise ValueError(
                f"consensus requires a majority of correct processes (t < n/2); "
                f"got n={n}, t={t}"
            )
        require_positive(drive_period, "drive_period")
        require_positive(retry_period, "retry_period")
        require_batch_size(batch_size)
        self._batch_policy: Optional[AdaptiveBatchPolicy] = (
            AdaptiveBatchPolicy() if batch_size == ADAPTIVE else None
        )
        self.pid = pid
        self.n = n
        self.t = t
        self.oracle = oracle
        self.drive_period = drive_period
        self.retry_period = retry_period
        self.batch_size = batch_size
        #: Counter registry (see :attr:`~repro.core.interfaces.Process.counters`),
        #: shared with the lease and snapshot managers this log is handed; a
        #: stack hosting the log shares it with the oracle too.
        self.counters: Dict[str, int] = Counter()
        #: Lease-based read path (None = disabled, every path byte-identical).
        self.leases = leases
        if leases is not None:
            leases.counters = self.counters
        #: Pending follower reads awaiting a leader frontier certification
        #: (read ids queued by the service replica, flushed on drive ticks).
        self._read_index_queue: List[int] = []
        #: Optional per-drive-tick hook ``(now)`` — the service replica uses
        #: it to expire pending lease reads into the consensus fallback.
        #: Invoked only when leases are enabled.
        self.on_drive: Optional[Callable[[float], None]] = None
        #: Optional hook ``(position, value)`` called once per position this
        #: incarnation learns — from a vote count, a ``Decide``, a catch-up
        #: reply, a promise or a replay of its store — before it is applied.
        #: The sharded service feeds its agreement monitor through it.
        self.on_learn: Optional[Callable[[int, Any], None]] = None
        #: Optional hook ``(position, value)`` called, in log order, for every
        #: non-noop value as the contiguous decided prefix extends — the
        #: service replica applies the log to its state machine through it.
        self.on_deliver: Optional[Callable[[int, Any], None]] = None
        #: Optional hook ``(read_id, index)`` called when the leader certifies
        #: a commit frontier for a pending follower read (a
        #: :class:`~repro.consensus.messages.ReadIndexReply` arrived, or this
        #: process is itself the leader with read authority).
        self.on_read_index: Optional[Callable[[int, int], None]] = None

        #: Log position -> decided value (learnt locally; with compaction,
        #: only positions at or above the truncation floor stay resident).
        self.decisions: Dict[int, Any] = {}
        #: The ballot rules: promise, acceptor map, proposer and vote count.
        self.ballots = Ballots(pid, n, n - t, retry_period, self.decisions, self.counters)
        #: Commands submitted locally and not yet known decided — an
        #: insertion-ordered set (a dict's keys), like ``_arrivals``.
        self._pending: Dict[Any, None] = {}
        #: Those plus the commands other processes forwarded here, in the order
        #: this process learnt of them — the order a leader proposes in, so its
        #: own gateway cannot starve the followers'.
        self._arrivals: Dict[Any, None] = {}
        #: Commands submitted since the last forward (submission order) —
        #: what a tick forwards when no full re-send is due.
        self._unforwarded: List[Any] = []
        #: Whom the last drive tick trusted as leader, and when the whole
        #: pending set was last forwarded to it (the re-send rule's two inputs).
        self._forward_leader: Optional[int] = None
        self._full_forward_time = 0.0
        #: Catch-up evidence: peer -> the frontier its latest heartbeat
        #: advertised (dropped once it justified a poll), and when any
        #: advertisement last arrived (the fallback poll's clock; the
        #: incarnation's start until the first one).
        self._advertised: Dict[int, int] = {}
        self._advert_time = 0.0

        # Hot-path state: first position not yet decided (contiguous-prefix
        # cursor), highest decided position, and the decided values'
        # identity_key set.  Compaction bounds it to the log's window.  It is
        # probed, never iterated: its order depends on the hash seed.
        self._frontier = 0
        self._max_decided = -1
        self._decided_index: Set[Tuple[Any, Any]] = set()

        # Observer state that survives windowing: total non-noop deliveries.
        self.delivered_total = 0

        #: The :class:`~repro.storage.snapshot.SnapshotManager` bound to this
        #: log (None = no compaction).  Assigned before :meth:`attach_storage`,
        #: so recovery can rehydrate snapshot-then-tail.
        self.snapshots = None
        # _floor is the truncation floor: positions below it were
        # snapshotted away and no longer exist here.
        self._floor = 0

        # Stable storage (attach_storage, held at ballots.store); _rehydrating
        # suppresses re-persisting state that is being replayed *from* it.
        self._rehydrating = False

        #: The environment this process runs under, from ``on_start`` until
        #: ``on_crash`` / ``on_stop`` — what an idle :meth:`submit` sends through.
        self._env: Optional[Environment] = None

    # ------------------------------------------------------------------ client API --
    def submit(self, value: Any) -> None:
        """Submit a command for total-order delivery (callable from outside handlers).

        :class:`~repro.consensus.commands.Command` values are deduplicated by
        their identity ``(client_id, seq)``: a retransmission of a pending or
        decided command is dropped, while distinct commands with equal effects
        carry distinct identities and are both kept.  Any other value is
        deduplicated by equality.

        A newly admitted command that finds nothing of this replica's
        undecided or queued is dispatched at once, through the environment the
        process runs under: a follower forwards it, an owning leader with no
        position in flight proposes it (see "The command path" in the module
        docstring).  Before ``on_start`` and after ``on_crash`` / ``on_stop``
        there is no such environment, and the command waits for the next
        drive tick of a (re)started process.  Since it may send, call it from
        the thread that runs the process's handlers (on the asyncio runtime,
        the event loop's).
        """
        if value == NOOP:
            raise ValueError("the no-op filler value cannot be submitted")
        if value in self._pending or identity_key(value) in self._decided_index:
            return
        idle = not self._arrivals
        self._pending[value] = None
        self._arrivals[value] = None
        self._unforwarded.append(value)
        env = self._env
        if env is None or not idle:
            return
        leader = self.oracle.leader()
        if leader != self.pid:
            self._forward_pending(env, leader)
        elif self.ballots.owned and self.ballots.inflight == -1:
            self._lead(env)

    @property
    def pending(self) -> List[Any]:
        """Commands submitted locally and not yet known decided (in order)."""
        return list(self._pending)

    @property
    def forwarded(self) -> List[Any]:
        """Commands forwarded by peers and not yet known decided (in order)."""
        return [value for value in self._arrivals if value not in self._pending]

    @property
    def frontier(self) -> int:
        """First log position not yet decided (the contiguous-prefix cursor)."""
        return self._frontier

    @property
    def compaction_floor(self) -> int:
        """First position still resident; everything below was snapshotted away.

        0 with no compaction attached — every position is resident.
        """
        return self._floor

    def decided_log(self) -> Dict[int, Any]:
        """Return a copy of the locally resident decisions (position -> value).

        With compaction this is the retained *window* — positions below
        :attr:`compaction_floor` live only inside the latest snapshot;
        whole-history observers should use :attr:`decided_value_count`, or
        the shard's agreement monitor fed by :attr:`on_learn`, instead of
        materialising the log.
        """
        return dict(self.decisions)

    def delivered(self) -> List[Any]:
        """Return the delivered window: decided non-noop values at contiguous
        positions below the frontier (and, with compaction, at or above the
        truncation floor — the prefix below it is counted by
        :attr:`delivered_total`).  Derived from
        :attr:`decisions` per call; the protocol itself never reads it."""
        window = map(self.decisions.__getitem__, range(self._floor, self._frontier))
        return [value for value in window if value != NOOP]

    def delivered_commands(self) -> List[Any]:
        """Return the delivered window with batches flattened into commands."""
        commands: List[Any] = []
        for value in self.delivered():
            commands.extend(flatten_value(value))
        return commands

    # ------------------------------------------------------------------ storage --
    def attach_storage(self, store) -> None:
        """Attach a :class:`~repro.storage.stable_store.StableStore` and
        rehydrate from it.

        Must be called before the process starts taking steps (the system does
        this right after building the algorithm, both at boot and at recovery).
        A non-empty store is the recovery path: with a snapshot manager
        attached, the newest verifying durable snapshot is installed first
        (restoring the state machine and fast-forwarding the frontier to its
        floor), then only the decided tail at or above the floor is replayed —
        through :meth:`_learn`, so ``on_deliver`` rebuilds the rest of the
        state machine exactly as the dead incarnation built it — and finally
        the persisted promise and the accepted values of undecided positions
        are restored.
        Installing the snapshot truncates below its floor (:meth:`compact_below`),
        so the stale records a crash between the snapshot write and its
        truncation left there are deleted before the replay reads the store.
        """
        if self.ballots.store is not None:
            raise RuntimeError("a stable store is already attached to this log")
        self.ballots.store = store
        if self.snapshots is not None:
            self.snapshots.bind_store(store)
        self._rehydrating = True
        try:
            if self.snapshots is not None:
                self.snapshots.rehydrate()
            for (_, position), value in store.items_with_prefix("decided"):
                self._learn(position, value)
            self.ballots.promised = store.get(("promised",), NO_BALLOT)
            for (_, position), accepted in store.items_with_prefix("acceptor"):
                if position not in self.decisions:
                    # Also what keeps this granter's lease barrier hints
                    # covering the commits that were in flight at the crash.
                    self.ballots.accepted[position] = accepted
        finally:
            self._rehydrating = False

    # ------------------------------------------------------------------ lifecycle --
    def on_start(self, env: Environment) -> None:
        self._env = env
        self._advert_time = env.now
        env.set_timer(self.drive_period, DRIVE_TIMER)

    def on_crash(self, env: Environment) -> None:
        self._env = None

    def on_stop(self, env: Environment) -> None:
        self._env = None

    def heard_frontier(self, now: float, sender: int, frontier: int) -> None:
        """Record *sender*'s advertised decided frontier (the heartbeat header
        of :class:`~repro.consensus.stack.OmegaConsensusStack`)."""
        self._advertised[sender] = frontier
        self._advert_time = now

    def on_timer(self, env: Environment, timer: TimerHandle) -> None:
        if timer.name != DRIVE_TIMER:
            raise ValueError(f"unknown timer {timer.name!r}")
        self._drive(env)
        env.set_timer(self.drive_period, DRIVE_TIMER)

    def on_message(self, env: Environment, sender: int, message: Message) -> None:
        if not payload_intact(message):
            # The digest check at the consensus/service boundary: a tampered
            # payload is dropped before any protocol state sees it, so
            # corruption degrades into message loss (which is tolerated).
            self.counters["corruption_rejections"] += 1
            return
        if isinstance(message, Decide):
            if self._resident(message.instance):
                self._learn(message.instance, message.value)
            return
        if isinstance(message, Forward):
            for value in flatten_value(message.value):
                if identity_key(value) not in self._decided_index:
                    self._arrivals[value] = None
            # An idle owning leader proposes the batch now, not at its next
            # tick.  The oracle is asked as well: a demotion drops ownership
            # only on the next tick.
            if (
                self.ballots.owned
                and self.ballots.inflight == -1
                and self.oracle.leader() == self.pid
            ):
                self._lead(env)
            return
        if isinstance(message, CatchUpRequest):
            self._serve_catch_up(env, sender, message.frontier)
            return
        if isinstance(message, CatchUpReply):
            for position, value in message.decisions:
                if self._resident(position):
                    self._learn(position, value)
            return
        # Snapshot traffic flows only between logs that have a manager: a
        # log without one never truncates, so it never serves a transfer,
        # and never falls below a floor, so it never asks for one.
        if isinstance(message, SnapshotReply):
            self.snapshots.on_chunk(env, sender, message)
            return
        if isinstance(message, SnapshotRequest):
            self.snapshots.on_request(env, sender, message)
            return
        if isinstance(message, LeaseRequest):
            if self.leases is not None and self.leases.try_grant(env.now, sender):
                env.send(
                    sender,
                    LeaseGrant(
                        round=message.round,
                        barrier_hint=self._lease_barrier_hint(),
                    ),
                )
            return
        if isinstance(message, LeaseGrant):
            if self.leases is not None:
                self.leases.on_grant(
                    env.now, sender, message.round, message.barrier_hint
                )
            return
        if isinstance(message, ReadIndexRequest):
            if self.leases is not None and self.leases.read_authority(
                env.now, self._frontier
            ):
                env.send(
                    sender,
                    ReadIndexReply(read_id=message.read_id, index=self._frontier),
                )
            return  # without authority stay silent; the read falls back
        if isinstance(message, ReadIndexReply):
            if self.on_read_index is not None:
                self.on_read_index(message.read_id, message.index)
            return
        reply = self._step(env, sender, message)
        if reply is not None:
            env.send(sender, reply)

    def _step(self, env: Environment, sender: int, message: Message) -> Optional[Message]:
        """Run a ballot message through :attr:`ballots` and act on the outcome;
        return the reply a request draws, after the gate and residency checks.
        Any other message is none the log takes: ``TypeError``."""
        ballots = self.ballots
        if isinstance(message, AcceptRequest):
            if not self._gated(env, sender) and self._resident(message.instance):
                return ballots.on_accept_request(message)
        elif isinstance(message, Accepted):
            if self._resident(message.instance):
                decide = ballots.on_accepted(sender, message)
                if decide is None:
                    return
                env.broadcast(decide)
                self._learn(decide.instance, decide.value)
                # A full batch queued proposes now, not at the next tick.
                # The oracle is asked as well: a demotion drops ownership
                # only on the next tick.
                if (
                    ballots.owned
                    and ballots.inflight == -1
                    and len(self._arrivals) >= self._batch_limit()
                    and self.oracle.leader() == self.pid
                ):
                    self._lead(env)
        elif isinstance(message, Prepare):
            # With part of the range truncated by compaction, a Promise would
            # claim "nothing accepted there" about positions this acceptor may
            # have been the only witness of: silence, as for a single instance.
            if not self._gated(env, sender) and self._resident(message.from_position):
                return ballots.on_prepare(message)
        elif isinstance(message, Promise):
            if ballots.preparing(message.ballot):
                # Learnt before the promise counts: nothing learning runs (an
                # idle submit) may see the ballot owned yet.
                for position, value in message.decisions:
                    if self._resident(position):
                        self._learn(position, value)
                if ballots.on_promise(sender, message):
                    self._lead(env)
        elif isinstance(message, Nack):
            ballots.on_nack(message)
        else:
            raise TypeError(f"replicated log received unexpected {message!r}")

    def _gated(self, env: Environment, proposer: int) -> bool:
        """Lease gating: while our grant to some process is live, proposer
        traffic from anyone else is dropped (counted) — our own included, so a
        gated leader does not propose at all.  This is what makes a grant
        quorum exclude foreign commits until the grants — and with them the
        holder's earlier-expiring lease — run out.  Decide/catch-up/snapshot
        messages are never gated: learning an already-committed value cannot
        create staleness."""
        return self.leases is not None and self.leases.gates(env.now, proposer)

    def _resident(self, position: int) -> bool:
        """False (and counted) for a position compaction truncated: it is
        decided and snapshotted away.  The caller then stays silent — never
        answer as if nothing were held there, that would be manufactured
        amnesia; to the sender this looks exactly like a crashed acceptor,
        which the indulgent protocol tolerates."""
        if position >= self._floor:
            return True
        self.counters["compacted_drops"] += 1
        return False

    # ------------------------------------------------------------------ internals --
    def _learn(self, position: int, value: Any) -> None:
        """Learn *value* as the decision at *position* (idempotent).

        The value comes from a ``Decide``, a catch-up reply, a ``Promise``'s
        decisions, the store or this process's own vote count — in every case
        a quorum accepted it first, so learning cannot contradict a decision.
        """
        if position in self.decisions:
            return
        if self.on_learn is not None:
            self.on_learn(position, value)
        if self.ballots.store is not None and not self._rehydrating:
            # Durable before the decision is indexed or applied: the decided
            # prefix must survive this process's restarts.
            self.ballots.store.put(("decided", position), value)
        self.decisions[position] = value
        self.ballots.accepted.pop(position, None)
        if len(self.decisions) > self.counters["peak_decided_residency"]:
            # The bounded-memory metric: resident decided entries, high water.
            self.counters["peak_decided_residency"] = len(self.decisions)
        if position > self._max_decided:
            self._max_decided = position
        for command in flatten_value(value):
            self._decided_index.add(identity_key(command))
            # O(1) per decided command instead of the seed's O(pending) list
            # rebuild per decision: undecided bookkeeping only ever *loses*
            # exactly the commands this decision carried (submit/forward never
            # admit an already-decided value, so nothing else can match).
            self._pending.pop(command, None)
            self._arrivals.pop(command, None)
        self._advance_frontier()
        if self.snapshots is not None and not self._rehydrating:
            self.snapshots.maybe_snapshot()

    def _advance_frontier(self) -> None:
        while self._frontier in self.decisions:
            value = self.decisions[self._frontier]
            position = self._frontier
            self._frontier += 1
            if value != NOOP:
                self.delivered_total += 1
                if self.on_deliver is not None:
                    self.on_deliver(position, value)

    # ------------------------------------------------------------------ compaction --
    def compact_below(self, floor: int) -> int:
        """Truncate every position below *floor*; return how many decisions
        were dropped.

        The one truncation of the log, run from the old floor up: the decided
        values, their index entries, the acceptor records and the durable
        ``("decided"/"acceptor", pos)`` records all go.  The snapshot manager
        calls it once a snapshot covering those positions is (durably, when
        storage is attached) in place, and :meth:`adopt_snapshot` calls it
        for the snapshot it installs.
        """
        if floor <= self._floor:
            return 0
        compacted = 0
        for position in range(self._floor, floor):
            value = self.decisions.pop(position, None)
            if value is not None:
                compacted += 1
                for command in flatten_value(value):
                    self._decided_index.discard(identity_key(command))
            self.ballots.accepted.pop(position, None)
            if self.ballots.store is not None:
                self.ballots.store.delete(("decided", position))
                self.ballots.store.delete(("acceptor", position))
        self._floor = floor
        return compacted

    def adopt_snapshot(self, snapshot) -> int:
        """Fast-forward this log to an installed snapshot; return positions dropped.

        Called by the snapshot manager (after the state machine was restored
        from the snapshot payload): everything below the floor is truncated
        (:meth:`compact_below`), the frontier jumps to the floor, the delivered
        count resumes from the snapshot's, and decided values this replica had
        already learnt *above* the floor are delivered through the normal
        frontier advance — applying them on top of the restored state.
        """
        floor = snapshot.floor
        dropped = self.compact_below(floor)
        self._frontier = floor
        if floor - 1 > self._max_decided:
            self._max_decided = floor - 1
        self.delivered_total = snapshot.delivered_total
        self._advance_frontier()
        return dropped

    @property
    def decided_value_count(self) -> int:
        """Non-noop decisions over the whole history: the ones delivered
        (:attr:`delivered_total`, which a snapshot carries across truncation)
        plus the ones learnt above the frontier."""
        return self.delivered_total + sum(
            self.decisions.get(position, NOOP) != NOOP
            for position in range(self._frontier, self._max_decided + 1)
        )

    def _candidate_value(self) -> Optional[Any]:
        """Pick up to the batch limit of undecided commands, oldest arrival first.

        The limit is the fixed ``batch_size`` knob, or — with
        ``batch_size="adaptive"`` — the policy's EWMA-of-backlog limit, which
        :meth:`_lead` feeds before it asks.
        """
        limit = self._batch_limit()
        picked: List[Any] = []
        for value in self._arrivals:
            if identity_key(value) in self._decided_index:
                continue
            picked.append(value)
            if len(picked) >= limit:
                break
        if not picked:
            return None
        if limit == 1 or len(picked) == 1:
            return picked[0]
        return Batch(commands=tuple(picked))

    def _batch_limit(self) -> int:
        """The fixed ``batch_size``, or the adaptive policy's current limit
        (read without folding an observation in)."""
        if self._batch_policy is not None:
            return self._batch_policy.limit
        return self.batch_size

    def _serve_catch_up(self, env: Environment, sender: int, frontier: int) -> None:
        """Answer a catch-up poll with decisions the requester is missing."""
        if frontier < self._floor:
            # The positions the requester wants were truncated by compaction:
            # they no longer exist here decision-by-decision.  Ship the latest
            # snapshot instead (chunked; the requester pulls the rest and, once
            # installed, its next poll fetches the decided tail normally).
            self.snapshots.serve(env, sender)
            return
        if self._max_decided < frontier:
            return  # nothing newer than the requester's frontier: stay silent
        decisions: List[Any] = []
        for position in range(frontier, self._max_decided + 1):
            value = self.decisions.get(position)
            if value is not None:
                decisions.append((position, value))
                if len(decisions) >= CATCH_UP_BATCH:
                    break
        if decisions:
            self.counters["catchup_replies"] += 1
            env.send(sender, CatchUpReply(decisions=tuple(decisions)))

    # ------------------------------------------------------------------ lease path --
    def request_read_index(self, read_id: int) -> None:
        """Queue a pending read for leader frontier certification.

        Callable from outside handlers (the service replica queues reads as
        clients submit them); the next drive tick either serves the queue
        locally (this process is the leader with read authority) or polls the
        trusted leader with one :class:`~repro.consensus.messages.
        ReadIndexRequest` per read.
        """
        self._read_index_queue.append(read_id)

    def _lease_barrier_hint(self) -> int:
        """This replica's read-authority barrier ingredient: the highest
        position seen decided or accepted from *any* ballot (a commit may be
        in flight whose Decide the grantee never saw).  The grantee's own
        accepted positions are deliberately **not** excluded: a ballot's
        proposer pid cannot distinguish the grantee's current incarnation
        from an amnesic pre-crash one, and excluding a dead incarnation's
        in-flight commit would let the restarted leader regain read authority
        below a write some client already saw complete.  The cost is read
        latency — a leader's reads wait out its own in-flight proposals —
        never safety."""
        hint = self._max_decided
        for position in self.ballots.accepted:
            if position > hint:
                hint = position
        return hint

    def _drive_leases(self, env: Environment, leader: int) -> None:
        if leader == self.pid:
            round_id = self.leases.start_round(
                env.now, self._lease_barrier_hint()
            )
            env.broadcast(LeaseRequest(round=round_id, sent_at=env.now))
        if not self._read_index_queue:
            return
        if leader == self.pid:
            if self.leases.read_authority(env.now, self._frontier):
                queue, self._read_index_queue = self._read_index_queue, []
                for read_id in queue:
                    if self.on_read_index is not None:
                        self.on_read_index(read_id, self._frontier)
            return  # no authority yet: keep the queue for the next tick
        self.counters["read_index_polls"] += len(self._read_index_queue)
        for read_id in self._read_index_queue:
            env.send(leader, ReadIndexRequest(read_id=read_id))
        self._read_index_queue.clear()

    def _forward_pending(self, env: Environment, leader: int) -> None:
        """Hand pending commands to the trusted leader: at most one message.

        The whole pending set goes out when the trusted leader changed since
        the last forward or ``retry_period`` elapsed since the last full send;
        otherwise only the commands submitted since the last forward do.
        Called on every drive tick of a follower and by an idle :meth:`submit`.
        """
        if (
            leader != self._forward_leader
            or env.now - self._full_forward_time >= self.retry_period
        ):
            commands = tuple(self._pending)
            self._forward_leader = leader
            self._full_forward_time = env.now
        else:
            # Decided between submit and tick: already out of _pending.
            commands = tuple(v for v in self._unforwarded if v in self._pending)
        self._unforwarded.clear()
        if commands:
            # One Forward message, and the commands it carries (re-sends included).
            self.counters["forward_msgs_sent"] += 1
            self.counters["forward_commands_sent"] += len(commands)
            env.send(leader, Forward(value=Batch(commands=commands)))

    def _catch_up(self, env: Environment, leader: int) -> None:
        """Poll for missed decisions only on evidence: at most one request,
        to the peer whose latest heartbeat advertised the highest frontier
        above ours — or, for a follower that heard no advertisement for
        longer than ``retry_period``, to the trusted leader."""
        source, highest = None, self._frontier
        for peer, advertised in self._advertised.items():
            if advertised > highest:
                source, highest = peer, advertised
        if source is not None:
            del self._advertised[source]  # spent; a live peer re-advertises
        elif leader != self.pid and env.now - self._advert_time > self.retry_period:
            source = leader
        else:
            return
        self.counters["catchup_polls"] += 1
        env.send(source, CatchUpRequest(frontier=self._frontier))

    def _drive(self, env: Environment) -> None:
        leader = self.oracle.leader()
        if self.leases is not None:
            self._drive_leases(env, leader)
            if self.on_drive is not None:
                self.on_drive(env.now)
        if leader != self.pid:
            self.ballots.drop_ballot()  # the oracle demoted us (no-op for a follower)
            self._forward_pending(env, leader)
        else:
            # Leader: nothing to forward; a later demotion is a leader change,
            # so whatever is still pending then goes out whole.
            self._forward_leader = leader
            self._unforwarded.clear()
            self._lead(env)
        # Decisions we may have missed (a restarted replica has an empty or
        # stale log, one on the minority side of a healed partition has
        # holes): asked for only when a heartbeat proved some peer ahead.
        self._catch_up(env, leader)

    def _lead(self, env: Environment) -> None:
        """The leader's proposal step: one position in flight at a time.

        Five triggers run it:

        * every drive tick of a process its oracle names leader;
        * the moment a promise quorum hands it the ballot;
        * a ``Forward`` arriving while its oracle names it leader, it owns
          its ballot and no position is in flight;
        * a local :meth:`submit` that finds the queue empty while its oracle
          names it leader, it owns its ballot and no position is in flight;
        * its own vote count closing a quorum while its oracle names it
          leader, it owns its ballot and a full batch is queued (the backlog
          rule of the module docstring).

        A gated leader proposes nothing and, with ``batch_size="adaptive"``,
        only a call that can propose a fresh position feeds the policy.
        """
        if self._gated(env, self.pid):
            return
        ballots = self.ballots
        if (
            self._batch_policy is not None
            and ballots.owned
            and ballots.inflight != self._frontier
        ):
            self._batch_policy.observe(len(self._arrivals))
        request, fresh = ballots.propose(
            env.now, self._frontier, self._max_decided, self._candidate_value()
        )
        if request is None:
            return
        env.broadcast(request)
        if fresh:
            # Our acceptor answers after the fan-out, which must not wait for
            # our fsync; its durable promise keeps a restart off this ballot.
            reply = self._step(env, self.pid, request)
            if reply is not None:
                self._step(env, self.pid, reply)
