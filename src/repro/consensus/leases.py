"""Leader read leases over the replicated log's heartbeat traffic.

A lease is permission to serve linearizable reads *locally*, without running
consensus per read.  The protocol rides the replicated log's existing drive
tick and is safe on the simulator's virtual clock without any synchronised
clocks, using only the fact that message delays are non-negative:

* the process that currently trusts itself as leader broadcasts a
  :class:`~repro.consensus.messages.LeaseRequest` carrying its send time on
  every drive tick, and grants itself immediately;
* a replica receiving the request **grants** (:class:`~repro.consensus.
  messages.LeaseGrant`) iff it holds no live grant to a *different* process;
  its grant expires ``duration`` after its local receipt time.  Grants are
  exclusive per replica, so quorum intersection makes the *leader lease*
  (below) exclusive across processes at any virtual instant;
* once a quorum (``n - t``, counting the self-grant) has granted one round,
  the leader holds the lease until ``sent_at + duration`` — never later than
  any granter's expiry, because the request was sent no later than it was
  received.  A partitioned stale leader therefore provably runs out of lease
  no later than the moment the last grant that elected it expires — strictly
  before a new leader can assemble a fresh granting quorum;
* while a replica's grant to X is live it **drops** ``Prepare`` and
  ``AcceptRequest`` from processes other than X (counted, never answered).
  Any value committed by a *foreign* proposer therefore completes only after
  a quorum-intersecting grant has expired — i.e. after the old leader's lease
  has expired — so a leader inside a valid lease can never be missing a write
  that some client already saw complete.  ``Decide``/catch-up/snapshot
  messages are never gated: learning an already-committed value only advances
  the applied prefix, it cannot create staleness.

**Read authority** needs one more ingredient: a *new* leader's lease must not
let it serve before it has applied everything decided before the lease began
(a ``Decide`` may have reached only one replica; an amnesic restarted leader
may not remember its own pre-crash decisions).  Every grant carries a
``barrier_hint`` — the granter's highest position seen decided or accepted
from *any* ballot — and the leader may serve only once its applied frontier
is strictly past the maximum hint over a satisfied round (its own ingredient
included).  Positions accepted from the leader's own ballots are *not*
excluded: a ballot's proposer pid cannot distinguish the leader's current
incarnation from an amnesic pre-crash one, so an exclusion would let a
restarted leader read past its dead incarnation's in-flight commits.  The
cost of including them is read latency under the leader's own in-flight
proposals, never safety.

Renewal rounds are opened on every drive tick, but a new round does **not**
invalidate the grants of earlier rounds still in flight: grants are accepted
for any round whose term has not yet run out, and a quorum inside any single
round completes a renewal with expiry ``that round's sent_at + duration``
(still conservative — each granter's window opened at or after that send
time).  Without this, a grant round trip at or above the drive period would
reset the round book every tick and the lease would never be held at all.

The unsafe ``validate_clock=False`` switch disables the serve-time expiry
check — the stale-read witness of ``tests/regressions`` uses it to show the
exact schedule on which a partitioned old leader would serve a stale read if
the virtual-clock validation were missing.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.util.validation import require_positive

#: Sentinel barrier meaning "no position constrains read authority yet".
NO_BARRIER = -1


class LeaseManager:
    """Lease state of one replica (both the granter and the holder role).

    Owned by a :class:`~repro.consensus.replicated_log.ReplicatedLog` built
    with ``leases=``; the log calls in from its drive tick and message
    handlers and consults :meth:`gates` before feeding proposer traffic to
    its consensus instances.

    Parameters
    ----------
    pid, n, t:
        System parameters; the grant quorum is ``n - t`` (counting self).
    duration:
        Lease term in virtual time.  Must comfortably exceed the drive period
        (renewal cadence) — with the default drive period of 2 the default of
        6 keeps the lease alive across one lost renewal round.
    validate_clock:
        When False, :meth:`holds_lease` skips the expiry check — the **unsafe**
        knob used only by the stale-read regression witness.
    audit:
        Optional shared list; every satisfied renewal appends
        ``(pid, start, expiry)`` so tests can check mutual exclusion across
        replicas and incarnations (the list outlives recoveries).
    """

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        duration: float = 6.0,
        validate_clock: bool = True,
        audit: Optional[List[Tuple[int, float, float]]] = None,
    ) -> None:
        require_positive(duration, "duration")
        self.pid = pid
        self.n = n
        self.quorum = n - t
        self.duration = duration
        self.validate_clock = validate_clock
        self.audit = audit

        # Granter role: who holds our grant, and until when.  A freshly built
        # manager (boot *or* post-crash rebuild — it cannot tell the two
        # apart) refuses every grant, its own included, for one full lease
        # term after its first clock observation: a crashed granter forgets
        # its outstanding grant, and granting again before that grant could
        # have expired would let two disjoint-looking quorums certify two
        # simultaneous leases.  The blackout outlives any pre-crash grant by
        # construction (the grant was given before the crash, the blackout
        # starts after the recovery).
        self._no_grants_before: Optional[float] = None
        self._granted_to: Optional[int] = None
        self._grant_expires = 0.0

        # Holder role: the renewal rounds in flight and the earned lease.
        # Every round still inside its term keeps its grant book — a grant
        # round trip slower than the drive period must not be invalidated by
        # the next tick's round.  round id -> (sent_at, granter pid -> hint).
        self._round = 0
        self._rounds: Dict[int, Tuple[float, Dict[int, int]]] = {}
        self._lease_expires = 0.0
        #: Highest barrier hint over every satisfied round (monotone).
        self.barrier = NO_BARRIER

        #: Counter registry (see :attr:`~repro.core.interfaces.Process.counters`);
        #: the log this manager is handed to replaces it with its own.
        self.counters: Dict[str, int] = Counter()

    # ------------------------------------------------------------------ granter --
    def grant_live(self, now: float) -> bool:
        """True while this replica's grant to someone else is unexpired."""
        return self._granted_to is not None and now < self._grant_expires

    def try_grant(self, now: float, requester: int) -> bool:
        """Grant (or renew) *requester*'s lease; False when held elsewhere or
        inside this incarnation's post-(re)start grant blackout."""
        if self._no_grants_before is None:
            self._no_grants_before = now + self.duration
        if now < self._no_grants_before:
            return False
        if self.grant_live(now) and self._granted_to != requester:
            return False
        self._granted_to = requester
        self._grant_expires = now + self.duration
        if requester != self.pid:
            self.counters["lease_grants_sent"] += 1
        return True

    def gates(self, now: float, proposer: int) -> bool:
        """True when proposer traffic from *proposer* must be dropped.

        A live grant to X makes this replica deaf to every other proposer's
        ``Prepare``/``AcceptRequest`` until the grant expires; the caller
        counts the drop.  (Never gate the grant holder itself, nor anyone
        once the grant has expired.)
        """
        if self.grant_live(now) and self._granted_to != proposer:
            self.counters["lease_gated_drops"] += 1
            return True
        return False

    # ------------------------------------------------------------------ holder --
    def start_round(self, now: float, own_hint: int) -> int:
        """Open a new renewal round at send time *now*; returns the round id.

        Earlier rounds whose term has not yet run out keep their grant books —
        a grant that round-trips slower than the drive period still completes
        its round's quorum (without this, every tick would reset the book and
        a leader whose grants take ``>= drive_period`` to return would never
        hold the lease at all).  Rounds past their term are pruned here, so
        the book never holds more than ``duration / drive_period`` rounds.

        The self-grant is attempted immediately (with this replica's own
        barrier ingredient): when it succeeds, this replica gates foreign
        proposers exactly like any other granting quorum member and counts
        towards its own quorum.  During the post-(re)start blackout the
        self-grant is refused like any other, so a restarted leader cannot
        count itself while a forgotten pre-crash grant may still be live.
        """
        self._round += 1
        for stale in [
            round_id
            for round_id, (sent_at, _) in self._rounds.items()
            if sent_at + self.duration <= now
        ]:
            del self._rounds[stale]
        grants: Dict[int, int] = {}
        self._rounds[self._round] = (now, grants)
        if self.try_grant(now, self.pid):
            grants[self.pid] = own_hint
        return self._round

    def on_grant(self, now: float, granter: int, round_id: int, hint: int) -> None:
        """Record a grant for a still-live round; completes that round's
        renewal when a quorum is reached, extending the lease to the round's
        ``sent_at + duration`` (conservative: every granter's window opened
        at or after the round's send time)."""
        record = self._rounds.get(round_id)
        if record is None:
            return  # unknown round, or its term already ran out
        sent_at, grants = record
        if sent_at + self.duration <= now or granter in grants:
            return  # the round's whole term elapsed in flight, or a duplicate
        grants[granter] = hint
        if len(grants) < self.quorum:
            return
        expiry = sent_at + self.duration
        if expiry <= self._lease_expires:
            return  # a newer round already earned a later expiry
        self._lease_expires = expiry
        round_barrier = max(grants.values())
        if round_barrier > self.barrier:
            self.barrier = round_barrier
        self.counters["lease_renewals"] += 1
        if self.audit is not None:
            # The usable window opens when the quorum completes (now), never
            # retroactively at the send time — that is what exclusion tests
            # compare across processes.
            self.audit.append((self.pid, min(now, expiry), expiry))

    def holds_lease(self, now: float) -> bool:
        """True while this replica's leader lease is valid (or validation off)."""
        if not self.validate_clock:
            return self._lease_expires > 0.0  # unsafe: any past renewal counts
        return now < self._lease_expires

    def read_authority(self, now: float, frontier: int) -> bool:
        """True when reads may be served locally: valid lease *and* the applied
        frontier strictly past every barrier hint a granting quorum reported."""
        return self.holds_lease(now) and frontier > self.barrier


__all__ = ["NO_BARRIER", "LeaseManager"]
