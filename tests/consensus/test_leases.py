"""Unit tests for the lease read path's safety-critical corners.

These pin the review-driven fixes directly at the unit level (the system-level
battery lives in ``tests/property_based/test_lease_properties.py`` and the
fuzz soak):

* a grant that round-trips slower than the drive period still completes its
  round's renewal quorum — opening a new round must not invalidate in-flight
  grants (otherwise slow links silently degrade every read to the fallback);
* a grant arriving after its round's whole term elapsed in flight earns
  nothing, and rounds past their term are pruned;
* barrier hints include positions accepted from the grantee's *own* ballots —
  a proposer pid cannot distinguish the grantee's current incarnation from an
  amnesic pre-crash one, so excluding them would let a restarted leader read
  past its dead incarnation's in-flight commits;
* rehydrating acceptor state from stable storage restores durably accepted
  undecided positions, which the barrier-hint fold reads, so a
  crash-recovered granter never attests a frontier below a
  committed-but-unlearnt write;
* gating covers the leader ballot: a foreign ranged ``Prepare`` and a foreign
  ``AcceptRequest`` at any position are dropped while a grant is live, and a
  leader whose own grant is held by someone else does not vote for itself.
"""

from repro.consensus.leases import LeaseManager
from repro.consensus.messages import (
    AcceptRequest,
    LeaseGrant,
    LeaseRequest,
    Prepare,
    Promise,
)
from repro.consensus.replicated_log import ReplicatedLog
from repro.storage.stable_store import StableStore
from repro.testing import FakeEnvironment


def make_manager(pid=0, n=3, t=1, duration=6.0, **kwargs):
    manager = LeaseManager(pid=pid, n=n, t=t, duration=duration, **kwargs)
    # Observe the clock once at t=0 so the post-(re)start grant blackout
    # (one full duration) is over by t=duration in every test below.
    manager.try_grant(0.0, pid)
    return manager


class _FixedOracle:
    def __init__(self, leader):
        self._leader = leader

    def leader(self):
        return self._leader


def make_log(pid=0, n=3, t=1, **kwargs):
    return ReplicatedLog(pid=pid, n=n, t=t, oracle=_FixedOracle(pid), **kwargs)


class TestSlowGrantRoundTrips:
    def test_grant_slower_than_drive_period_still_renews(self):
        manager = make_manager()
        first = manager.start_round(10.0, own_hint=-1)
        assert manager.holds_lease(10.0) is False  # self-grant alone: no quorum
        # The next drive tick opens a new round while the first round's grant
        # is still in flight...
        manager.start_round(12.0, own_hint=-1)
        # ...and the late grant must still complete the *first* round's quorum,
        # with the conservative expiry computed from that round's send time.
        manager.on_grant(12.5, granter=1, round_id=first, hint=-1)
        assert manager.counters["lease_renewals"] == 1
        assert manager.holds_lease(15.9)
        assert not manager.holds_lease(16.0)  # sent_at(10) + duration(6)

    def test_newer_round_keeps_the_later_expiry(self):
        manager = make_manager()
        first = manager.start_round(10.0, own_hint=-1)
        second = manager.start_round(12.0, own_hint=-1)
        manager.on_grant(12.5, granter=1, round_id=second, hint=-1)
        assert manager.holds_lease(17.9)
        # The slower, older round completes afterwards: it must not shorten
        # the lease the newer round already earned.
        manager.on_grant(13.0, granter=1, round_id=first, hint=-1)
        assert manager.holds_lease(17.9)
        assert not manager.holds_lease(18.0)

    def test_grant_after_round_term_elapsed_earns_nothing(self):
        manager = make_manager()
        first = manager.start_round(10.0, own_hint=-1)
        # The whole term (6.0) elapsed while the grant was in flight.
        manager.on_grant(16.0, granter=1, round_id=first, hint=-1)
        assert manager.counters["lease_renewals"] == 0
        assert not manager.holds_lease(16.0)

    def test_rounds_past_their_term_are_pruned(self):
        manager = make_manager()
        first = manager.start_round(10.0, own_hint=-1)
        manager.start_round(30.0, own_hint=-1)  # prunes the expired round
        assert first not in manager._rounds
        manager.on_grant(30.5, granter=1, round_id=first, hint=-1)
        assert manager.counters["lease_renewals"] == 0

    def test_duplicate_grants_do_not_fake_a_quorum(self):
        manager = make_manager(n=5, t=2)
        round_id = manager.start_round(10.0, own_hint=-1)
        manager.on_grant(10.5, granter=1, round_id=round_id, hint=-1)
        manager.on_grant(10.6, granter=1, round_id=round_id, hint=-1)
        assert manager.counters["lease_renewals"] == 0  # quorum is 3; {self, 1} plus a dup is 2


class TestBarrierHints:
    def test_hint_includes_positions_accepted_from_own_ballots(self):
        log = make_log(leases=LeaseManager(pid=0, n=3, t=1))
        # Ballot 3 belongs to pid 0 (ballot % n == 0) — the grantee itself.
        # The hint must cover it anyway: by pid alone, a pre-crash amnesic
        # incarnation's in-flight commit is indistinguishable from a live one.
        log.ballots.on_accept_request(AcceptRequest(instance=5, ballot=3, value="v"))
        assert log._lease_barrier_hint() == 5

    def test_hint_covers_decided_and_foreign_accepted_positions(self):
        log = make_log(leases=LeaseManager(pid=0, n=3, t=1))
        assert log._lease_barrier_hint() == -1
        log._learn(0, "a")
        log.ballots.on_accept_request(AcceptRequest(instance=2, ballot=4, value="v"))  # pid 1's ballot
        assert log._lease_barrier_hint() == 2

    def test_decided_positions_leave_the_accepted_fold(self):
        log = make_log(leases=LeaseManager(pid=0, n=3, t=1))
        log.ballots.on_accept_request(AcceptRequest(instance=0, ballot=4, value="a"))
        log._learn(0, "a")
        assert log.ballots.accepted == {}
        assert log._lease_barrier_hint() == 0  # now via max-decided


class TestRehydratedBarrierHints:
    def _store_with(self, decided, acceptors):
        store = StableStore(pid=0)
        for position, value in decided.items():
            store.put(("decided", position), value)
        for position, state in acceptors.items():
            store.put(("acceptor", position), state)
        return store

    def test_recovery_restores_accepted_positions_still_in_flight(self):
        # Position 0 decided; position 1 durably accepted but undecided at the
        # crash — exactly the commit-in-flight a recovered granter's hints
        # omitted before the fix, letting a new leaseholder gain read
        # authority below a committed-but-unlearnt write.
        store = self._store_with(
            decided={0: "a"},
            acceptors={0: (5, "a"), 1: (7, "b")},
        )
        log = make_log(leases=LeaseManager(pid=0, n=3, t=1))
        log.attach_storage(store)
        assert log.ballots.accepted == {1: (7, "b")}
        assert log._lease_barrier_hint() == 1

    def test_recovery_skips_decided_positions(self):
        store = self._store_with(decided={0: "a"}, acceptors={0: (5, "a")})
        log = make_log(leases=LeaseManager(pid=0, n=3, t=1))
        log.attach_storage(store)
        # Already covered by the max-decided ingredient.
        assert log.ballots.accepted == {}
        assert log._lease_barrier_hint() == 0

    def test_recovery_restores_the_acceptor_record_with_leases_on_or_off(self):
        # The hints read the protocol's own acceptor map, so whether leases
        # are on cannot change what a recovery restores.
        hints = set()
        for leases in (None, LeaseManager(pid=0, n=3, t=1)):
            log = make_log(leases=leases)
            log.attach_storage(self._store_with(decided={}, acceptors={1: (7, "b")}))
            assert log.ballots.accepted == {1: (7, "b")}
            hints.add(log._lease_barrier_hint())
        assert hints == {1}


class TestLeaseGating:
    """A live grant makes its holder the only proposer this replica hears —
    also for the ranged ``Prepare`` of the leader ballot, and also when the
    silenced proposer is this replica itself."""

    def granted_to(self, holder, pid=0):
        log = make_log(pid=pid, leases=make_manager(pid=pid))
        env = FakeEnvironment(pid=pid, n=3)
        env.set_time(10.0)  # past the post-start grant blackout
        log.on_message(env, holder, LeaseRequest(round=1, sent_at=9.5))
        assert [type(m) for m in env.messages_to(holder)] == [LeaseGrant]
        env.clear_sent()
        return log, env

    def test_foreign_ranged_prepare_is_dropped_while_the_grant_is_live(self):
        log, env = self.granted_to(holder=1)
        log.on_message(env, 2, Prepare(ballot=8, from_position=0))
        assert env.sent == []  # neither a Promise nor a Nack
        assert log.ballots.promised == -1
        assert log.counters["lease_gated_drops"] == 1
        # The holder itself is heard ...
        log.on_message(env, 1, Prepare(ballot=7, from_position=0))
        assert [type(m) for m in env.messages_to(1)] == [Promise]
        # ... and so is anyone once the grant (10.0 + 6.0) has run out.
        env.set_time(16.0)
        log.on_message(env, 2, Prepare(ballot=8, from_position=0))
        assert [type(m) for m in env.messages_to(2)] == [Promise]
        assert log.counters["lease_gated_drops"] == 1

    def test_foreign_accept_request_is_dropped_at_any_position(self):
        log, env = self.granted_to(holder=1)
        for position in (0, 9):
            log.on_message(env, 2, AcceptRequest(instance=position, ballot=8, value="x"))
        assert env.sent == [] and log.ballots.accepted == {}
        assert log.counters["lease_gated_drops"] == 2

    def test_a_gated_leader_proposes_nothing_not_even_to_itself(self):
        # Its own vote would be a foreign commit's vote as far as the holder's
        # lease is concerned, so the local shortcut must respect the gate too.
        log, env = self.granted_to(holder=1)
        log.submit("cmd")
        env.set_time(12.0)
        log._drive(env)
        assert env.messages_of_type(Prepare) == []
        assert log.ballots.promised == -1 and log.counters["ballots_started"] == 0
        env.set_time(16.0)
        log._drive(env)
        assert len(env.messages_of_type(Prepare)) == 2
