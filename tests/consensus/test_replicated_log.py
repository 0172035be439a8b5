"""Unit tests for the leader-driven replicated log."""

from types import SimpleNamespace

import pytest

from repro.consensus.batching import ADAPTIVE, AdaptiveBatchPolicy
from repro.consensus.commands import Batch, Command, flatten_value, payload_intact
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
)
from repro.consensus.replicated_log import NOOP, ReplicatedLog
from repro.simulation.corruption import corrupt_message
from repro.simulation.delays import ConstantDelay
from repro.simulation.system import System, SystemConfig
from repro.storage.compaction import CompactionPolicy
from repro.storage.snapshot import Snapshot, SnapshotManager
from repro.storage.stable_store import StableStore
from repro.testing import FakeEnvironment
from repro.util.rng import RandomSource


class _FixedOracle:
    """A leader oracle test double with a settable output."""

    def __init__(self, leader):
        self._leader = leader

    def leader(self):
        return self._leader

    def set(self, leader):
        self._leader = leader


def make(pid=0, n=5, t=2, leader=0, submitted=(), **kwargs):
    """A started log and its fake environment.  *submitted* values are
    submitted before ``on_start``: with no environment to send through yet,
    they queue for the first drive tick together."""
    oracle = _FixedOracle(leader)
    log = ReplicatedLog(pid=pid, n=n, t=t, oracle=oracle, **kwargs)
    for value in submitted:
        log.submit(value)
    env = FakeEnvironment(pid=pid, n=n)
    log.on_start(env)
    return log, oracle, env


class TestValidation:
    def test_requires_majority_of_correct_processes(self):
        with pytest.raises(ValueError, match="majority"):
            ReplicatedLog(pid=0, n=4, t=2, oracle=_FixedOracle(0))

    def test_noop_cannot_be_submitted(self):
        log, _, _ = make()
        with pytest.raises(ValueError):
            log.submit(NOOP)

    def test_unhashable_value_is_rejected_at_submit(self):
        # Undecided and decided values are indexed by hash; the error surfaces
        # at the call, before any bookkeeping changed.
        log, _, _ = make()
        with pytest.raises(TypeError, match="unhashable"):
            log.submit(["not", "hashable"])
        assert log.pending == []


class TestSubmissionAndForwarding:
    def test_submit_is_idempotent(self):
        log, _, _ = make()
        log.submit("a")
        log.submit("a")
        assert log.pending == ["a"]

    def test_non_leader_forwards_pending_to_leader(self):
        log, oracle, env = make(pid=2, leader=4)
        log.submit("cmd")
        env.advance(2.0)
        env.fire_due_timers(log)
        forwards = [m for m in env.messages_to(4) if isinstance(m, Forward)]
        assert [flatten_value(m.value) for m in forwards] == [("cmd",)]

    def test_forwarded_command_stored_once(self):
        log, _, env = make(pid=0, leader=1)
        log.on_message(env, 3, Forward(value="x"))
        log.on_message(env, 4, Forward(value="x"))
        assert log.forwarded == ["x"]

    def test_leader_proposes_pending_command(self):
        log, _, env = make(pid=0, leader=0)
        log.submit("cmd")
        env.advance(2.0)
        env.fire_due_timers(log)
        prepares = env.messages_of_type(Prepare)
        assert prepares, "the leader must start a proposal"
        assert log.counters["ballots_started"] == 1

    def test_non_leader_does_not_propose(self):
        log, _, env = make(pid=0, leader=3)
        log.submit("cmd")
        env.advance(2.0)
        env.fire_due_timers(log)
        assert env.messages_of_type(Prepare) == []

    def test_idle_leader_with_nothing_pending_stays_silent(self):
        log, _, env = make(pid=0, leader=0)
        env.advance(2.0)
        env.fire_due_timers(log)
        assert env.messages_of_type(Prepare) == []


def tick(log, env, ticks=1, period=2.0):
    """Advance the fake clock tick by tick, firing the drive timer each time."""
    for _ in range(ticks):
        env.advance(period)
        env.fire_due_timers(log)


def two_peers(log):
    """Two peers of *log*: with its own voice, a quorum at the default n=5, t=2."""
    return [pid for pid in range(log.n) if pid != log.pid][:2]


def promise(log, env, senders=None, accepted=(), decisions=()):
    """Answer the latest Prepare of *log* from *senders*; returns that Prepare."""
    prepare = env.messages_of_type(Prepare)[-1]
    for sender in senders or two_peers(log):
        log.on_message(
            env,
            sender,
            Promise(ballot=prepare.ballot, accepted=accepted, decisions=decisions),
        )
    return prepare


def vote(log, env, senders=None):
    """Answer the latest AcceptRequest of *log* from *senders*; returns it."""
    request = env.messages_of_type(AcceptRequest)[-1]
    for sender in senders or two_peers(log):
        log.on_message(
            env,
            sender,
            Accepted(instance=request.instance, ballot=request.ballot, value=request.value),
        )
    return request


def owning_leader(**kwargs):
    """A leader that owns its ballot and has decided ``first`` at position 0."""
    log, oracle, env = make(pid=0, leader=0, **kwargs)
    log.submit("first")
    tick(log, env)
    promise(log, env)
    vote(log, env)
    assert log.decided_log() == {0: "first"}
    return log, oracle, env


def forwarded_batches(env, dest=None):
    """Command tuples of the Forward messages sent so far (optionally to *dest*)."""
    return [
        flatten_value(sent.message.value)
        for sent in env.sent
        if isinstance(sent.message, Forward) and dest in (None, sent.dest)
    ]


class TestForwardOnceBatched:
    """The command path: one Forward per tick at most, re-sent only on a
    leader change or after ``retry_period`` (drive 2.0, retry 10.0 here)."""

    def commands(self, count, client="c"):
        return [Command.put(client, seq, f"k{seq}", seq) for seq in range(1, count + 1)]

    def test_k_pending_commands_travel_in_exactly_one_forward(self):
        commands = self.commands(5)
        log, _, env = make(pid=2, leader=4, submitted=commands)
        tick(log, env)
        assert forwarded_batches(env) == [tuple(commands)]
        assert forwarded_batches(env, dest=4) == [tuple(commands)]
        assert isinstance(env.messages_of_type(Forward)[0].value, Batch)
        assert log.counters["forward_msgs_sent"] == 1
        assert log.counters["forward_commands_sent"] == 5

    def test_nothing_resent_while_leader_unchanged_and_retry_not_elapsed(self):
        log, _, env = make(pid=2, leader=4, submitted=self.commands(3))
        tick(log, env)  # t=2: the full send
        env.clear_sent()
        tick(log, env, ticks=4)  # t=4..10: retry_period (10) not yet elapsed
        assert forwarded_batches(env) == []
        assert len(log.pending) == 3

    def test_only_commands_submitted_since_last_tick_are_sent(self):
        log, _, env = make(pid=2, leader=4)
        old = self.commands(2, client="old")
        for command in old:
            log.submit(command)
        tick(log, env)
        env.clear_sent()
        fresh = self.commands(2, client="fresh")
        for command in fresh:
            log.submit(command)
        tick(log, env)
        assert forwarded_batches(env) == [tuple(fresh)]

    def test_leader_change_resends_full_pending_set_in_submission_order(self):
        log, oracle, env = make(pid=2, leader=4)
        first = self.commands(3, client="a")
        for command in first:
            log.submit(command)
        tick(log, env)
        late = self.commands(2, client="b")
        for command in late:
            log.submit(command)
        env.clear_sent()
        oracle.set(3)
        tick(log, env)
        assert forwarded_batches(env, dest=3) == [tuple(first + late)]
        assert forwarded_batches(env, dest=4) == []
        env.clear_sent()
        tick(log, env)  # the new leader is now the unchanged one
        assert forwarded_batches(env) == []

    def test_full_resend_after_retry_period(self):
        commands = self.commands(3)
        log, _, env = make(
            pid=2, leader=4, submitted=commands, drive_period=2.0, retry_period=10.0
        )
        tick(log, env)  # t=2
        env.clear_sent()
        tick(log, env, ticks=4)  # t=10
        assert forwarded_batches(env) == []
        tick(log, env)  # t=12: 10 elapsed since the full send at t=2
        assert forwarded_batches(env) == [tuple(commands)]
        env.clear_sent()
        tick(log, env, ticks=4)  # t=20: the clock restarted at t=12
        assert forwarded_batches(env) == []
        tick(log, env)
        assert forwarded_batches(env) == [tuple(commands)]

    def test_command_decided_between_submit_and_tick_is_not_forwarded(self):
        log, _, env = make(pid=2, leader=4)
        tick(log, env)  # spend the initial full send on an empty pending set
        held, decided, kept = self.commands(3)
        log.submit(held)  # forwarded at once; undecided, so the next two queue
        log.submit(decided)
        log.submit(kept)
        log.on_message(env, 4, Decide(instance=0, value=decided))
        env.clear_sent()
        tick(log, env)
        assert forwarded_batches(env) == [(kept,)]

    def test_nothing_pending_sends_no_forward(self):
        log, _, env = make(pid=2, leader=4)
        tick(log, env, ticks=8)  # crosses a retry_period boundary too
        assert forwarded_batches(env) == []

    def test_receiver_admits_each_member_through_the_dedupe(self):
        log, _, env = make(pid=4, leader=4)
        decided, pending, seen, new = self.commands(4)
        log.on_message(env, 0, Decide(instance=0, value=decided))
        log.submit(pending)
        log.on_message(env, 1, Forward(value=seen))
        batch = Batch(commands=(decided, pending, seen, new))
        log.on_message(env, 2, Forward(value=batch))
        log.on_message(env, 3, Forward(value=batch))  # a re-send changes nothing
        assert log.forwarded == [seen, new]
        assert log.pending == [pending]

    def test_tampered_batch_rejected_whole_and_recovered_by_the_resend(self):
        commands = self.commands(3)
        sender, _, sender_env = make(pid=2, leader=4, submitted=commands)
        leader, _, leader_env = make(pid=4, leader=4)
        tick(sender, sender_env)
        (forward,) = sender_env.messages_of_type(Forward)
        tampered = corrupt_message(forward, RandomSource(7, label="tamper"))
        assert tampered is not None and not payload_intact(tampered)
        leader.on_message(leader_env, 2, tampered)
        assert leader.counters["corruption_rejections"] == 1
        assert leader.forwarded == []  # not even the intact members got in
        sender_env.clear_sent()
        tick(sender, sender_env, ticks=5)  # retry_period later: the full re-send
        (resend,) = sender_env.messages_of_type(Forward)
        leader.on_message(leader_env, 2, resend)
        assert leader.forwarded == commands
        assert leader.counters["corruption_rejections"] == 1

    def test_leader_forwards_nothing_and_once_demoted_forwards_survivors(self):
        log, oracle, env = make(pid=2, leader=2)
        decided, *survivors = self.commands(4)
        log.submit(decided)
        for command in survivors:
            log.submit(command)
        tick(log, env, ticks=6)  # leader through a whole retry_period
        assert forwarded_batches(env) == []
        log.on_message(env, 0, Decide(instance=0, value=decided))
        oracle.set(4)
        tick(log, env)
        assert forwarded_batches(env) == [tuple(survivors)]
        assert forwarded_batches(env, dest=4) == [tuple(survivors)]

    def test_demotion_back_to_the_previous_leader_still_resends(self):
        log, oracle, env = make(pid=2, leader=4)
        tick(log, env)
        oracle.set(2)
        command = self.commands(1)[0]
        log.submit(command)  # submitted while leader: never forwarded so far
        tick(log, env)
        oracle.set(4)
        tick(log, env)
        assert forwarded_batches(env) == [(command,)]


class TestDecisionsAndDelivery:
    def test_decide_message_updates_log(self):
        log, _, env = make(pid=1, leader=0)
        log.on_message(env, 0, Decide(instance=0, value="a"))
        assert log.decided_log() == {0: "a"}
        assert log.delivered() == ["a"]

    def test_delivery_stops_at_first_hole(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.on_message(env, 0, Decide(instance=2, value="c"))
        assert log.delivered() == ["a"]

    def test_noop_excluded_from_delivery(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Decide(instance=0, value=NOOP))
        log.on_message(env, 0, Decide(instance=1, value="b"))
        assert log.delivered() == ["b"]

    def test_decided_value_removed_from_queues(self):
        log, _, env = make(pid=1, leader=1)
        log.submit("a")
        log.on_message(env, 2, Forward(value="b"))
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.on_message(env, 0, Decide(instance=1, value="b"))
        assert log.pending == []
        assert log.forwarded == []

    def test_leader_fills_holes_with_noop(self):
        log, _, env = make(pid=0, leader=0)
        # Position 1 decided, position 0 is a hole; the leader has nothing pending.
        log.on_message(env, 2, Decide(instance=1, value="x"))
        tick(log, env)
        assert promise(log, env).from_position == 0
        (request, *_) = env.messages_of_type(AcceptRequest)
        assert (request.instance, request.value) == (0, NOOP)

    def test_unanswered_prepare_is_retried_with_a_higher_ballot(self):
        log, _, env = make(pid=0, leader=0, drive_period=2.0, retry_period=10.0)
        log.submit("cmd")
        tick(log, env)
        (first,) = {m.ballot for m in env.messages_of_type(Prepare)}
        tick(log, env)
        # The Prepare is still in flight and the retry period has not elapsed:
        # no second burst yet.
        assert {m.ballot for m in env.messages_of_type(Prepare)} == {first}
        tick(log, env, ticks=5)
        # Acceptors nack a ballot they already promised, so the retry is a
        # fresh, higher one.
        (second,) = {m.ballot for m in env.messages_of_type(Prepare)} - {first}
        assert second > first and log.counters["ballots_started"] == 2

    def test_unexpected_message_rejected(self):
        log, _, env = make()
        with pytest.raises(TypeError):
            log.on_message(env, 0, object())

    def test_unknown_timer_rejected(self):
        log, _, env = make()
        with pytest.raises(ValueError):
            log.on_timer(env, env.set_timer(0.0, "bogus"))


class TestCommandIdentityDedup:
    """Regression tests for the duplicate-command hazard.

    The seed log deduplicated by value equality, so two genuinely distinct but
    equal commands (two ``+1`` increments submitted as equal payloads) collapsed
    into one.  Command envelopes carry ``(client_id, seq)``, making equality an
    identity check: distinct increments survive, retransmissions are dropped.
    """

    def test_equal_raw_values_are_still_collapsed(self):
        # The legacy hazard, kept for documentation: raw equal payloads merge.
        log, _, _ = make()
        log.submit("+1")
        log.submit("+1")
        assert log.pending == ["+1"]

    def test_distinct_commands_with_equal_effect_are_both_kept(self):
        log, _, _ = make()
        first = Command.incr("alice", 1, "counter")
        second = Command.incr("alice", 2, "counter")
        log.submit(first)
        log.submit(second)
        assert log.pending == [first, second]

    def test_retransmission_of_same_command_is_dropped(self):
        log, _, _ = make()
        command = Command.incr("alice", 1, "counter")
        log.submit(command)
        log.submit(Command.incr("alice", 1, "counter"))
        assert log.pending == [command]

    def test_decided_command_not_resubmittable(self):
        log, _, env = make(pid=1)
        command = Command.incr("alice", 1, "counter")
        log.on_message(env, 0, Decide(instance=0, value=command))
        log.submit(Command.incr("alice", 1, "counter"))
        assert log.pending == []

    def test_command_inside_decided_batch_removed_from_queues(self):
        log, _, env = make(pid=1)
        a = Command.incr("alice", 1, "counter")
        b = Command.incr("bob", 1, "counter")
        c = Command.incr("carol", 1, "counter")
        log.submit(a)
        log.on_message(env, 2, Forward(value=b))
        log.on_message(env, 0, Decide(instance=0, value=Batch(commands=(a, b))))
        assert log.pending == []
        assert log.forwarded == []
        log.submit(c)
        assert log.pending == [c]


class TestBatching:
    def test_batch_size_must_be_positive(self):
        for batch_size in (0, -1, "adaptve", 2.5, True):
            with pytest.raises(ValueError):
                make(batch_size=batch_size)

    def test_adaptive_limit_tracks_the_backlog(self):
        policy = AdaptiveBatchPolicy()
        limits = []
        for backlog in (0, 40, 40, 3, 0, 100):
            limits.append(policy.observe(backlog))
            assert policy.limit == policy.limit == limits[-1]  # reading feeds nothing
        assert limits == [1, 21, 31, 17, 9, 32]

    def test_leader_packs_pending_commands_into_one_batch(self):
        log, _, env = make(pid=0, leader=0, batch_size=4)
        commands = [Command.put("c", seq, f"k{seq}", seq) for seq in range(1, 7)]
        for command in commands:
            log.submit(command)
        env.advance(2.0)
        env.fire_due_timers(log)
        assert env.messages_of_type(AcceptRequest) == []
        assert promise(log, env).from_position == 0
        accepts = env.messages_of_type(AcceptRequest)
        assert accepts, "quorum of promises must trigger phase 2"
        value = accepts[0].value
        assert isinstance(value, Batch)
        assert value.commands == tuple(commands[:4])

    def test_single_pending_command_not_wrapped(self):
        log, _, env = make(pid=0, leader=0, batch_size=4)
        command = Command.put("c", 1, "k", "v")
        log.submit(command)
        env.advance(2.0)
        env.fire_due_timers(log)
        promise(log, env)
        value = env.messages_of_type(AcceptRequest)[0].value
        assert value == command

    def proposed_value(self, log, env):
        """Drive one tick (answering its Prepare, if it sent one) and return
        the value phase 2 carries."""
        prepares = len(env.messages_of_type(Prepare))
        tick(log, env)
        if len(env.messages_of_type(Prepare)) > prepares:
            promise(log, env)
        return env.messages_of_type(AcceptRequest)[-1].value

    def test_leader_proposes_own_and_forwarded_commands_in_arrival_order(self):
        # A leader whose own gateway alone fills every batch must not starve
        # the commands its followers forwarded.
        log, _, env = make(pid=0, leader=0, batch_size=4)
        own = [Command.put("own", seq, f"k{seq}", seq) for seq in range(1, 7)]
        theirs = [Command.put("theirs", seq, f"k{seq}", seq) for seq in range(1, 3)]
        for command in own[:3]:
            log.submit(command)
        log.on_message(env, 2, Forward(value=Batch(commands=tuple(theirs))))
        for command in own[3:]:
            log.submit(command)
        value = self.proposed_value(log, env)
        assert value.commands == (own[0], own[1], own[2], theirs[0])
        log.on_message(env, 0, Decide(instance=0, value=value))
        value = self.proposed_value(log, env)
        assert value.commands == (theirs[1], own[3], own[4], own[5])

    def test_forwarded_command_resubmitted_locally_keeps_its_place(self):
        log, _, env = make(pid=0, leader=0, batch_size=2)
        first, second, third = (Command.put("c", seq, "k", seq) for seq in range(1, 4))
        log.on_message(env, 2, Forward(value=first))
        log.submit(second)
        log.submit(third)
        log.submit(first)  # a client retry landing on the leader's own gateway
        assert self.proposed_value(log, env).commands == (first, second)

    def test_delivered_commands_flattens_batches(self):
        log, _, env = make(pid=1)
        a = Command.put("c", 1, "x", 1)
        b = Command.put("c", 2, "y", 2)
        c = Command.put("d", 1, "z", 3)
        log.on_message(env, 0, Decide(instance=0, value=Batch(commands=(a, b))))
        log.on_message(env, 0, Decide(instance=1, value=c))
        assert log.delivered() == [Batch(commands=(a, b)), c]
        assert log.delivered_commands() == [a, b, c]


class TestDeliveryCallback:
    def test_callback_fires_in_contiguous_prefix_order(self):
        log, _, env = make(pid=1)
        seen = []
        log.on_deliver = lambda position, value: seen.append((position, value))
        log.on_message(env, 0, Decide(instance=2, value="c"))
        assert seen == []  # hole at 0: nothing contiguous yet
        log.on_message(env, 0, Decide(instance=0, value="a"))
        assert seen == [(0, "a")]
        log.on_message(env, 0, Decide(instance=1, value=NOOP))
        # The noop filler closes the hole silently and releases position 2.
        assert seen == [(0, "a"), (2, "c")]
        assert log.delivered() == ["a", "c"]


class TestHotPathCursors:
    def test_frontier_tracks_first_hole(self):
        log, _, env = make(pid=1)
        assert log.frontier == 0
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.on_message(env, 0, Decide(instance=1, value="b"))
        log.on_message(env, 0, Decide(instance=5, value="f"))
        assert log.frontier == 2

    def test_delivered_is_the_decided_window_below_the_frontier(self):
        log, _, env = make(pid=1)
        for position in range(50):
            log.on_message(env, 0, Decide(instance=position, value=f"v{position}"))
        assert log.delivered() == [f"v{position}" for position in range(50)]
        log.compact_below(20)
        assert log.delivered() == [f"v{position}" for position in range(20, 50)]


def sent_to(env, message_type):
    """``(dest, message)`` pairs of the *message_type* messages sent so far."""
    return [
        (sent.dest, sent.message)
        for sent in env.sent
        if isinstance(sent.message, message_type)
    ]


class TestLogWideAcceptor:
    """One promise for the whole log: what a follower answers to phase 1 and
    how that promise governs phase 2 at every position."""

    def test_prepare_answered_with_one_promise(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Prepare(ballot=5, from_position=0))
        assert sent_to(env, Promise) == [
            (0, Promise(ballot=5, accepted=(), decisions=()))
        ]

    def test_lower_or_equal_prepare_nacked_with_the_promise_that_beat_it(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Prepare(ballot=10, from_position=0))
        log.on_message(env, 2, Prepare(ballot=7, from_position=0))
        log.on_message(env, 0, Prepare(ballot=10, from_position=0))  # a reuse
        assert sent_to(env, Nack) == [
            (2, Nack(ballot=7, promised=10)),
            (0, Nack(ballot=10, promised=10)),
        ]
        assert len(sent_to(env, Promise)) == 1

    def test_promise_lists_what_is_held_from_the_requested_position_up(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.on_message(env, 0, AcceptRequest(instance=1, ballot=3, value="below"))
        log.on_message(env, 0, AcceptRequest(instance=2, ballot=3, value="b"))
        log.on_message(env, 0, Decide(instance=3, value="c"))
        log.on_message(env, 0, AcceptRequest(instance=3, ballot=3, value="c"))
        log.on_message(env, 0, AcceptRequest(instance=5, ballot=3, value="e"))
        log.on_message(env, 2, Prepare(ballot=9, from_position=2))
        ((dest, reply),) = sent_to(env, Promise)
        assert dest == 2 and reply.ballot == 9
        assert reply.accepted == ((2, 3, "b"), (5, 3, "e"))
        assert reply.decisions == ((3, "c"),)

    def test_accept_request_honoured_at_the_promise_and_above_it(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, Prepare(ballot=5, from_position=0))
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=5, value="v"))
        log.on_message(env, 2, AcceptRequest(instance=1, ballot=8, value="w"))
        assert sent_to(env, Accepted) == [
            (0, Accepted(instance=0, ballot=5, value="v")),
            (2, Accepted(instance=1, ballot=8, value="w")),
        ]
        # Accepting ballot 8 promised it: ballot 5 is now refused everywhere.
        log.on_message(env, 0, AcceptRequest(instance=2, ballot=5, value="x"))
        assert sent_to(env, Nack) == [(0, Nack(ballot=5, promised=8))]

    @pytest.mark.parametrize("position", [0, 1, 7, 1000])
    def test_deposed_owner_is_nacked_at_any_position(self, position):
        # Ballot 3 was owned by p0; p2 then prepared ballot 12.  Every
        # acceptor that promised the successor refuses the old owner wherever
        # it tries, including positions it never heard of before.
        log, _, env = make(pid=1)
        log.on_message(env, 0, Prepare(ballot=3, from_position=0))
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=3, value="old"))
        log.on_message(env, 2, Prepare(ballot=12, from_position=0))
        env.clear_sent()
        log.on_message(env, 0, AcceptRequest(instance=position, ballot=3, value="x"))
        assert sent_to(env, Nack) == [(0, Nack(ballot=3, promised=12))]
        assert sent_to(env, Accepted) == []
        reply = log.ballots.on_prepare(Prepare(ballot=99, from_position=1))
        assert (reply.accepted, reply.decisions) == ((), ())  # nothing new was accepted

    def test_promise_is_durable_before_the_reply_and_survives_a_restart(self):
        store = StableStore(pid=1)
        log, _, env = make(pid=1)
        log.attach_storage(store)
        log.on_message(env, 0, Prepare(ballot=5, from_position=0))
        log.on_message(env, 0, AcceptRequest(instance=4, ballot=5, value="v"))
        assert store.snapshot() == {("promised",): 5, ("acceptor", 4): (5, "v")}
        reborn, _, env = make(pid=1)
        reborn.attach_storage(store)
        # An amnesic proposer reusing ballot 5 (or anything lower) gets a Nack
        # for its Prepare: it never reaches an AcceptRequest.
        reborn.on_message(env, 0, Prepare(ballot=5, from_position=0))
        assert sent_to(env, Nack) == [(0, Nack(ballot=5, promised=5))]
        reborn.on_message(env, 2, Prepare(ballot=7, from_position=0))
        assert sent_to(env, Promise) == [
            (2, Promise(ballot=7, accepted=((4, 5, "v"),), decisions=()))
        ]

    def test_truncated_acceptor_is_silent_for_a_range_reaching_below_its_floor(self):
        log, _, env = make(pid=1)
        for position, value in enumerate("abc"):
            log.on_message(env, 0, Decide(instance=position, value=value))
        assert log.compact_below(2) == 2
        log.on_message(env, 2, Prepare(ballot=5, from_position=0))
        log.on_message(env, 2, Prepare(ballot=6, from_position=1))
        assert env.sent == []  # no Promise, and no Nack either
        assert log.counters["compacted_drops"] == 2
        # At or above the floor it answers, and reports nothing below it.
        log.on_message(env, 2, Prepare(ballot=7, from_position=2))
        assert sent_to(env, Promise) == [
            (2, Promise(ballot=7, accepted=(), decisions=((2, "c"),)))
        ]


class TestPositionRecords:
    """What is left per position: the ``(ballot, value)`` accepted at an
    undecided one, the value learnt at a decided one — never both."""

    def durable(self):
        log, _, env = make(pid=1)
        store = StableStore(pid=1)
        log.attach_storage(store)
        return log, env, store

    def test_a_fresh_log_holds_nothing(self):
        log, _, _ = make(pid=1)
        assert log.ballots.accepted == {} and log.decisions == {}
        reply = log.ballots.on_prepare(Prepare(ballot=99, from_position=0))
        assert (reply.accepted, reply.decisions) == ((), ())

    def test_an_accept_records_ballot_and_value_in_one_durable_write(self):
        log, env, store = self.durable()
        log.on_message(env, 0, Prepare(ballot=5, from_position=0))
        writes = store.writes
        log.on_message(env, 0, AcceptRequest(instance=7, ballot=5, value="v"))
        assert log.ballots.accepted == {7: (5, "v")}
        assert store.writes == writes + 1
        assert store.get(("acceptor", 7)) == (5, "v")

    def test_a_later_accept_replaces_the_earlier_one(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=5, value="old"))
        log.on_message(env, 2, AcceptRequest(instance=0, ballot=9, value="new"))
        assert log.ballots.accepted == {0: (9, "new")}

    def test_rehydration_restores_the_record_and_writes_nothing_back(self):
        log, env, store = self.durable()
        log.on_message(env, 0, AcceptRequest(instance=7, ballot=5, value="v"))
        writes = store.writes
        reborn, _, _ = make(pid=1)
        reborn.attach_storage(store)
        assert reborn.ballots.accepted == {7: (5, "v")}
        assert store.writes == writes

    def test_accepting_does_not_decide(self):
        log, _, env = make(pid=1)
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=5, value="v"))
        assert log.decisions == {} and log.frontier == 0

    def test_learning_is_idempotent(self):
        log, _, env = make(pid=1)
        seen = []
        log.on_deliver = lambda position, value: seen.append((position, value))
        log.on_message(env, 0, Decide(instance=0, value="x"))
        log.on_message(env, 2, Decide(instance=0, value="x"))
        assert seen == [(0, "x")] and log.decided_value_count == 1

    def test_a_decision_keeps_the_durable_record_and_is_promised_as_decided(self):
        log, env, store = self.durable()
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=5, value="stale"))
        log.on_message(env, 0, Decide(instance=0, value="chosen"))
        assert log.ballots.accepted == {} and log.decisions == {0: "chosen"}
        assert store.get(("acceptor", 0)) == (5, "stale")
        log.on_message(env, 2, Prepare(ballot=9, from_position=0))
        assert sent_to(env, Promise) == [
            (2, Promise(ballot=9, accepted=(), decisions=((0, "chosen"),)))
        ]

    def test_a_late_accept_for_a_decided_position_is_answered_and_written(self):
        # Its leader may still be collecting a quorum.
        log, env, store = self.durable()
        log.on_message(env, 0, Decide(instance=0, value="x"))
        writes = store.writes
        log.on_message(env, 0, AcceptRequest(instance=0, ballot=9, value="x"))
        assert sent_to(env, Accepted) == [(0, Accepted(instance=0, ballot=9, value="x"))]
        assert store.writes == writes + 2  # the promise it implies, then the record
        assert store.get(("acceptor", 0)) == (9, "x")
        assert log.ballots.accepted == {} and log.decisions == {0: "x"}

    def test_an_adopted_snapshot_drops_the_records_below_its_floor(self):
        log, _, env = make(pid=1)
        for position in (1, 4):
            log.on_message(env, 0, AcceptRequest(instance=position, ballot=5, value="v"))
        log.adopt_snapshot(SimpleNamespace(floor=3, delivered_total=2))
        assert log.ballots.accepted == {4: (5, "v")}
        assert (log.frontier, log.delivered(), log.delivered_total) == (3, [], 2)


def with_snapshots(log):
    """Give *log* a snapshot manager that never fires on its own."""
    log.snapshots = SnapshotManager(
        log, CompactionPolicy(interval=1000), capture=tuple, restore=lambda payload: None
    )
    return log


class TestDurableTruncation:
    """What a snapshot floor removes from the store, however the floor came:
    a rehydration or a snapshot installed over the wire."""

    def test_rehydration_deletes_the_stale_records_below_the_snapshot_floor(self):
        # A crash between the snapshot write and its truncation leaves both.
        store = StableStore(pid=1)
        store.put(("snapshot", 0), Snapshot(floor=4, delivered_total=4, payload=()))
        for position in range(6):
            store.put(("decided", position), f"v{position}")
        for position in (2, 7):
            store.put(("acceptor", position), (5, f"a{position}"))
        log, _, _ = make(pid=1)
        with_snapshots(log).attach_storage(store)
        assert sorted(key for key in store.snapshot() if key[0] != "snapshot") == [
            ("acceptor", 7),
            ("decided", 4),
            ("decided", 5),
        ]
        assert log.decisions == {4: "v4", 5: "v5"}
        assert log.ballots.accepted == {7: (5, "a7")}
        assert (log.frontier, log.delivered_total, log.decided_value_count) == (6, 6, 6)

    def test_an_installed_snapshot_deletes_the_durable_records_below_its_floor(self):
        log, _, env = make(pid=1)
        store = StableStore(pid=1)
        with_snapshots(log).attach_storage(store)
        log.on_message(env, 0, Decide(instance=3, value="d"))
        for position in (2, 7):
            log.on_message(env, 0, AcceptRequest(instance=position, ballot=5, value="a"))
        log.snapshots.install(Snapshot(floor=5, delivered_total=5, payload=()), persist=True)
        assert sorted(key for key in store.snapshot() if key[0] != "snapshot") == [
            ("acceptor", 7),
            ("promised",),
        ]
        assert log.decisions == {} and log.ballots.accepted == {7: (5, "a")}
        assert (log.frontier, log.decided_value_count) == (5, 5)

    def test_an_adopted_snapshot_forgets_the_commands_decided_below_its_floor(self):
        # As compaction does: a retransmission is admitted again, and the
        # state machine's session table absorbs it if it is decided twice.
        log, _, env = make(pid=1)
        below, above = Command.put("c", 1, "k", 1), Command.put("c", 2, "k", 2)
        log.on_message(env, 0, Decide(instance=2, value=below))
        log.on_message(env, 0, Decide(instance=6, value=above))
        log.adopt_snapshot(SimpleNamespace(floor=4, delivered_total=4))
        log.submit(below)
        log.submit(above)
        assert log.pending == [below]
        assert log.decided_value_count == 5


class TestLeaderBallot:
    """One ballot, many positions: phase 1 once per leadership, the leader as
    its own acceptor and learner (default shape n=5, t=2: quorum 3)."""

    def test_first_proposal_prepares_the_suffix_at_the_peers_only(self):
        log, _, env = make(pid=0, leader=0)
        log.on_message(env, 1, Decide(instance=0, value="a"))
        log.submit("cmd")
        tick(log, env)
        prepares = sent_to(env, Prepare)
        assert [dest for dest, _ in prepares] == [1, 2, 3, 4]
        assert {message for _, message in prepares} == {
            Prepare(ballot=prepares[0][1].ballot, from_position=1)
        }
        assert env.messages_of_type(AcceptRequest) == []

    def test_own_promise_and_own_vote_count_without_a_round_trip(self):
        log, _, env = make(pid=0, leader=0)
        log.submit("cmd")
        tick(log, env)
        promise(log, env, senders=(1,))
        assert env.messages_of_type(AcceptRequest) == []  # 2 of 3
        promise(log, env, senders=(3,))
        requests = sent_to(env, AcceptRequest)
        assert [dest for dest, _ in requests] == [1, 2, 3, 4]
        assert requests[0][1].value == "cmd"
        vote(log, env, senders=(4,))
        assert env.messages_of_type(Decide) == []  # 2 of 3
        vote(log, env, senders=(2,))
        assert [dest for dest, _ in sent_to(env, Decide)] == [1, 2, 3, 4]
        assert log.delivered() == ["cmd"]  # learnt locally, same turn

    def test_later_positions_skip_phase_one(self):
        log, _, env = owning_leader()
        env.clear_sent()
        for position, command in enumerate(("second", "third"), start=1):
            log.submit(command)
            tick(log, env)
            request = vote(log, env)
            assert (request.instance, request.value) == (position, command)
        assert env.messages_of_type(Prepare) == []
        assert log.delivered() == ["first", "second", "third"]
        assert log.counters["ballots_started"] == 1
        assert log.counters["accept_rounds_started"] == 3

    def test_takeover_reproposes_the_in_flight_value_and_only_that_value(self):
        # p0 had "A" accepted at p1 for position 0 when leadership moved to
        # p2, which has its own command "B".  One Prepare broadcast recovers
        # "A"; "B" goes to position 1 under the same ballot.
        log, _, env = make(pid=2, leader=2)
        log.submit("B")
        tick(log, env)
        promise(log, env, senders=(1,), accepted=((0, 3, "A"),))
        promise(log, env, senders=(3,))
        vote(log, env)
        tick(log, env)
        vote(log, env)
        assert len(sent_to(env, Prepare)) == 4  # exactly one broadcast
        proposed = {(m.instance, m.value) for m in env.messages_of_type(AcceptRequest)}
        assert proposed == {(0, "A"), (1, "B")}
        assert log.decided_log() == {0: "A", 1: "B"}

    def test_highest_ballot_report_wins_per_position_own_record_included(self):
        log, _, env = make(pid=2, leader=2)
        log.on_message(env, 0, AcceptRequest(instance=1, ballot=5, value="own-old"))
        log.submit("mine")
        tick(log, env)
        promise(log, env, senders=(1,), accepted=((0, 3, "a3"), (1, 4, "b4")))
        promise(log, env, senders=(3,), accepted=((0, 8, "a8"),))
        assert vote(log, env).value == "a8"
        tick(log, env)
        assert vote(log, env).value == "own-old"  # own ballot 5 beats the reported 4
        tick(log, env)
        assert vote(log, env).value == "mine"

    def test_hole_below_a_reported_position_is_filled_with_noop(self):
        log, _, env = make(pid=2, leader=2)
        log.on_message(env, 0, Forward(value="late"))
        tick(log, env)
        promise(log, env, senders=(1, 3), accepted=((1, 3, "A"),))
        # Position 0 is free: the pending command takes it, "A" keeps its slot.
        assert vote(log, env).value == "late"
        tick(log, env)
        assert (vote(log, env).instance, log.decided_log()[1]) == (1, "A")
        # With nothing pending, a free slot below a reported one gets the filler.
        log, _, env = make(pid=2, leader=2)
        log.on_message(env, 0, Decide(instance=3, value="x"))
        tick(log, env)
        promise(log, env, senders=(1, 3), accepted=((1, 3, "A"),))
        assert vote(log, env).value == NOOP
        tick(log, env)
        assert vote(log, env).value == "A"
        tick(log, env)
        assert vote(log, env).value == NOOP
        assert log.frontier == 4

    def test_reported_decisions_are_learnt_not_reproposed(self):
        log, _, env = make(pid=2, leader=2)
        log.submit("mine")
        tick(log, env)
        promise(log, env, senders=(1,), decisions=((0, "a"), (1, "b")))
        assert log.delivered() == ["a", "b"]  # before the quorum, even
        promise(log, env, senders=(3,))
        request = vote(log, env)
        assert (request.instance, request.value) == (2, "mine")

    def test_nack_drops_ownership_and_the_next_ballot_clears_it_in_one_step(self):
        log, _, env = owning_leader()
        owned = env.messages_of_type(Prepare)[-1].ballot
        log.submit("second")
        tick(log, env)
        log.on_message(env, 1, Nack(ballot=owned, promised=57))
        vote(log, env)  # too late: the ballot is no longer ours
        assert env.messages_of_type(Decide)[-1].instance == 0
        assert 1 not in log.decided_log()
        env.clear_sent()
        tick(log, env)
        (ballot,) = {m.ballot for m in env.messages_of_type(Prepare)}
        assert ballot == 60  # (57 // 5 + 1) * 5 + pid 0: one round, not eleven
        promise(log, env, senders=(1, 2), accepted=((1, owned, "second"),))
        assert vote(log, env).value == "second"

    def test_stale_nack_is_ignored(self):
        log, _, env = owning_leader()
        owned = env.messages_of_type(Prepare)[-1].ballot
        log.on_message(env, 1, Nack(ballot=owned - 5, promised=1000))
        log.submit("second")
        tick(log, env)
        assert env.messages_of_type(AcceptRequest)[-1].value == "second"

    def test_demotion_by_the_oracle_drops_ownership(self):
        log, oracle, env = owning_leader()
        owned = env.messages_of_type(Prepare)[-1].ballot
        oracle.set(3)
        tick(log, env)
        oracle.set(0)
        log.submit("second")
        env.clear_sent()
        tick(log, env)
        assert env.messages_of_type(AcceptRequest) == []
        assert {m.ballot for m in env.messages_of_type(Prepare)} == {owned + 5}

    def test_promising_a_rival_drops_ownership(self):
        log, _, env = owning_leader()
        log.on_message(env, 3, Prepare(ballot=43, from_position=1))
        assert sent_to(env, Promise)[-1][0] == 3
        log.submit("second")
        env.clear_sent()
        tick(log, env)
        assert env.messages_of_type(AcceptRequest) == []
        assert {m.ballot for m in env.messages_of_type(Prepare)} == {45}

    def test_unanswered_accept_request_is_resent_unchanged(self):
        # Durable from the start, as a system attaches storage: the leader's
        # own vote then passes its own promise check like any acceptor's.
        log, _, env = make(pid=0, leader=0, batch_size=4, retry_period=10.0)
        store = StableStore(pid=0)
        log.attach_storage(store)
        log.submit("first")
        tick(log, env)
        promise(log, env)
        vote(log, env)
        writes = store.writes
        log.submit("second")  # an idle owning leader proposes it at once
        first = env.messages_of_type(AcceptRequest)[-1]
        assert store.get(("acceptor", 1)) == (first.ballot, "second")
        log.submit("third")  # must not leak into the re-send
        env.clear_sent()
        tick(log, env, ticks=4)
        assert env.sent == []
        tick(log, env)
        assert {m for m in env.messages_of_type(AcceptRequest)} == {first}
        assert store.writes == writes + 1  # the vote was cast, and written, once
        assert env.messages_of_type(Prepare) == []
        vote(log, env)
        assert log.decided_log()[1] == "second"

    def test_in_flight_position_learnt_by_catch_up_still_decides_the_proposal(self):
        log, _, env = owning_leader()
        log.submit("second")
        tick(log, env)
        request = env.messages_of_type(AcceptRequest)[-1]
        assert (request.instance, request.value) == (1, "second")
        env.clear_sent()
        log.on_message(env, 3, CatchUpReply(decisions=((1, "second"),)))
        assert log.frontier == 2  # learnt before the quorum closed
        for sender in (1, 2, 4):  # the quorum closes at the second vote
            log.on_message(env, sender, Accepted(1, request.ballot, "second"))
        assert sent_to(env, Decide) == [
            (dest, Decide(instance=1, value="second")) for dest in (1, 2, 3, 4)
        ]

    def test_votes_for_another_round_do_not_count(self):
        log, _, env = owning_leader()
        owned = env.messages_of_type(Prepare)[-1].ballot
        log.submit("second")
        tick(log, env)
        for sender in (1, 2):  # wrong position, then wrong ballot
            log.on_message(env, sender, Accepted(instance=0, ballot=owned, value="first"))
            log.on_message(env, sender, Accepted(instance=1, ballot=owned - 5, value="x"))
        assert 1 not in log.decided_log()

    def test_restart_on_storage_never_reuses_a_ballot(self):
        store = StableStore(pid=0)
        log, _, env = make(pid=0, leader=0)
        log.attach_storage(store)
        log.submit("cmd")
        tick(log, env)
        (used,) = {m.ballot for m in env.messages_of_type(Prepare)}
        assert store.get(("promised",)) == used
        reborn, _, env = make(pid=0, leader=0)
        reborn.attach_storage(store)
        reborn.submit("cmd")
        tick(reborn, env)
        (fresh,) = {m.ballot for m in env.messages_of_type(Prepare)}
        assert fresh > used

    def test_only_witness_truncated_means_no_quorum_and_no_rival_value(self):
        # n=3.  "A" was decided at position 0; p0 is gone and p1, the only
        # reachable witness, has compacted position 0 away.  p2 (frontier 0,
        # wants "B") must not get a quorum out of p1's ignorance.
        witness, _, witness_env = make(pid=1, n=3, t=1, leader=2)
        witness.on_message(witness_env, 0, Decide(instance=0, value="A"))
        witness.on_message(witness_env, 0, Decide(instance=1, value="A2"))
        witness.compact_below(1)
        leader, _, leader_env = make(pid=2, n=3, t=1, leader=2)
        leader.submit("B")
        tick(leader, leader_env)
        (prepare,) = {m for m in leader_env.messages_of_type(Prepare)}
        witness.on_message(witness_env, 2, prepare)
        assert witness_env.sent == []
        tick(leader, leader_env, ticks=3)
        assert leader_env.messages_of_type(AcceptRequest) == []


class TestProposeOnForward:
    """A ``Forward`` that reaches an idle leader owning its ballot is proposed
    in the same handler turn; everything else waits for the drive tick."""

    BATCH = Batch(commands=("a", "b", "c"))

    def owning_idle_leader(self, **kwargs):
        """An owning leader with nothing in flight and nothing sent yet."""
        log, oracle, env = owning_leader(batch_size=4, **kwargs)
        env.clear_sent()
        return log, oracle, env

    def test_a_forward_to_an_idle_owning_leader_is_proposed_in_the_same_turn(self):
        log, _, env = self.owning_idle_leader()
        log.on_message(env, 3, Forward(value=self.BATCH))
        requests = sent_to(env, AcceptRequest)
        assert [dest for dest, _ in requests] == [1, 2, 3, 4]
        assert {message.instance for _, message in requests} == {1}
        assert {message.value for _, message in requests} == {self.BATCH}
        assert log.counters["accept_rounds_started"] == 2  # one broadcast each
        vote(log, env)
        assert log.delivered_commands() == ["first", "a", "b", "c"]

    def test_with_a_position_in_flight_the_forward_waits_for_the_tick(self):
        log, _, env = self.owning_idle_leader()
        log.submit("second")
        tick(log, env)
        in_flight = env.messages_of_type(AcceptRequest)[-1]
        log.on_message(env, 3, Forward(value=self.BATCH))
        env.advance(log.retry_period)  # a re-send is due, but a tick sends it
        log.on_message(env, 4, Forward(value=self.BATCH))
        assert env.messages_of_type(AcceptRequest) == [in_flight] * 4
        vote(log, env)  # the quorum closes on a short queue: decided, not proposed
        assert log.decided_log()[1] == "second"
        assert env.messages_of_type(AcceptRequest) == [in_flight] * 4
        tick(log, env)
        request = env.messages_of_type(AcceptRequest)[-1]
        assert (request.instance, request.value) == (2, self.BATCH)

    def test_a_leader_owning_no_ballot_prepares_only_on_the_tick(self):
        log, _, env = make(pid=0, leader=0, batch_size=4)
        log.on_message(env, 3, Forward(value=self.BATCH))
        assert env.sent == []
        assert log.forwarded == ["a", "b", "c"]
        tick(log, env)
        assert log.counters["ballots_started"] == 1
        assert len(env.messages_of_type(Prepare)) == 4

    def test_a_demoted_leader_proposes_nothing_on_a_forward(self):
        log, oracle, env = self.owning_idle_leader()
        oracle.set(3)  # ownership is only dropped at the next tick
        log.on_message(env, 3, Forward(value=self.BATCH))
        assert env.sent == []

    def test_a_lease_gated_leader_proposes_nothing_on_a_forward(self):
        log, _, env = self.owning_idle_leader(leases=LeaseManager(pid=0, n=5, t=2))
        env.set_time(10.0)  # past the post-start grant blackout
        log.on_message(env, 3, LeaseRequest(round=1, sent_at=9.5))
        assert [type(m) for m in env.messages_to(3)] == [LeaseGrant]
        env.clear_sent()
        log.on_message(env, 2, Forward(value=self.BATCH))
        assert env.sent == []
        assert log.forwarded == ["a", "b", "c"]


class TestDispatchOnIdleSubmit:
    """A submission that finds nothing of this replica's undecided or queued
    is forwarded (follower) or proposed (idle owning leader) in the
    submitting turn; anything else waits for the drive tick."""

    def idle_follower(self):
        """A follower whose one earlier submission is already decided."""
        log, _, env = make(pid=2, leader=4)
        log.submit("old")
        log.on_message(env, 4, Decide(instance=0, value="old"))
        env.clear_sent()
        return log, env

    def test_an_idle_follower_forwards_only_the_new_command_at_once(self):
        log, env = self.idle_follower()
        log.submit("new")
        assert forwarded_batches(env, dest=4) == [("new",)]
        assert len(env.sent) == 1
        assert log.counters["forward_msgs_sent"] == 2

    def test_a_follower_holding_an_undecided_submission_waits_for_its_tick(self):
        log, env = self.idle_follower()
        log.submit("first")
        env.clear_sent()
        log.submit("second")
        assert env.sent == []
        tick(log, env)
        assert forwarded_batches(env, dest=4) == [("second",)]

    def test_an_idle_owning_leader_proposes_at_once(self):
        log, _, env = owning_leader()
        env.clear_sent()
        log.submit("second")
        requests = sent_to(env, AcceptRequest)
        assert [dest for dest, _ in requests] == [1, 2, 3, 4]
        assert {(m.instance, m.value) for _, m in requests} == {(1, "second")}
        assert len(env.sent) == 4
        assert log.counters["accept_rounds_started"] == 2  # one broadcast each

    @pytest.mark.parametrize("state", ["position_in_flight", "no_ballot", "lease_gated"])
    def test_a_leader_that_cannot_propose_now_sends_nothing(self, state):
        if state == "position_in_flight":
            # Its proposal was learnt through catch-up before the quorum
            # closed: the queue is empty, the position still in flight.
            log, _, env = owning_leader()
            log.submit("second")
            tick(log, env)
            log.on_message(env, 3, CatchUpReply(decisions=((1, "second"),)))
            assert log.frontier == 2
        elif state == "no_ballot":
            log, _, env = make(pid=0, leader=0)
        else:
            log, _, env = owning_leader(leases=LeaseManager(pid=0, n=5, t=2))
            env.set_time(10.0)  # past the post-start grant blackout
            env.clear_sent()
            log.on_message(env, 3, LeaseRequest(round=1, sent_at=9.5))
            assert [type(m) for m in env.messages_to(3)] == [LeaseGrant]
        env.clear_sent()
        log.submit("cmd")
        assert env.sent == []
        assert log.pending == ["cmd"]

    @pytest.mark.parametrize("ending", ["on_crash", "on_stop"])
    def test_before_start_and_once_stopped_submit_sends_nothing(self, ending):
        log, _, env = make(pid=2, leader=4, submitted=["early"])
        assert env.sent == []
        tick(log, env)  # the first drive tick forwards it
        assert forwarded_batches(env, dest=4) == [("early",)]
        log.on_message(env, 4, Decide(instance=0, value="early"))
        getattr(log, ending)(env)
        env.clear_sent()
        log.submit("late")
        assert env.sent == []
        assert log.pending == ["late"]

    def test_a_retransmission_sends_nothing(self):
        log, env = self.idle_follower()
        log.submit("new")
        env.clear_sent()
        log.submit("new")  # pending
        log.submit("old")  # decided
        assert env.sent == []
        assert log.pending == ["new"]
        tick(log, env)  # nor is it queued to be forwarded again
        assert env.sent == []


class TestProposeOnBacklog:
    """When a leader's own vote count closes a quorum with a full batch
    queued, it proposes the next position in that turn; a shorter queue
    waits for the drive tick."""

    SIZE = 4

    def leader_with_backlog(self, queued, **kwargs):
        """An owning leader with ``"second"`` in flight at position 1 and
        *queued* commands behind it; nothing sent since that proposal."""
        kwargs.setdefault("batch_size", self.SIZE)
        log, oracle, env = owning_leader(**kwargs)
        log.submit("second")  # idle: proposed at once
        commands = [Command.put("c", seq, f"k{seq}", seq) for seq in range(1, queued + 1)]
        for command in commands:
            log.submit(command)
        env.clear_sent()
        return log, oracle, env, commands

    @staticmethod
    def close_quorum(log, env, ballot):
        for sender in two_peers(log):
            log.on_message(env, sender, Accepted(instance=1, ballot=ballot, value="second"))

    def test_a_full_batch_proposes_when_the_quorum_closes(self):
        log, _, env, commands = self.leader_with_backlog(self.SIZE)
        self.close_quorum(log, env, log.ballots.ballot)
        requests = sent_to(env, AcceptRequest)
        assert [dest for dest, _ in requests] == [1, 2, 3, 4]
        assert {(m.instance, m.value) for _, m in requests} == {
            (2, Batch(commands=tuple(commands[: self.SIZE])))
        }

    def test_one_command_short_of_a_batch_waits_for_the_tick(self):
        log, _, env, commands = self.leader_with_backlog(self.SIZE - 1)
        self.close_quorum(log, env, log.ballots.ballot)
        assert log.decided_log()[1] == "second"
        assert sent_to(env, AcceptRequest) == []
        tick(log, env)
        request = env.messages_of_type(AcceptRequest)[-1]
        assert (request.instance, request.value) == (2, Batch(commands=tuple(commands[: self.SIZE])))

    def test_the_early_proposal_follows_the_learnt_position(self):
        """W=1: ``_lead`` runs with nothing in flight and the closed position
        already learnt, so it proposes at the advanced frontier."""
        log, _, env, _ = self.leader_with_backlog(self.SIZE)
        entries = []
        lead = log._lead

        def recording(env):
            entries.append((log.ballots.inflight, log.frontier, log.decided_log()))
            lead(env)

        log._lead = recording
        self.close_quorum(log, env, log.ballots.ballot)
        assert entries == [(-1, 2, {0: "first", 1: "second"})]
        assert {m.instance for _, m in sent_to(env, AcceptRequest)} == {2}

    @pytest.mark.parametrize("state", ["demoted", "ballot_lost", "lease_gated"])
    def test_a_leader_that_cannot_propose_now_waits(self, state):
        leases = LeaseManager(pid=0, n=5, t=2) if state == "lease_gated" else None
        log, oracle, env, _ = self.leader_with_backlog(self.SIZE, leases=leases)
        ballot = log.ballots.ballot
        if state == "demoted":
            oracle.set(3)  # ownership is only dropped at the next tick
        elif state == "ballot_lost":
            log.on_message(env, 3, Nack(ballot=ballot, promised=ballot + 1))
        else:
            env.set_time(10.0)  # past the post-start grant blackout
            log.on_message(env, 3, LeaseRequest(round=1, sent_at=9.5))
            assert [type(m) for m in env.messages_to(3)] == [LeaseGrant]
        self.close_quorum(log, env, ballot)
        assert sent_to(env, AcceptRequest) == []
        # The quorum closed, unless the votes came after the ballot was lost.
        assert log.frontier == (1 if state == "ballot_lost" else 2)

    def test_an_adaptive_limit_is_read_not_fed(self):
        """The check reads the adaptive limit; only a proposal feeds the
        EWMA a backlog observation, so a quorum that closes on an empty
        queue leaves it as it was."""
        log, _, env, _ = self.leader_with_backlog(0, batch_size=ADAPTIVE)
        ewma = log._batch_policy._ewma
        self.close_quorum(log, env, log.ballots.ballot)
        assert log.frontier == 2 and sent_to(env, AcceptRequest) == []
        assert log._batch_policy._ewma == ewma

    def test_an_adaptive_limit_of_one_proposes_a_single_command(self):
        """At an adaptive limit of 1 one queued command is a full batch: it
        leaves when the quorum closes, not at the tick."""
        log, _, env, (command,) = self.leader_with_backlog(1, batch_size=ADAPTIVE)
        assert log._batch_policy.limit == 1
        self.close_quorum(log, env, log.ballots.ballot)
        assert [(m.instance, m.value) for _, m in sent_to(env, AcceptRequest)] == [
            (2, command)
        ] * 4

    def test_a_tick_that_proposes_nothing_leaves_the_adaptive_limit_alone(self):
        """Only a call that can propose a fresh position feeds the EWMA: an
        owning leader with position 1 in flight and five commands queued
        proposes nothing on its tick, so its limit does not move."""
        log, _, env, _ = self.leader_with_backlog(5, batch_size=ADAPTIVE)
        ewma = log._batch_policy._ewma
        tick(log, env)
        assert sent_to(env, AcceptRequest) == []
        assert log._batch_policy._ewma == ewma


class _Scripted:
    """Leader oracle reading a virtual clock: *first* until *switch_at*, then *second*."""

    def __init__(self, system_ref, first, second, switch_at):
        self._system_ref, self._first, self._second = system_ref, first, second
        self._switch_at = switch_at

    def leader(self):
        now = self._system_ref[0].scheduler.now
        return self._first if now < self._switch_at else self._second


def run_log_system(n, t, submissions, horizon, switch_at=float("inf"), second=0):
    """A system of bare replicated logs under constant 0.5 delays; *submissions*
    is ``[(time, pid, value)]``.  Returns the finished system."""
    holder = []
    oracle = _Scripted(holder, 0, second, switch_at)
    system = System(
        SystemConfig(n=n, t=t, seed=1),
        lambda pid: ReplicatedLog(pid=pid, n=n, t=t, oracle=oracle),
        ConstantDelay(0.5),
    )
    holder.append(system)
    for time, pid, value in submissions:
        system.scheduler.schedule_at(
            time, lambda pid=pid, value=value: system.shells[pid].algorithm.submit(value)
        )
    system.run_until(horizon)
    return system


class TestSteadyStateCost:
    """The exact price of a decided position under a stable leader."""

    @pytest.mark.parametrize("n, t", [(3, 1), (7, 3)])
    def test_after_the_first_decision_a_position_costs_three_fanouts(self, n, t):
        peers = n - 1
        first = run_log_system(n, t, [(1.0, 0, "c0")], horizon=9.0)
        sent = first.stats.sent_by_tag
        assert first.shells[0].algorithm.decided_log() == {0: "c0"}
        assert (sent["PREPARE"], sent["PROMISE"]) == (peers, peers)
        assert (sent["ACCEPT"], sent["ACCEPTED"], sent["DECIDE"]) == (peers,) * 3
        # Ten more positions: 3 x (n - 1) messages each and not one more
        # PREPARE or PROMISE.
        commands = [(1.0 + 4 * k, 0, f"c{k}") for k in range(11)]
        run = run_log_system(n, t, commands, horizon=50.0)
        sent = run.stats.sent_by_tag
        for shell in run.shells:
            assert shell.algorithm.delivered() == [f"c{k}" for k in range(11)]
        assert (sent["PREPARE"], sent["PROMISE"]) == (peers, peers)
        assert (sent["ACCEPT"], sent["ACCEPTED"], sent["DECIDE"]) == (11 * peers,) * 3
        assert sent.get("NACK", 0) == 0

    def test_a_commit_under_an_owned_ballot_takes_two_message_delays(self):
        # Submitted at t=9 to an idle leader owning its ballot, delays 0.5:
        # the AcceptRequest leaves at 9, the quorum's Accepted is back at 10
        # (no drive tick in between; the next is due at t=10).
        run = run_log_system(3, 1, [(1.0, 0, "warm"), (9.0, 0, "timed")], horizon=9.9)
        assert run.shells[0].algorithm.delivered() == ["warm"]
        run = run_log_system(3, 1, [(1.0, 0, "warm"), (9.0, 0, "timed")], horizon=10.0)
        assert run.shells[0].algorithm.delivered() == ["warm", "timed"]

    def test_leader_change_costs_one_prepare_broadcast_and_keeps_the_value(self):
        # p0 proposes "A" (accepted by p1 and p2 at t=3.5) and is then named
        # no more; p2 takes over at t=3.9, before any Decide, with its own "B".
        run = run_log_system(
            3, 1, [(1.0, 0, "A"), (1.0, 2, "B")], horizon=30.0, switch_at=3.9, second=2
        )
        for shell in run.shells:
            assert shell.algorithm.delivered() == ["A", "B"]
        sent = run.stats.sent_by_tag
        assert sent["PREPARE"] == 2 + 2  # p0's ballot, then p2's: one each
        assert run.shells[2].algorithm.counters["ballots_started"] == 1


def catch_up_requests(env):
    """``(dest, frontier)`` of every CatchUpRequest sent so far."""
    return [
        (sent.dest, sent.message.frontier)
        for sent in env.sent
        if isinstance(sent.message, CatchUpRequest)
    ]


def tick_hearing(log, env, adverts, ticks=1):
    """Like :func:`tick`, with the heartbeats ``{peer: frontier}`` heard
    before each tick."""
    for _ in range(ticks):
        for peer, frontier in adverts.items():
            log.heard_frontier(env.now, peer, frontier)
        tick(log, env)


class TestCatchUpOnEvidence:
    """A replica polls for missed decisions only when a peer's heartbeat
    advertised a higher frontier — or, as a follower that heard no
    advertisement for ``retry_period`` (10.0 here), its trusted leader."""

    def test_a_current_replica_sends_nothing(self):
        log, _, env = make(pid=1, leader=0)
        tick_hearing(log, env, {0: 0, 2: 0, 3: 0, 4: 0}, ticks=20)
        assert catch_up_requests(env) == []
        assert log.counters["catchup_polls"] == 0

    def test_one_request_per_tick_to_the_highest_advertisement_above_ours(self):
        log, _, env = make(pid=1, leader=0)
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.heard_frontier(env.now, 0, 3)
        log.heard_frontier(env.now, 2, 5)
        log.heard_frontier(env.now, 3, 1)  # not above ours: no evidence
        tick(log, env)
        assert catch_up_requests(env) == [(2, 1)]

    def test_an_advertisement_is_spent_by_its_poll(self):
        # A peer that advertised once and then crashed is polled once, after
        # which the next-best live advertisement is used.
        log, _, env = make(pid=1, leader=0)
        log.heard_frontier(env.now, 2, 6)
        log.heard_frontier(env.now, 3, 4)
        tick(log, env, ticks=4)
        assert catch_up_requests(env) == [(2, 0), (3, 0)]

    def test_a_peer_whose_frontier_went_down_is_not_polled(self):
        log, _, env = make(pid=1, leader=0)
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.heard_frontier(env.now, 2, 6)
        # Peer 2 restarted without storage before our tick: its latest
        # advertisement is below ours, and the stale 6 is not remembered.
        tick_hearing(log, env, {2: 0}, ticks=10)
        assert catch_up_requests(env) == []

    def test_a_replica_that_trusts_itself_polls_the_follower_that_is_ahead(self):
        # What the deleted poll-back covered: a restarted replica the oracle
        # names leader learns it is behind from its followers' heartbeats.
        log, _, env = make(pid=0, leader=0)
        log.heard_frontier(env.now, 3, 7)
        tick(log, env)
        assert catch_up_requests(env) == [(3, 0)]

    def test_a_request_from_a_replica_ahead_gets_no_request_back(self):
        log, _, env = make(pid=0, leader=1)
        log.on_message(env, 1, CatchUpRequest(frontier=9))
        assert env.sent == []

    def test_a_follower_hearing_no_advertisement_falls_back_to_polling_its_leader(self):
        log, _, env = make(pid=1, leader=0)
        tick(log, env, ticks=5)  # t = 10: not *longer* than retry_period yet
        assert catch_up_requests(env) == []
        tick(log, env, ticks=3)
        assert catch_up_requests(env) == [(0, 0)] * 3
        # An advertisement, even one that proves nothing, resets the clock.
        log.heard_frontier(env.now, 2, 0)
        env.clear_sent()
        tick(log, env, ticks=5)
        assert catch_up_requests(env) == []

    def test_a_leader_never_falls_back(self):
        log, _, env = make(pid=0, leader=0)
        tick(log, env, ticks=20)
        assert catch_up_requests(env) == []

    def test_the_fallback_clock_starts_with_the_incarnation(self):
        oracle = _FixedOracle(0)
        log = ReplicatedLog(pid=1, n=5, t=2, oracle=oracle)
        env = FakeEnvironment(pid=1, n=5)
        env.set_time(500.0)  # a recovered incarnation starting late
        log.on_start(env)
        tick(log, env, ticks=5)
        assert catch_up_requests(env) == []
