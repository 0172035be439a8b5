"""Unit tests for the leader-driven replicated log."""

import pytest

from repro.consensus.commands import Batch, Command, flatten_value, payload_intact
from repro.consensus.messages import AcceptRequest, Decide, Forward, Prepare
from repro.consensus.replicated_log import NOOP, ReplicatedLog
from repro.simulation.corruption import corrupt_message
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


def make(pid=0, n=5, t=2, leader=0, **kwargs):
    oracle = _FixedOracle(leader)
    log = ReplicatedLog(pid=pid, n=n, t=t, oracle=oracle, **kwargs)
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
        assert log.proposals_started == 1

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
        log, _, env = make(pid=2, leader=4)
        commands = self.commands(5)
        for command in commands:
            log.submit(command)
        tick(log, env)
        assert forwarded_batches(env) == [tuple(commands)]
        assert forwarded_batches(env, dest=4) == [tuple(commands)]
        assert isinstance(env.messages_of_type(Forward)[0].value, Batch)
        assert log.lifetime_counters()["forward_msgs_sent"] == 1
        assert log.lifetime_counters()["forward_commands_sent"] == 5

    def test_nothing_resent_while_leader_unchanged_and_retry_not_elapsed(self):
        log, _, env = make(pid=2, leader=4)
        for command in self.commands(3):
            log.submit(command)
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
        log, _, env = make(pid=2, leader=4, drive_period=2.0, retry_period=10.0)
        commands = self.commands(3)
        for command in commands:
            log.submit(command)
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
        decided, kept = self.commands(2)
        log.submit(decided)
        log.submit(kept)
        log.on_message(env, 4, Decide(instance=0, value=decided))
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
        sender, _, sender_env = make(pid=2, leader=4)
        leader, _, leader_env = make(pid=4, leader=4)
        commands = self.commands(3)
        for command in commands:
            sender.submit(command)
        tick(sender, sender_env)
        (forward,) = sender_env.messages_of_type(Forward)
        tampered = corrupt_message(forward, RandomSource(7, label="tamper"))
        assert tampered is not None and not payload_intact(tampered)
        leader.on_message(leader_env, 2, tampered)
        assert leader.corrupt_rejected == 1
        assert leader.forwarded == []  # not even the intact members got in
        sender_env.clear_sent()
        tick(sender, sender_env, ticks=5)  # retry_period later: the full re-send
        (resend,) = sender_env.messages_of_type(Forward)
        leader.on_message(leader_env, 2, resend)
        assert leader.forwarded == commands
        assert leader.corrupt_rejected == 1

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
        env.advance(2.0)
        env.fire_due_timers(log)
        prepares = env.messages_of_type(Prepare)
        assert prepares and prepares[0].instance == 0

    def test_retry_waits_for_retry_period(self):
        log, _, env = make(pid=0, leader=0, drive_period=2.0, retry_period=10.0)
        log.submit("cmd")
        env.advance(2.0)
        env.fire_due_timers(log)
        first_count = len(env.messages_of_type(Prepare))
        env.advance(2.0)
        env.fire_due_timers(log)
        # The proposal is still in flight and the retry period has not elapsed:
        # no second Prepare burst yet.
        assert len(env.messages_of_type(Prepare)) == first_count
        env.advance(10.0)
        env.fire_due_timers(log)
        assert len(env.messages_of_type(Prepare)) > first_count

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
        with pytest.raises(ValueError):
            make(batch_size=0)

    def test_leader_packs_pending_commands_into_one_batch(self):
        log, _, env = make(pid=0, leader=0, batch_size=4)
        commands = [Command.put("c", seq, f"k{seq}", seq) for seq in range(1, 7)]
        for command in commands:
            log.submit(command)
        env.advance(2.0)
        env.fire_due_timers(log)
        accepts = env.messages_of_type(AcceptRequest)
        prepares = env.messages_of_type(Prepare)
        assert prepares and prepares[0].instance == 0
        # Feed promises back so phase 2 reveals the proposed value.
        from repro.consensus.messages import Promise

        for sender in range(3):
            log.on_message(
                env,
                sender,
                Promise(instance=0, ballot=prepares[0].ballot, accepted_ballot=-1,
                        accepted_value=None),
            )
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
        from repro.consensus.messages import Promise

        prepare = env.messages_of_type(Prepare)[0]
        for sender in range(3):
            log.on_message(
                env,
                sender,
                Promise(instance=0, ballot=prepare.ballot, accepted_ballot=-1,
                        accepted_value=None),
            )
        value = env.messages_of_type(AcceptRequest)[0].value
        assert value == command

    def proposed_value(self, log, env):
        """Drive one tick and answer its Prepare so phase 2 shows the value."""
        from repro.consensus.messages import Promise

        tick(log, env)
        prepare = env.messages_of_type(Prepare)[-1]
        for sender in range(3):
            log.on_message(
                env,
                sender,
                Promise(instance=prepare.instance, ballot=prepare.ballot, accepted_ballot=-1,
                        accepted_value=None),
            )
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
    def test_next_position_tracks_first_hole(self):
        log, _, env = make(pid=1)
        assert log._next_position() == 0
        log.on_message(env, 0, Decide(instance=0, value="a"))
        log.on_message(env, 0, Decide(instance=1, value="b"))
        log.on_message(env, 0, Decide(instance=5, value="f"))
        assert log._next_position() == 2

    def test_delivered_is_incremental_not_a_rescan(self):
        log, _, env = make(pid=1)
        for position in range(50):
            log.on_message(env, 0, Decide(instance=position, value=f"v{position}"))
        assert log.delivered() == [f"v{position}" for position in range(50)]
        # The cache is the source: mutating decisions out of band has no effect.
        assert len(log._delivered) == 50
