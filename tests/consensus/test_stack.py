"""Unit tests for the Omega + replicated log stack: wiring and routing."""

import pytest

from repro.consensus.messages import Decide, FrontierAdvert, Prepare
from repro.consensus.replicated_log import DRIVE_TIMER
from repro.consensus.stack import OmegaConsensusStack
from repro.core.figure2 import Figure2Omega
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import Message
from repro.core.messages import Alive, Suspicion
from repro.core.omega_base import ALIVE_TIMER, ROUND_TIMER
from repro.testing import FakeEnvironment, deliver_round_alive


def started(pid=0, n=5, t=2):
    stack = OmegaConsensusStack(pid=pid, n=n, t=t)
    env = FakeEnvironment(pid=pid, n=n)
    stack.on_start(env)
    return stack, env


def record_oracle_deliveries(stack):
    """Make the oracle log every delivery it receives, then handle it."""
    seen = []
    omega_on_message = stack.omega.on_message
    stack.omega.on_message = lambda e, sender, message: (
        seen.append((sender, message)),
        omega_on_message(e, sender, message),
    )
    return seen


def armed(env, name):
    """The live timers named *name*."""
    return [timer for timer in env.timers if timer.name == name and not timer.cancelled]


class TestStack:
    def test_parts_wired(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        assert isinstance(stack.omega, Figure3Omega)
        assert stack.log.oracle is stack.omega

    def test_custom_omega_class(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2, omega_cls=Figure2Omega)
        assert isinstance(stack.omega, Figure2Omega)

    def test_leader_delegates_to_omega(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        assert stack.leader() == stack.omega.leader()

    def test_submit_delegates_to_log(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        stack.submit("cmd")
        assert stack.log.pending == ["cmd"]

    def test_consensus_requires_majority(self):
        with pytest.raises(ValueError):
            OmegaConsensusStack(pid=0, n=4, t=2)

    def test_every_outgoing_alive_carries_the_log_frontier(self):
        stack, env = started()
        stack.on_message(env, 1, Decide(0, "a"))
        stack.on_message(env, 1, Decide(1, "b"))
        env.clear_sent()
        env.advance(1.0)
        env.fire_due_timers(stack)
        adverts = env.messages_of_type(FrontierAdvert)
        assert len(adverts) == 4  # one ALIVE broadcast, n - 1 destinations
        assert {(m.frontier, m.inner.tag) for m in adverts} == {(2, "ALIVE")}
        # Only the ALIVE carries a header; every other message is sent bare.
        assert not any(
            hasattr(sent.message, "inner")
            for sent in env.sent
            if not isinstance(sent.message, FrontierAdvert)
        )

    def test_a_bare_oracle_broadcasts_bare_alives(self):
        omega = Figure3Omega(pid=0, n=5, t=2)
        env = FakeEnvironment(pid=0, n=5)
        omega.on_start(env)
        env.advance(1.0)
        env.fire_due_timers(omega)
        assert [(sent.dest, type(sent.message)) for sent in env.sent] == [
            (pid, Alive) for pid in (1, 2, 3, 4)
        ] * 2

    def test_a_received_advert_feeds_the_log_and_the_bare_alive_the_oracle(self):
        stack, env = started()
        seen = record_oracle_deliveries(stack)
        alive = Alive.make(1, {pid: 0 for pid in range(5)})
        env.advance(0.5)
        stack.on_message(env, 3, FrontierAdvert(inner=alive, frontier=9))
        assert seen == [(3, alive)]
        assert stack.log._advertised == {3: 9}
        assert stack.omega.records.reception_count(1) == 2


class TestRouting:
    """What the stack does with each event: both parts, by class, by name."""

    @pytest.mark.parametrize("hook", ["on_start", "on_crash", "on_stop"])
    def test_lifecycle_reaches_both_parts_oracle_first(self, hook):
        stack = OmegaConsensusStack(pid=0, n=3, t=1)
        env = FakeEnvironment(pid=0, n=3)
        calls = []
        for name, part in (("omega", stack.omega), ("log", stack.log)):
            original = getattr(part, hook)
            setattr(
                part,
                hook,
                lambda e, name=name, original=original: (
                    calls.append(name),
                    original(e),
                ),
            )
        getattr(stack, hook)(env)
        assert calls == ["omega", "log"]

    def test_start_arms_the_oracle_timers_before_the_drive_timer(self):
        _, env = started()
        names = [timer.name for timer in env.timers]
        assert names[-1] == DRIVE_TIMER
        assert set(names[:-1]) == {ALIVE_TIMER, ROUND_TIMER}

    def test_timer_name_sets_are_disjoint(self):
        # Name routing rests on this: the oracle's names never reach the log.
        assert {ALIVE_TIMER, ROUND_TIMER}.isdisjoint({DRIVE_TIMER})

    def test_a_due_alive_timer_leaves_one_advert_per_peer(self):
        stack, env = started()
        env.clear_sent()
        (alive_timer,) = armed(env, ALIVE_TIMER)
        alive_timer.cancel()
        stack.on_timer(env, alive_timer)
        assert sorted(sent.dest for sent in env.sent) == [1, 2, 3, 4]
        assert all(isinstance(sent.message, FrontierAdvert) for sent in env.sent)
        assert len(armed(env, ALIVE_TIMER)) == 1  # the oracle re-armed it

    def test_a_due_drive_timer_runs_the_log_tick(self):
        stack, env = started()
        stack.submit("cmd")
        env.clear_sent()
        (drive_timer,) = armed(env, DRIVE_TIMER)
        drive_timer.cancel()
        env.advance(2.0)
        stack.on_timer(env, drive_timer)
        # Process 0 trusts itself, so its tick opens a ballot, sent bare.
        assert env.sent
        assert all(isinstance(sent.message, Prepare) for sent in env.sent)
        assert len(armed(env, DRIVE_TIMER)) == 1  # the log re-armed it

    def test_an_unknown_timer_reaches_the_oracle_which_rejects_it(self):
        stack, env = started()
        with pytest.raises(ValueError, match="unknown timer"):
            stack.on_timer(env, env.set_timer(0.0, "bogus"))

    def test_a_bare_suspicion_reaches_the_oracle(self):
        stack, env = started()
        seen = record_oracle_deliveries(stack)
        suspicion = Suspicion.make(1, [2])
        stack.on_message(env, 1, suspicion)
        assert seen == [(1, suspicion)]
        assert stack.log.decided_log() == {}

    def test_a_decide_reaches_the_log(self):
        stack, env = started()
        seen = record_oracle_deliveries(stack)
        stack.on_message(env, 1, Decide(0, "a"))
        assert seen == []
        assert stack.log.decided_log() == {0: "a"}

    def test_the_oracle_broadcasts_a_suspicion_bare_to_everyone(self):
        stack, env = started()
        env.fire_due_timers(stack)  # round 1's timer (initial timeout 0) expires
        env.clear_sent()
        # With its own, ALIVE(1) from 1 and 3 makes alpha = 3: round 1 closes
        # suspecting the two silent processes.
        deliver_round_alive(stack, env, rn=1, senders=[1, 3])
        assert [(sent.dest, sent.message) for sent in env.sent] == [
            (pid, Suspicion.make(1, [2, 4])) for pid in range(5)
        ]

    def test_oracle_trace_events_reach_the_outer_environment_unchanged(self):
        _, env = started()
        assert (0.0, "alive_broadcast", {"rn": 1}) in env.logged

    def test_an_unknown_message_reaches_the_log_which_rejects_it(self):
        class Stray(Message):
            pass

        stack, env = started()
        with pytest.raises(TypeError, match="replicated log"):
            stack.on_message(env, 1, Stray())
