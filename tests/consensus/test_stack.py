"""Unit tests for the Omega + replicated log composite stack."""

import pytest

from repro.consensus.messages import Decide, FrontierAdvert
from repro.consensus.stack import LOG_CHANNEL, OMEGA_CHANNEL, OmegaConsensusStack
from repro.core.figure2 import Figure2Omega
from repro.core.figure3 import Figure3Omega
from repro.core.messages import Alive, Wrapped
from repro.testing import FakeEnvironment


class TestStack:
    def test_children_wired(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        assert isinstance(stack.omega, Figure3Omega)
        assert stack.log.oracle is stack.omega
        assert sorted(stack.channels()) == sorted([OMEGA_CHANNEL, LOG_CHANNEL])

    def test_custom_omega_class(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2, omega_cls=Figure2Omega)
        assert isinstance(stack.omega, Figure2Omega)

    def test_leader_delegates_to_omega(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        assert stack.leader() == stack.omega.leader()

    def test_submit_and_delivered_delegate_to_log(self):
        stack = OmegaConsensusStack(pid=1, n=5, t=2)
        stack.submit("cmd")
        assert stack.log.pending == ["cmd"]
        assert stack.delivered() == []
        assert stack.decided_log() == {}

    def test_on_start_wraps_outgoing_messages(self):
        stack = OmegaConsensusStack(pid=0, n=5, t=2)
        env = FakeEnvironment(pid=0, n=5)
        stack.on_start(env)
        assert env.sent, "the omega child must broadcast ALIVE messages"
        assert all(isinstance(sent.message, Wrapped) for sent in env.sent)
        assert {sent.message.channel for sent in env.sent} == {OMEGA_CHANNEL}

    def test_consensus_requires_majority(self):
        with pytest.raises(ValueError):
            OmegaConsensusStack(pid=0, n=4, t=2)

    def test_every_outgoing_alive_carries_the_log_frontier(self):
        stack = OmegaConsensusStack(pid=0, n=5, t=2)
        env = FakeEnvironment(pid=0, n=5)
        stack.on_start(env)
        stack.on_message(env, 1, Wrapped(channel=LOG_CHANNEL, inner=Decide(0, "a")))
        stack.on_message(env, 1, Wrapped(channel=LOG_CHANNEL, inner=Decide(1, "b")))
        env.clear_sent()
        env.advance(1.0)
        env.fire_due_timers(stack)
        adverts = env.messages_of_type(FrontierAdvert)
        assert len(adverts) == 4  # one ALIVE broadcast, n - 1 destinations
        assert {(m.channel, m.frontier, m.inner.tag) for m in adverts} == {
            (OMEGA_CHANNEL, 2, "ALIVE")
        }
        # Only the ALIVE rides the header; nothing else changes envelope.
        assert all(
            type(sent.message) is Wrapped
            for sent in env.sent
            if not isinstance(sent.message, FrontierAdvert)
        )

    def test_a_received_advert_feeds_the_log_and_the_bare_alive_the_oracle(self):
        stack = OmegaConsensusStack(pid=0, n=5, t=2)
        env = FakeEnvironment(pid=0, n=5)
        stack.on_start(env)
        seen = []
        omega_on_message = stack.omega.on_message
        stack.omega.on_message = lambda e, sender, message: (
            seen.append((sender, message)),
            omega_on_message(e, sender, message),
        )
        alive = Alive.make(1, {pid: 0 for pid in range(5)})
        env.advance(0.5)
        stack.on_message(
            env, 3, FrontierAdvert(channel=OMEGA_CHANNEL, inner=alive, frontier=9)
        )
        assert seen == [(3, alive)]
        assert stack.log._advertised == {3: 9}
        assert stack.omega.records.reception_count(1) == 2
