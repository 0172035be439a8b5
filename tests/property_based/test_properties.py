"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.messages import Alive, Suspicion
from repro.core.state import SuspicionLevels
from repro.simulation.delays import UniformDelay
from repro.simulation.network import Network
from repro.simulation.scheduler import EventScheduler
from repro.testing import FakeEnvironment
from repro.util.rng import RandomSource


class TestSchedulerProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        scheduler = EventScheduler()
        fired = []
        for delay in delays:
            scheduler.schedule_after(delay, lambda d=delay: fired.append(scheduler.now))
        scheduler.run_until(200.0)
        assert len(fired) == len(delays)
        assert fired == sorted(fired)

    @given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30))
    def test_run_order_matches_sorted_times(self, times):
        scheduler = EventScheduler()
        ran = []
        for index, time in enumerate(times):
            scheduler.schedule_at(time, ran.append, index)
        scheduler.run_until(50.0)
        assert [times[index] for index in ran] == sorted(times)
        # Ties must respect scheduling order: within a group of equal times,
        # the events run in the order they were scheduled.
        for first, second in zip(ran, ran[1:]):
            if times[first] == times[second]:
                assert first < second


class TestSuspicionLevelLattice:
    @given(
        st.lists(
            st.dictionaries(st.integers(0, 4), st.integers(0, 20), min_size=5, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    def test_merge_order_does_not_matter(self, gossips):
        gossips = [
            {pid: gossip.get(pid, 0) for pid in range(5)} for gossip in gossips
        ]
        forward = SuspicionLevels(range(5))
        for gossip in gossips:
            forward.merge(gossip)
        backward = SuspicionLevels(range(5))
        for gossip in reversed(gossips):
            backward.merge(gossip)
        assert forward.as_dict() == backward.as_dict()
        # The merge result is the element-wise maximum of everything seen.
        expected = {
            pid: max(gossip[pid] for gossip in gossips + [{p: 0 for p in range(5)}])
            for pid in range(5)
        }
        assert forward.as_dict() == expected

    @given(
        st.lists(
            st.dictionaries(st.integers(0, 4), st.integers(0, 20), min_size=5, max_size=5),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(0, 4), max_size=8),
    )
    def test_levels_never_decrease(self, gossips, increments):
        levels = SuspicionLevels(range(5))
        previous = levels.as_dict()
        operations = [("merge", g) for g in gossips] + [("inc", pid) for pid in increments]
        for kind, payload in operations:
            if kind == "merge":
                levels.merge({pid: payload.get(pid, 0) for pid in range(5)})
            else:
                levels.increase(payload)
            current = levels.as_dict()
            assert all(current[pid] >= previous[pid] for pid in range(5))
            previous = current


class TestFigure3Invariant:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),   # round number
                st.integers(min_value=0, max_value=4),    # suspect
                st.integers(min_value=1, max_value=5),    # how many suspicion senders
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_lemma8_spread_invariant_under_arbitrary_suspicion_streams(self, stream):
        """Whatever SUSPICION messages arrive, in whatever order, the Figure 3 rule
        keeps max(susp_level) - min(susp_level) <= 1 (Lemma 8)."""
        algorithm = Figure3Omega(pid=0, n=5, t=2, config=OmegaConfig())
        env = FakeEnvironment(pid=0, n=5)
        algorithm.on_start(env)
        for rn, suspect, sender_count in stream:
            for sender in range(sender_count):
                algorithm.on_message(env, sender, Suspicion.make(rn, [suspect]))
            assert algorithm.susp_level.spread() <= 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.integers(0, 4), st.integers(0, 15), min_size=5, max_size=5),
            min_size=1,
            max_size=20,
        )
    )
    def test_gossip_absorption_keeps_leader_well_defined(self, gossips):
        """Merging arbitrary (even inconsistent) gossip never breaks the election
        rule: leader() always returns a valid process id."""
        algorithm = Figure3Omega(pid=0, n=5, t=2, config=OmegaConfig())
        env = FakeEnvironment(pid=0, n=5)
        algorithm.on_start(env)
        for rn, gossip in enumerate(gossips, start=1):
            full = {pid: gossip.get(pid, 0) for pid in range(5)}
            algorithm.on_message(env, 1, Alive(rn=rn, susp_level=tuple(sorted(full.items()))))
            assert algorithm.leader() in range(5)


class TestNetworkReliabilityProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 50)),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_every_message_between_live_processes_delivered_exactly_once(
        self, sends, seed
    ):
        """Reliable links: no loss, no duplication, no creation, for any send pattern
        and any (bounded) random delays."""
        scheduler = EventScheduler()
        network = Network(scheduler, UniformDelay(0.0, 10.0, RandomSource(seed)))
        received = {pid: [] for pid in range(4)}
        for pid in range(4):
            network.register(
                pid,
                lambda sender, message, pid=pid: received[pid].append((sender, message)),
                lambda: True,
            )
        expected = {pid: 0 for pid in range(4)}
        for sender, dest, rn in sends:
            if sender == dest:
                continue
            network.send(sender, dest, Alive.make(rn, {p: 0 for p in range(4)}))
            expected[dest] += 1
        scheduler.run_to_quiescence()
        assert {pid: len(messages) for pid, messages in received.items()} == expected
        assert network.stats.total_delivered == sum(expected.values())
        assert network.stats.total_dropped == 0


class TestRandomCrashTimesProperty:
    @given(
        st.integers(min_value=3, max_value=12),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_draw_always_respects_t(self, n, seed):
        from repro.simulation.crash import random_crash_times
        from repro.simulation.faults import FaultPlan

        t = (n - 1) // 2
        times = random_crash_times(
            n=n, t=t, rng=RandomSource(seed), horizon=50.0, protect=[0]
        )
        FaultPlan.crashes(times).validate(n, t)
        assert len(times) <= t
        assert 0 not in times
        assert all(0.0 <= time <= 50.0 for time in times.values())


class TestConsensusAcceptorProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["prepare", "accept", "decide"]),
                st.integers(0, 40),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_promise_is_log_wide_monotone_durable_and_governs_every_position(
        self, operations
    ):
        """The acceptor never goes back on its promise, at any position: the
        one log-wide promise is monotone, a position only accepts ballots at
        least as high as it, every reply says so, learning never disturbs
        either — and the durable store mirrors all of it before the reply."""
        from repro.consensus.messages import (
            Accepted,
            AcceptRequest,
            Decide,
            Nack,
            Prepare,
            Promise,
        )
        from repro.consensus.replicated_log import ReplicatedLog
        from repro.storage.stable_store import StableStore

        class Oracle:
            def leader(self):
                return 0

        log = ReplicatedLog(pid=1, n=5, t=2, oracle=Oracle())
        store = StableStore(pid=1)
        log.attach_storage(store)
        env = FakeEnvironment(pid=1, n=5)
        accepted = {}
        for kind, ballot, position in operations:
            promised = log._promised
            env.clear_sent()
            if kind == "prepare":
                log.on_message(env, 0, Prepare(ballot=ballot, from_position=position))
                (reply,) = env.messages_to(0)
                if ballot > promised:
                    assert isinstance(reply, Promise) and reply.ballot == ballot
                    reported = {entry[0]: entry[1:] for entry in reply.accepted}
                    reported.update({pos: None for pos, _ in reply.decisions})
                    assert set(reported) == {
                        pos for pos in set(accepted) | set(log.decisions) if pos >= position
                    }
                else:
                    assert reply == Nack(ballot=ballot, promised=promised)
            elif kind == "accept":
                value = f"v{ballot}"
                log.on_message(
                    env, 0, AcceptRequest(instance=position, ballot=ballot, value=value)
                )
                (reply,) = env.messages_to(0)
                if ballot >= promised:
                    assert reply == Accepted(instance=position, ballot=ballot, value=value)
                    assert ballot >= accepted.get(position, (-1, None))[0]
                    accepted[position] = (ballot, value)
                else:
                    assert reply == Nack(ballot=ballot, promised=promised)
            else:
                log.on_message(env, 0, Decide(instance=position, value=f"d{position}"))
                assert env.sent == []
            assert log._promised >= promised
            assert all(b <= log._promised for b, _ in accepted.values())
            durable = store.snapshot()
            assert durable.get(("promised",), -1) == log._promised
            for pos, record in accepted.items():
                assert durable[("acceptor", pos)] == record
                assert pos in log.decisions or log._accepted[pos] == record
