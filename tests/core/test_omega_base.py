"""Unit tests of the shared algorithm machinery (Figure 1/2/3 common part).

The tests drive a single algorithm instance through a
:class:`repro.testing.FakeEnvironment`, checking each numbered line of the paper's
pseudo-code in isolation: the ALIVE broadcast task, the reception bookkeeping, the
round-closure predicate of line 8, the SUSPICION handling of lines 13-18 and the
election rule of lines 19-21.
"""

import pytest

from repro.core.config import OmegaConfig
from repro.core.figure1 import Figure1Omega
from repro.core.messages import Alive, Suspicion
from repro.core.omega_base import ALIVE_TIMER, ROUND_TIMER
from repro.testing import FakeEnvironment, deliver_round_alive, deliver_suspicions


def make(pid=0, n=5, t=2, **config_kwargs):
    config = OmegaConfig(**config_kwargs)
    algorithm = Figure1Omega(pid=pid, n=n, t=t, config=config)
    env = FakeEnvironment(pid=pid, n=n)
    return algorithm, env


class TestConstruction:
    def test_rejects_pid_out_of_range(self):
        with pytest.raises(ValueError):
            Figure1Omega(pid=5, n=5, t=2)

    def test_rejects_bad_n_t(self):
        with pytest.raises(ValueError):
            Figure1Omega(pid=0, n=3, t=3)

    def test_initial_state(self):
        algorithm, _ = make()
        assert algorithm.sending_round == 0
        assert algorithm.receiving_round == 1
        assert algorithm.leader() == 0
        assert algorithm.alpha == 3

    def test_alpha_override(self):
        algorithm = Figure1Omega(pid=0, n=5, t=2, config=OmegaConfig(alpha=4))
        assert algorithm.alpha == 4


class TestTaskT1:
    def test_on_start_broadcasts_first_alive(self):
        algorithm, env = make()
        algorithm.on_start(env)
        alives = env.messages_of_type(Alive)
        assert len(alives) == 4  # to every other process, not to itself
        assert all(message.rn == 1 for message in alives)
        assert algorithm.sending_round == 1

    def test_alive_timer_rebroadcasts_with_next_round(self):
        algorithm, env = make()
        algorithm.on_start(env)
        env.clear_sent()
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        alives = env.messages_of_type(Alive)
        assert {message.rn for message in alives} == {2}

    def test_alive_carries_current_susp_level(self):
        algorithm, env = make()
        algorithm.on_start(env)
        algorithm.susp_level.increase(3)
        env.clear_sent()
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        alive = env.messages_of_type(Alive)[0]
        assert alive.susp_level_dict()[3] == 1

    def test_alive_timer_rearmed(self):
        algorithm, env = make()
        algorithm.on_start(env)
        names = [timer.name for timer in env.timers]
        assert names.count(ALIVE_TIMER) == 1
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        names = [timer.name for timer in env.timers]
        assert names.count(ALIVE_TIMER) == 2

    @pytest.mark.parametrize(
        "pace_alive, level, expected",
        [(True, 3, 1.5), (True, 0, 1.0), (True, 1, 1.0), (False, 3, 1.0)],
    )
    def test_paced_alive_period_follows_the_line_11_timeout(
        self, pace_alive, level, expected
    ):
        # Paced: max(alive_period, timeout_unit * max susp_level); the paper's
        # fixed period when pacing is off or the timeout is the shorter one.
        algorithm, env = make(pace_alive=pace_alive, timeout_unit=0.5)
        algorithm.susp_level.merge({2: level})
        algorithm.on_start(env)
        (alive_timer,) = [t for t in env.timers if t.name == ALIVE_TIMER]
        assert alive_timer.fires_at == expected

    def test_jitter_is_added_on_top_of_the_paced_period(self):
        algorithm, env = make(pace_alive=True, timeout_unit=2.0, alive_jitter=0.5)
        algorithm.susp_level.merge({2: 3})
        algorithm.on_start(env)
        (alive_timer,) = [t for t in env.timers if t.name == ALIVE_TIMER]
        assert 6.0 <= alive_timer.fires_at <= 6.5
        assert alive_timer.fires_at != 6.0


class TestAliveReception:
    def test_gossip_merges_levels(self):
        algorithm, env = make()
        algorithm.on_start(env)
        algorithm.on_message(env, 1, Alive.make(1, {0: 0, 1: 0, 2: 4, 3: 0, 4: 1}))
        assert algorithm.susp_level[2] == 4
        assert algorithm.susp_level[4] == 1

    def test_current_round_message_counted(self):
        algorithm, env = make()
        algorithm.on_start(env)
        algorithm.on_message(env, 2, Alive.make(1, {pid: 0 for pid in range(5)}))
        assert 2 in algorithm.records.rec_from(1)

    def test_future_round_message_buffered(self):
        algorithm, env = make()
        algorithm.on_start(env)
        algorithm.on_message(env, 2, Alive.make(9, {pid: 0 for pid in range(5)}))
        assert 2 in algorithm.records.rec_from(9)

    def test_stale_round_message_discarded(self):
        algorithm, env = make(initial_timeout=0.0)
        algorithm.on_start(env)
        # Close round 1: timer expired (initial timeout 0) + alpha=3 receptions.
        env.fire_due_timers(algorithm)
        deliver_round_alive(algorithm, env, 1, senders=[1, 2])
        assert algorithm.receiving_round == 2
        algorithm.on_message(env, 3, Alive.make(1, {pid: 0 for pid in range(5)}))
        assert 3 not in algorithm.records.rec_from(1)


class TestRoundClosure:
    def test_round_not_closed_before_timer_expiry(self):
        algorithm, env = make(initial_timeout=5.0)
        algorithm.on_start(env)
        deliver_round_alive(algorithm, env, 1, senders=[1, 2, 3, 4])
        assert algorithm.receiving_round == 1
        assert env.messages_of_type(Suspicion) == []

    def test_round_not_closed_before_alpha_receptions(self):
        algorithm, env = make(initial_timeout=0.0)
        algorithm.on_start(env)
        env.fire_due_timers(algorithm)  # timer expired, but only self in rec_from
        deliver_round_alive(algorithm, env, 1, senders=[1])
        assert algorithm.receiving_round == 1

    def test_round_closes_when_both_conditions_hold(self):
        algorithm, env = make(initial_timeout=0.0)
        algorithm.on_start(env)
        env.fire_due_timers(algorithm)
        deliver_round_alive(algorithm, env, 1, senders=[1, 2])
        assert algorithm.receiving_round == 2

    def test_suspicion_broadcast_names_missing_processes(self):
        algorithm, env = make(initial_timeout=0.0)
        algorithm.on_start(env)
        env.fire_due_timers(algorithm)
        env.clear_sent()
        deliver_round_alive(algorithm, env, 1, senders=[1, 2])
        suspicions = env.messages_of_type(Suspicion)
        # Broadcast to every process including itself (line 10).
        assert len(suspicions) == 5
        assert all(message.suspects == frozenset({3, 4}) for message in suspicions)
        assert all(message.rn == 1 for message in suspicions)

    def test_timer_reset_to_max_susp_level(self):
        algorithm, env = make(initial_timeout=0.0, timeout_unit=2.0)
        algorithm.on_start(env)
        algorithm.susp_level.merge({0: 0, 1: 0, 2: 3, 3: 0, 4: 0})
        env.fire_due_timers(algorithm)
        deliver_round_alive(algorithm, env, 1, senders=[1, 2])
        # Last timeout recorded must be 2.0 * max(susp_level) = 6.0.
        assert algorithm.current_timeout == 6.0

    def test_several_rounds_close_in_cascade_when_buffered(self):
        algorithm, env = make(initial_timeout=0.0)
        algorithm.on_start(env)
        # Buffer enough ALIVE messages for rounds 1 and 2 before the timer fires.
        deliver_round_alive(algorithm, env, 1, senders=[1, 2, 3])
        deliver_round_alive(algorithm, env, 2, senders=[1, 2, 3])
        # Every suspicion level is still 0, so each successive round timer has a zero
        # timeout and is immediately due: both buffered rounds close in one sweep and
        # the algorithm ends up waiting for round 3.
        env.fire_due_timers(algorithm)
        assert algorithm.receiving_round == 3
        suspicion_rounds = {m.rn for m in env.messages_of_type(Suspicion)}
        assert suspicion_rounds == {1, 2}


class TestQuietRounds:
    """``OmegaConfig.quiet_rounds``: a round that suspects nobody broadcasts
    nothing; everything else about closing it is lines 9-12 as written."""

    EVERYONE = [1, 2, 3, 4]

    def _close_round_1(self, senders, susp_level=None, **config_kwargs):
        """Round 1's ALIVEs from *senders* arrive, then its timer expires."""
        algorithm, env = make(initial_timeout=0.5, **config_kwargs)
        algorithm.on_start(env)
        deliver_round_alive(algorithm, env, 1, senders, susp_level=susp_level)
        env.advance(0.5)
        env.fire_due_timers(algorithm)
        return algorithm, env

    def test_empty_round_is_silent_but_still_closes(self):
        algorithm, env = self._close_round_1(self.EVERYONE, quiet_rounds=True)
        assert env.messages_of_type(Suspicion) == []
        assert algorithm.counters["suspicions_sent"] == 0
        assert algorithm.receiving_round == 2
        assert (0.5, "round_closed", {"rn": 1, "suspects": []}) in env.logged

    def test_silent_round_rearms_the_timer_with_the_line_11_value(self):
        algorithm, env = self._close_round_1(
            self.EVERYONE,
            susp_level={pid: 3 if pid == 2 else 0 for pid in range(5)},
            quiet_rounds=True,
            timeout_unit=2.0,
        )
        assert env.messages_of_type(Suspicion) == []
        assert algorithm.current_timeout == 6.0
        assert (env.timers[-1].name, env.timers[-1].fires_at) == (ROUND_TIMER, 6.5)

    def test_silent_rounds_are_still_garbage_collected(self):
        algorithm, env = make(quiet_rounds=True, history_horizon=4)
        algorithm.susp_level.merge({2: 1})  # every round waits 1.0 for its timer
        algorithm.on_start(env)
        for rn in range(1, 40):
            deliver_round_alive(algorithm, env, rn, senders=self.EVERYONE)
            env.advance(1.0)
            env.fire_due_timers(algorithm)
        assert algorithm.receiving_round == 40
        assert env.messages_of_type(Suspicion) == []
        assert algorithm.records.purged_below > 0
        assert algorithm.records.tracked_rounds() < 40

    @pytest.mark.parametrize(
        "quiet_rounds, senders, suspects",
        [(False, [1, 2, 3, 4], frozenset()), (True, [1, 2], frozenset({3, 4}))],
        ids=["empty-knob-off", "non-empty-knob-on"],
    )
    def test_every_other_round_is_broadcast_as_in_the_paper(
        self, quiet_rounds, senders, suspects
    ):
        algorithm, env = self._close_round_1(senders, quiet_rounds=quiet_rounds)
        suspicions = [s for s in env.sent if isinstance(s.message, Suspicion)]
        # Line 10: to every process, itself included.
        assert [sent.dest for sent in suspicions] == [0, 1, 2, 3, 4]
        assert {sent.message for sent in suspicions} == {
            Suspicion(rn=1, suspects=suspects)
        }
        assert algorithm.counters["suspicions_sent"] == 1
        assert algorithm.receiving_round == 2

    def test_burst_close_broadcasts_only_the_non_empty_rounds(self):
        algorithm, env = make(initial_timeout=0.0, quiet_rounds=True)
        algorithm.on_start(env)
        # Rounds 1-4 are buffered before the timer fires; 2 and 4 miss someone.
        deliver_round_alive(algorithm, env, 1, senders=self.EVERYONE)
        deliver_round_alive(algorithm, env, 2, senders=[1, 2, 3])
        deliver_round_alive(algorithm, env, 3, senders=self.EVERYONE)
        deliver_round_alive(algorithm, env, 4, senders=[2, 4])
        env.fire_due_timers(algorithm)
        assert algorithm.receiving_round == 5
        suspicions = env.messages_of_type(Suspicion)
        assert [(m.rn, m.suspects) for m in suspicions] == (
            [(2, frozenset({4}))] * 5 + [(4, frozenset({1, 3}))] * 5
        )
        assert algorithm.counters["suspicions_sent"] == 2


class TestSuspicionHandling:
    def test_quorum_increments_level(self):
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=4, senders=[0, 1, 2])
        assert algorithm.susp_level[4] == 1

    def test_below_quorum_does_not_increment(self):
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=4, senders=[0, 1])
        assert algorithm.susp_level[4] == 0

    def test_every_message_beyond_quorum_increments_again(self):
        # Line 16 is re-evaluated at each reception; the paper increments at every
        # reception that reaches/exceeds the threshold.
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=4, senders=[0, 1, 2, 3])
        assert algorithm.susp_level[4] == 2

    def test_unknown_suspect_rejected(self):
        algorithm, env = make()
        algorithm.on_start(env)
        with pytest.raises(KeyError):
            algorithm.on_message(env, 1, Suspicion.make(1, [9]))

    def test_level_increment_counter(self):
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=2, senders=[0, 1, 3])
        assert algorithm.counters["level_increments"] == 1


class TestLeaderElection:
    def test_initial_leader_is_lowest_id(self):
        algorithm, _ = make(pid=3)
        assert algorithm.leader() == 0

    def test_leader_moves_away_from_suspected_process(self):
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=0, senders=[1, 2, 3])
        assert algorithm.leader() == 1

    def test_leader_history_records_changes(self):
        algorithm, env = make()
        algorithm.on_start(env)
        deliver_suspicions(algorithm, env, rn=1, suspect=0, senders=[1, 2, 3])
        leaders = [leader for _, leader in algorithm.leader_history]
        assert leaders == [0, 1]


class TestRoundResync:
    """The crash-recovery round clock: rejoin the ALIVE numbering, and
    fast-forward only *stuck* receiving rounds, only past unfillable ones.

    Regression for the stabilisation bug found by the fault-plan hypothesis
    property: the original trigger fired on the observed-round gap alone, so
    the benign steady-state lag that arises whenever the line-11 timeout
    exceeds the ALIVE period caused periodic skips; every skipped round lost
    its SUSPICION broadcast, starving the line-* window and freezing a crashed
    leader's suspicion level forever.
    """

    def _resync_algorithm(self):
        algorithm, env = make(n=5, t=2, round_resync_gap=4)
        algorithm.on_start(env)
        return algorithm, env

    def test_lagging_but_closable_round_is_not_skipped(self):
        algorithm, env = self._resync_algorithm()
        # Round 1 already has its alpha receptions: merely observing a far
        # higher round number must not fast-forward (the round will close on
        # the next timer expiry).
        deliver_round_alive(algorithm, env, rn=1, senders=[1, 2, 3])
        algorithm.on_message(env, 4, Alive(rn=50, susp_level=()))
        assert algorithm.receiving_round == 1
        assert algorithm.counters["round_resyncs"] == 0

    def test_round_with_live_timer_is_not_skipped(self):
        algorithm, env = self._resync_algorithm()
        # Timer not expired yet: even a reception-starved round is given its
        # full timeout before the gap rule may kick in.
        algorithm.on_message(env, 1, Alive(rn=50, susp_level=()))
        assert algorithm.receiving_round == 1
        assert algorithm.counters["round_resyncs"] == 0

    def test_stuck_round_is_fast_forwarded(self):
        algorithm, env = self._resync_algorithm()
        # Expire the round timer with only one reception (< alpha = 3): the
        # round is now demonstrably stuck, so a far-ahead ALIVE resyncs.
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        algorithm.on_message(env, 1, Alive(rn=2, susp_level=()))
        assert algorithm.counters["round_resyncs"] == 0  # gap 1 <= 4: no resync yet
        algorithm.on_message(env, 2, Alive(rn=50, susp_level=()))
        assert algorithm.counters["round_resyncs"] == 1
        assert algorithm.receiving_round == 50

    def test_disabled_by_default(self):
        algorithm, env = make(n=5, t=2)
        algorithm.on_start(env)
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        algorithm.on_message(env, 1, Alive(rn=500, susp_level=()))
        assert algorithm.receiving_round == 1
        assert algorithm.counters["round_resyncs"] == 0

    @pytest.mark.parametrize(
        "gap, observed, next_rn",
        [(8, 500, 501), (None, 500, 2), (8, 9, 2)],
        ids=["far-ahead", "gap-off", "within-gap"],
    )
    def test_restarted_process_rejoins_the_alive_numbering(
        self, gap, observed, next_rn
    ):
        # A fresh incarnation has just sent ALIVE(1); its peers are at round
        # `observed`.  Far ahead, it numbers its next ALIVE like they do.
        algorithm, env = make(n=5, t=2, round_resync_gap=gap)
        algorithm.on_start(env)
        algorithm.on_message(env, 1, Alive(rn=observed, susp_level=()))
        env.clear_sent()
        env.advance(1.0)
        env.fire_due_timers(algorithm)
        assert {message.rn for message in env.messages_of_type(Alive)} == {next_rn}
        assert algorithm.counters["alive_rejoins"] == (1 if next_rn == 501 else 0)

    def _stuck_at_round_1(self):
        algorithm, env = make(n=5, t=2, round_resync_gap=8)
        algorithm.on_start(env)
        env.advance(1.0)
        env.fire_due_timers(algorithm)  # round 1: timer expired, 1 < alpha = 3
        return algorithm, env

    def test_resync_lands_on_the_first_closable_round(self):
        algorithm, env = self._stuck_at_round_1()
        # Rounds 2..10 are buffered; 2-4 can never fill, 5..9 already hold
        # alpha receptions.  The jump must skip only the unfillable ones.
        for rn in range(2, 10):
            deliver_round_alive(algorithm, env, rn, senders=[1] if rn < 5 else [1, 2])
        assert algorithm.counters["round_resyncs"] == 0
        env.clear_sent()
        algorithm.on_message(env, 1, Alive(rn=10, susp_level=()))
        assert algorithm.counters["round_resyncs"] == 1
        assert algorithm.receiving_round == 5
        env.fire_due_timers(algorithm)
        # Every later round that can close still broadcasts its SUSPICION.
        assert algorithm.receiving_round == 10
        assert sorted({m.rn for m in env.messages_of_type(Suspicion)}) == [5, 6, 7, 8, 9]

    def test_resync_falls_back_to_the_observed_round(self):
        algorithm, env = self._stuck_at_round_1()
        for rn in range(2, 10):
            deliver_round_alive(algorithm, env, rn, senders=[1])
        algorithm.on_message(env, 1, Alive(rn=10, susp_level=()))
        assert algorithm.counters["round_resyncs"] == 1
        assert algorithm.receiving_round == 10
        assert env.messages_of_type(Suspicion) == []


class TestErrorsAndHousekeeping:
    def test_unknown_message_type_rejected(self):
        algorithm, env = make()

        class Bogus:
            pass

        with pytest.raises(TypeError):
            algorithm.on_message(env, 1, Bogus())

    def test_unknown_timer_rejected(self):
        algorithm, env = make()
        timer = env.set_timer(1.0, "bogus")
        with pytest.raises(ValueError):
            algorithm.on_timer(env, timer)

    def test_garbage_collection_bounds_tracked_rounds(self):
        algorithm, env = make(initial_timeout=0.0, history_horizon=4)
        algorithm.on_start(env)
        for rn in range(1, 40):
            env.fire_due_timers(algorithm)
            deliver_round_alive(algorithm, env, rn, senders=[1, 2, 3, 4])
        assert algorithm.records.purged_below > 0
        assert algorithm.records.tracked_rounds() < 40

    def test_gc_disabled_when_horizon_none(self):
        algorithm, env = make(initial_timeout=0.0, history_horizon=None)
        algorithm.on_start(env)
        for rn in range(1, 20):
            env.fire_due_timers(algorithm)
            deliver_round_alive(algorithm, env, rn, senders=[1, 2, 3, 4])
        assert algorithm.records.purged_below == 0

    def test_susp_level_snapshot_is_copy(self):
        algorithm, env = make()
        snapshot = algorithm.susp_level_snapshot()
        snapshot[0] = 99
        assert algorithm.susp_level[0] == 0
