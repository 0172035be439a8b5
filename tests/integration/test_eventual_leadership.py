"""Integration tests for the eventual-leadership claims (experiments E1-E5).

Each test runs a full simulated system under a scenario that satisfies one of the
paper's assumptions and checks the operational reading of the Omega specification:
from some point on, every correct process trusts the same correct process, and it
keeps doing so until the end of the run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Tracer, round_clock, run_omega_experiment
from repro.assumptions import (
    CombinedMrtScenario,
    EventualRotatingStarScenario,
    EventualTMovingSourceScenario,
    EventualTSourceScenario,
    GrowingStarScenario,
    IntermittentRotatingStarScenario,
    MessagePatternScenario,
    StrictTSourceScenario,
    special_case_scenarios,
)
from repro.core import FgOmega, Figure1Omega, Figure2Omega, Figure3Omega, OmegaConfig
from repro.service import build_sharded_service
from repro.simulation import Crash, FaultPlan, Recover
from repro.simulation.delays import DelayModel
from repro.simulation.faults import DEFAULT_ROUND_RESYNC_GAP
from repro.simulation.system import System, SystemConfig

DURATION = 300.0


def assert_eventual_leadership(result, duration=DURATION):
    """The three observable consequences of the Eventual Leadership property."""
    assert result.stabilized, f"no stable leader: {result}"
    assert result.leader_is_correct, f"stable leader is faulty: {result}"
    assert result.late_leader_changes == 0, f"leader still churning late: {result}"
    assert result.stabilization_time < duration


class TestE1Figure1UnderA0:
    """E1 — Figure 1 implements Omega under the eventual rotating t-star (A0)."""

    def test_failure_free_run(self):
        scenario = EventualRotatingStarScenario(n=5, t=2, center=1, seed=101)
        result = run_omega_experiment(scenario, Figure1Omega, duration=DURATION, seed=101)
        assert_eventual_leadership(result)

    def test_with_crashes_of_lowest_ids(self):
        # Crash the processes the lexicographic tie-break would otherwise prefer:
        # the elected leader must move to a correct process (Lemma 1).
        scenario = EventualRotatingStarScenario(n=5, t=2, center=3, seed=102)
        crashes = FaultPlan.crashes({0: 30.0, 1: 60.0})
        result = run_omega_experiment(
            scenario, Figure1Omega, duration=DURATION, seed=102, fault_plan=crashes
        )
        assert_eventual_leadership(result)
        assert result.final_leader in {2, 3, 4}

    def test_crashed_process_levels_grow(self):
        scenario = EventualRotatingStarScenario(n=5, t=2, center=3, seed=103)
        crashes = FaultPlan.crashes({0: 20.0})
        result = run_omega_experiment(
            scenario, Figure1Omega, duration=DURATION, seed=103, fault_plan=crashes
        )
        # Lemma 1: the suspicion level of a crashed process increases forever, so by
        # the end of the run it dominates every live level.
        assert result.bounds.max_level_ever > 5


class TestE2Figure2UnderIntermittentStar:
    """E2 — Figure 2 implements Omega under the intermittent star (A)."""

    @pytest.mark.parametrize("max_gap", [1, 2, 4, 8])
    def test_various_gap_bounds(self, max_gap):
        scenario = IntermittentRotatingStarScenario(
            n=5, t=2, center=2, seed=110 + max_gap, max_gap=max_gap
        )
        result = run_omega_experiment(
            scenario, Figure2Omega, duration=DURATION, seed=110 + max_gap
        )
        assert_eventual_leadership(result)

    def test_with_crashes(self):
        # The crashes happen early: under Figure 2 the suspicion level of a crashed
        # process only starts to grow once the receiving rounds pass the last round
        # it managed to send, and the growing timeouts of Figure 2 make receiving
        # rounds slow down considerably (this sluggishness is precisely what the
        # bounded-variable Figure 3 removes, see test_ablation.py).
        scenario = IntermittentRotatingStarScenario(n=7, t=3, center=5, seed=115, max_gap=4)
        crashes = FaultPlan.crashes({pid: 10.0 + 5.0 * pid for pid in (0, 1, 2)})
        result = run_omega_experiment(
            scenario, Figure2Omega, duration=500.0, seed=115, fault_plan=crashes
        )
        assert_eventual_leadership(result, duration=500.0)
        assert result.final_leader in {3, 4, 5, 6}


class TestE3Figure3Bounded:
    """E3 — Figure 3: Omega + bounded variables (Theorems 3-4, Lemma 8)."""

    def test_leadership_and_bounds_failure_free(self):
        scenario = IntermittentRotatingStarScenario(n=7, t=3, center=0, seed=120, max_gap=4)
        result = run_omega_experiment(scenario, Figure3Omega, duration=400.0, seed=120)
        assert_eventual_leadership(result, duration=400.0)
        assert result.bounds.theorem4_holds
        assert result.bounds.lemma8_violations == 0

    def test_bounds_hold_despite_crashes(self):
        # Even with crashed processes (whose level grows for ever under Figure 2),
        # Figure 3 keeps every entry within B + 1.
        scenario = IntermittentRotatingStarScenario(n=7, t=3, center=6, seed=121, max_gap=4)
        crashes = FaultPlan.crashes({0: 30.0, 1: 60.0, 2: 90.0})
        result = run_omega_experiment(
            scenario, Figure3Omega, duration=400.0, seed=121, fault_plan=crashes
        )
        assert_eventual_leadership(result, duration=400.0)
        assert result.bounds.theorem4_holds
        assert result.bounds.lemma8_violations == 0
        assert result.bounds.max_level_ever <= result.bounds.bound_b + 1

    def test_timeouts_stabilize(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=1, seed=122, max_gap=4)
        crashes = FaultPlan.crashes({4: 50.0})
        result = run_omega_experiment(
            scenario, Figure3Omega, duration=400.0, seed=122, fault_plan=crashes
        )
        assert result.bounds.timeouts_stabilized
        # All timeouts derive from bounded suspicion levels.
        assert all(
            timeout <= (result.bounds.bound_b + 1) * 1.0
            for timeout in result.bounds.final_timeouts.values()
        )


class TestE4SpecialCases:
    """E4 — the same Figure 3 algorithm works under every special-case assumption."""

    @pytest.mark.parametrize("index", range(6))
    def test_each_special_case(self, index):
        scenario = special_case_scenarios(7, 3, center=2, seed=130)[index]
        result = run_omega_experiment(scenario, Figure3Omega, duration=DURATION, seed=130)
        assert_eventual_leadership(result)

    def test_strict_t_source(self):
        scenario = StrictTSourceScenario(n=7, t=3, center=2, seed=131)
        result = run_omega_experiment(scenario, Figure3Omega, duration=DURATION, seed=131)
        assert_eventual_leadership(result)

    def test_harsh_message_pattern(self):
        scenario = MessagePatternScenario(n=7, t=3, center=0, seed=132, harsh=True)
        result = run_omega_experiment(scenario, Figure3Omega, duration=DURATION, seed=132)
        assert_eventual_leadership(result)
        # Only the winning property protects the centre here; its level stays bounded.
        assert result.bounds.theorem4_holds

    def test_moving_source_with_crashes(self):
        scenario = EventualTMovingSourceScenario(n=7, t=3, center=1, seed=133)
        crashes = FaultPlan.crashes({0: 30.0, 6: 90.0})
        result = run_omega_experiment(
            scenario, Figure3Omega, duration=DURATION, seed=133, fault_plan=crashes
        )
        assert_eventual_leadership(result)
        assert result.final_leader not in {0, 6}

    def test_combined_mrt_with_figure2(self):
        scenario = CombinedMrtScenario(n=7, t=3, center=4, seed=134)
        result = run_omega_experiment(scenario, Figure2Omega, duration=DURATION, seed=134)
        assert_eventual_leadership(result)


class TestE5GrowingBounds:
    """E5 — the A_{f,g} algorithm copes with growing delays and star gaps."""

    def test_fg_algorithm_under_growing_scenario(self):
        scenario = GrowingStarScenario(
            n=5,
            t=2,
            center=2,
            seed=140,
            max_gap=2,
            f=lambda k: min(4, k // 8),
            g=lambda rn: min(3.0, 0.02 * rn),
        )
        result = run_omega_experiment(scenario, FgOmega, duration=400.0, seed=140)
        assert_eventual_leadership(result, duration=400.0)

    def test_fg_with_zero_functions_matches_figure3(self):
        scenario = IntermittentRotatingStarScenario(n=5, t=2, center=1, seed=141, max_gap=3)
        fg = run_omega_experiment(scenario, FgOmega, duration=200.0, seed=141)
        fig3 = run_omega_experiment(scenario, Figure3Omega, duration=200.0, seed=141)
        # With f == g == 0 the A_{f,g} algorithm degenerates to Figure 3 exactly:
        # same messages, same rounds, same final leader on the same seed.
        assert fg.final_leader == fig3.final_leader
        assert fg.messages_sent == fig3.messages_sent
        assert fg.rounds_completed == fig3.rounds_completed


class TestDeterminism:
    def test_same_seed_reproduces_experiment_exactly(self):
        scenario = EventualTSourceScenario(n=5, t=2, center=1, seed=150)
        first = run_omega_experiment(scenario, Figure3Omega, duration=150.0, seed=150)
        second = run_omega_experiment(scenario, Figure3Omega, duration=150.0, seed=150)
        assert first.messages_sent == second.messages_sent
        assert first.stabilization_time == second.stabilization_time
        assert first.final_leader == second.final_leader


class TestOneRoundClock:
    """Failover is a handful of rounds, whatever the shard's age or history.

    Before the crash-recovery round clock (rejoin + lossless resync under
    ``round_resync_gap``, paced ALIVEs in the service) re-election took as long
    as the shard had been up: a restarted follower numbered its ALIVEs from 1
    and stayed mute to the detector until it caught up, and receiving rounds
    trailed sending rounds by half the uptime, so a dead leader's buffered
    ALIVEs kept it unsuspected.  Every cell below took 118-920 vt then.
    """

    #: Re-election ceiling: the floor is the scenario's own slow / winning /
    #: blocker delays (a few rounds of 14-60 vt arrivals), about 30 vt.
    ELECTION_CEILING = 80.0
    HORIZON = 1500.0

    @pytest.mark.parametrize("crash_at", [300.0, 900.0])
    @pytest.mark.parametrize("earlier_restart", [False, True])
    @pytest.mark.parametrize("n, t", [(3, 1), (7, 3)])
    def test_leader_crash_is_healed_within_the_ceiling(
        self, n, t, earlier_restart, crash_at
    ):
        def restart_a_follower(shard):
            return FaultPlan.rolling_restarts([1], start=100.0, downtime=60.0)

        service = build_sharded_service(
            num_shards=1,
            n=n,
            t=t,
            seed=2,
            fault_plan_factory=restart_a_follower if earlier_restart else None,
        )
        system = service.systems[0]
        service.run_until(crash_at)
        leader = system.agreed_leader()
        assert leader is not None
        system.inject_fault(Crash(time=service.now, pid=leader))

        def live_leader_agreed():
            agreed = system.agreed_leader()
            return agreed is not None and not system.shells[agreed].crashed

        while not live_leader_agreed():
            assert service.now - crash_at < self.ELECTION_CEILING, system.leaders()
            service.run_for(0.5)

        service.run_until(self.HORIZON)
        clock = round_clock(system)
        # ALIVE numberings stay together (rejoin) and receiving rounds trail
        # them by what the longest arrival (a 60-vt blocker) buffers at most —
        # not by a fraction of the uptime (it was 328-627 rounds here).
        assert clock.sending_spread <= DEFAULT_ROUND_RESYNC_GAP + 4, clock
        assert clock.receive_lag <= 90, clock

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    @pytest.mark.parametrize("n, t", [(3, 1), (7, 3)])
    def test_a_recover_injected_into_a_plan_less_shard_rejoins_the_round_clock(
        self, n, t
    ):
        """The service turns resync on only for a static plan that needs it,
        so a process recovered at run time on a plan-less shard keeps its
        receiving round at 1 and never rejoins the ALIVE numbering."""
        service = build_sharded_service(num_shards=1, n=n, t=t, seed=2)
        system = service.systems[0]
        system.inject_fault(Crash(time=300.0, pid=1))
        system.inject_fault(Recover(time=360.0, pid=1))
        service.run_until(self.HORIZON)
        clock = round_clock(system)
        assert clock.sending_spread <= DEFAULT_ROUND_RESYNC_GAP + 4, clock
        assert clock.receive_lag <= 90, clock

    @given(
        seed=st.integers(0, 10_000),
        size=st.sampled_from([(3, 1), (5, 2)]),
        crash_at=st.floats(50.0, 600.0),
        downtime=st.floats(30.0, 300.0),
    )
    @settings(max_examples=4, deadline=None)
    def test_paced_figure3_keeps_its_bounds_when_the_centre_restarts(
        self, seed, size, crash_at, downtime
    ):
        """Pacing trades the ever-growing receive lag the paper's argument
        leans on for a bounded one; Lemma 8, Theorem 4 and stabilisation must
        survive it — also when the star centre itself crashes and recovers."""
        n, t = size
        center = seed % n
        scenario = IntermittentRotatingStarScenario(
            n=n, t=t, center=center, seed=seed, max_gap=4
        )
        result = run_omega_experiment(
            scenario,
            Figure3Omega,
            duration=3000.0,
            seed=seed,
            config=OmegaConfig(round_resync_gap=8, pace_alive=True, quiet_rounds=True),
            fault_plan=FaultPlan(
                [
                    Crash(time=crash_at, pid=center),
                    Recover(time=crash_at + downtime, pid=center),
                ]
            ),
        )
        assert result.bounds.lemma8_violations == 0
        assert result.bounds.theorem4_holds
        assert_eventual_leadership(result, duration=2000.0)


class _ArithmeticDelay(DelayModel):
    """Delays that are a function of the message alone and draw nothing.

    Removing a message then shifts no other message's delay, so two runs that
    differ only in messages nobody acts on are comparable state for state.
    Most ALIVEs are fast; the ``(sender, rn)`` pairs below are slow enough to
    miss their round, so live processes get suspected now and then.
    """

    def delay(self, ctx):
        rn = ctx.round_number or 0
        delay = 0.05 + 0.01 * ((3 * ctx.sender + 5 * ctx.dest + rn) % 11)
        if ctx.tag == "ALIVE" and (rn + 2 * ctx.sender) % 9 < 2 and rn % 5 != ctx.dest:
            delay += 4.0 + ctx.sender
        return delay


class TestQuietRoundsChangeNoState:
    """``quiet_rounds`` drops only messages no receiver acts on: every
    process ends in the state it reaches under the paper's line 10."""

    N, T, CRASHED, DURATION = 5, 2, 3, 240.0

    def _run(self, omega_cls, quiet_rounds):
        config = OmegaConfig(
            quiet_rounds=quiet_rounds,
            f=(lambda rn: rn % 3) if omega_cls is FgOmega else None,
            g=(lambda rn: 0.25 * (rn % 4)) if omega_cls is FgOmega else None,
        )
        tracer = Tracer(kinds={"round_closed"})
        system = System(
            config=SystemConfig(n=self.N, t=self.T),
            process_factory=lambda pid: omega_cls(pid=pid, n=self.N, t=self.T, config=config),
            delay_model=_ArithmeticDelay(),
            tracer=tracer,
            fault_plan=FaultPlan.crashes({self.CRASHED: 60.0}),
        )
        system.run_until(self.DURATION)
        closes = [
            (event.time, event.pid, event.detail("rn"), tuple(event.detail("suspects")))
            for event in tracer.events
        ]
        states = {
            pid: (
                oracle.leader_history,
                oracle.timeout_history,
                oracle.susp_level.as_dict(),
                oracle.sending_round,
                oracle.receiving_round,
                oracle.counters["level_increments"],
            )
            for pid, oracle in system.algorithms().items()
        }
        return states, closes, system.network.stats.sent_by_tag

    @pytest.mark.parametrize(
        "omega_cls", [Figure1Omega, Figure2Omega, Figure3Omega, FgOmega]
    )
    def test_every_variant_reaches_identical_state(self, omega_cls):
        states, closes, sent = self._run(omega_cls, quiet_rounds=False)
        quiet_states, quiet_closes, quiet_sent = self._run(omega_cls, quiet_rounds=True)
        assert quiet_states == states
        assert quiet_closes == closes
        assert quiet_sent["ALIVE"] == sent["ALIVE"]

        empty = sum(1 for *_, suspects in closes if not suspects)
        assert sent["SUSPICION"] == self.N * len(closes)
        assert quiet_sent["SUSPICION"] == sent["SUSPICION"] - self.N * empty
        # The run exercises both sides of the skip, and levels really climb.
        assert 0 < empty < len(closes)
        for _, _, levels, *_ in states.values():
            assert levels[self.CRASHED] > 0
            assert any(level for pid, level in levels.items() if pid != self.CRASHED)
