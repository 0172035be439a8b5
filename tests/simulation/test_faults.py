"""Unit tests for the fault-plan engine (plans, link state, injector, recovery)."""

import pytest

from repro.core import Figure3Omega, OmegaConfig
from repro.simulation import (
    ConstantDelay,
    Crash,
    FaultPlan,
    LinkFault,
    LinkHeal,
    PartitionHeal,
    PartitionStart,
    Recover,
    SlowProcess,
    System,
    SystemConfig,
    UniformDelay,
)
from repro.util.rng import RandomSource


def build(n=4, t=1, seed=0, fault_plan=None, delay=None):
    config = SystemConfig(n=n, t=t, seed=seed)
    omega_config = OmegaConfig()

    def factory(pid):
        return Figure3Omega(pid=pid, n=n, t=t, config=omega_config)

    delay_model = delay if delay is not None else ConstantDelay(0.2)
    return System(config, factory, delay_model, fault_plan=fault_plan)


class TestFaultPlanBuilders:
    def test_none_is_empty_and_crash_stop_only(self):
        plan = FaultPlan.none()
        assert len(plan) == 0
        assert not plan.has_topology_events()
        assert not plan.has_recoveries()

    def test_rolling_restarts_alternates_crash_and_recover(self):
        plan = FaultPlan.rolling_restarts([0, 1], start=10.0, downtime=5.0)
        kinds = [type(event).__name__ for event in plan.events]
        assert kinds == ["Crash", "Recover", "Crash", "Recover"]
        # Default spacing == downtime: at most one process down at a time.
        plan.validate(n=4, t=1)
        assert plan.correct_ids(4) == [0, 1, 2, 3]

    def test_split_brain_builder(self):
        plan = FaultPlan.split_brain([[0, 1], [2, 3]], at=5.0, heal_at=20.0)
        assert plan.has_topology_events()
        assert plan.final_partition() is None  # healed
        unhealed = FaultPlan.split_brain([[0, 1]], at=5.0)
        assert unhealed.final_partition() == ((0, 1),)

    def test_flaky_links_builder(self):
        plan = FaultPlan.flaky_links([(0, 1), (1, 0)], at=2.0, until=9.0)
        assert len(plan) == 2
        assert all(isinstance(event, LinkFault) for event in plan.events)

    def test_random_plan_is_deterministic_and_valid(self):
        def draw():
            return FaultPlan.random(
                n=5,
                t=2,
                rng=RandomSource(7, label="plan"),
                horizon=100.0,
                partition_probability=1.0,
                flaky_link_count=2,
            )

        first, second = draw(), draw()
        assert [e.describe() for e in first.events] == [
            e.describe() for e in second.events
        ]
        first.validate(n=5, t=2)
        assert first.final_partition() is None  # random partitions always heal

    def test_random_plan_respects_protect(self):
        plan = FaultPlan.random(
            n=4,
            t=2,
            rng=RandomSource(3),
            horizon=50.0,
            recover_probability=0.0,
            protect=[0],
        )
        assert 0 in plan.correct_ids(4)


class TestFaultPlanValidation:
    def test_rejects_more_than_t_concurrently_down(self):
        plan = FaultPlan([Crash(time=1.0, pid=0), Crash(time=2.0, pid=1)])
        with pytest.raises(ValueError):
            plan.validate(n=4, t=1)
        # The same crashes separated by a recovery respect the budget.
        staged = FaultPlan(
            [Crash(time=1.0, pid=0), Recover(time=1.5, pid=0), Crash(time=2.0, pid=1)]
        )
        staged.validate(n=4, t=1)

    def test_rejects_recover_of_up_process(self):
        with pytest.raises(ValueError):
            FaultPlan([Recover(time=1.0, pid=0)]).validate(n=3, t=1)

    def test_rejects_out_of_range_pids(self):
        with pytest.raises(ValueError):
            FaultPlan([Crash(time=1.0, pid=7)]).validate(n=3, t=1)
        with pytest.raises(ValueError):
            FaultPlan([SlowProcess(time=1.0, pid=7, factor=2.0)]).validate(n=3, t=1)

    def test_rejects_duplicate_pid_in_partition_groups(self):
        with pytest.raises(ValueError):
            PartitionStart(time=1.0, groups=((0, 1), (1, 2)))

    def test_rejects_negative_crash_time(self):
        with pytest.raises(ValueError):
            FaultPlan.crashes({0: -1.0})


class TestCrashStopPlans:
    def test_faulty_and_correct_sets_reflect_plan(self):
        system = build(fault_plan=FaultPlan.crashes({2: 15.0}))
        assert system.fault_plan.final_down_ids() == [2]
        assert system.correct_ids() == [0, 1, 3]


class TestRecovery:
    def test_recover_restarts_algorithm_from_initial_state(self):
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=30.0, pid=1)])
        system = build(fault_plan=plan)
        system.run_until(20.0)
        crashed_algorithm = system.shell(1).algorithm
        assert system.shell(1).crashed
        system.run_until(40.0)
        shell = system.shell(1)
        assert not shell.crashed
        assert shell.recoveries == 1
        assert shell.algorithm is not crashed_algorithm  # fresh incarnation
        assert shell.started

    def test_recovered_process_rejoins_the_protocol(self):
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=30.0, pid=1)])
        system = build(fault_plan=plan)
        system.run_until(29.0)
        received_before = system.shell(1).messages_received
        system.run_until(120.0)
        assert system.shell(1).messages_received > received_before
        # The whole system (including the recovered process) agrees again.
        assert system.agreed_leader() is not None

    def test_stale_timers_do_not_fire_into_new_incarnation(self):
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=10.5, pid=1)])
        system = build(fault_plan=plan)
        # A timer armed by incarnation 0 and firing after the recovery must be
        # discarded: on_timer of the fresh algorithm would otherwise run with a
        # handle it never armed.  Observable: the run completes and the new
        # incarnation behaves like a freshly started process.
        system.run_until(60.0)
        assert system.shell(1).recoveries == 1
        assert system.agreed_leader() is not None

    def test_correct_set_counts_recovered_process_as_correct(self):
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=30.0, pid=1)])
        system = build(fault_plan=plan)
        assert system.correct_ids() == [0, 1, 2, 3]
        permanent = build(fault_plan=FaultPlan.crashes({1: 10.0}), seed=1)
        assert permanent.correct_ids() == [0, 2, 3]


class TestInjectorRejections:
    def test_recover_of_uncrashed_process_is_recorded_not_applied(self):
        """Regression: ``System._apply_recover`` used to return silently when
        the target was not crashed, so the event read as applied while the
        system was untouched.  The injector now records it as a rejection,
        mirroring adversary refusals."""
        system = build()
        system.run_until(5.0)
        assert system.injector.rejections == []
        epoch_before = system.fault_epoch
        shell = system.shell(1)
        incarnation_before = shell.algorithm
        system.injector._apply(Recover(time=5.0, pid=1))
        assert len(system.injector.rejections) == 1
        assert "not crashed" in system.injector.rejections[0]
        assert "recover(p1)" in system.injector.rejections[0]
        # The rejected event changed nothing: same incarnation, same epoch.
        assert shell.algorithm is incarnation_before
        assert shell.recoveries == 0
        assert system.fault_epoch == epoch_before

    def test_applied_recover_leaves_no_rejection(self):
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=30.0, pid=1)])
        system = build(fault_plan=plan)
        system.run_until(60.0)
        assert system.shell(1).recoveries == 1
        assert system.injector.rejections == []


class TestAmnesiaAdmission:
    def test_restarts_covering_a_quorum_intersection_are_flagged(self):
        plan = FaultPlan.rolling_restarts([1, 2], start=10.0, downtime=5.0)
        assert plan.restarted_ids() == [1, 2]
        hazards = plan.amnesia_hazards(4, 1)  # quorums of 3 overlap in >= 2
        assert len(hazards) == 1
        assert "shrink a promise quorum" in hazards[0]

    def test_fewer_restarts_than_the_intersection_are_safe(self):
        plan = FaultPlan.rolling_restarts([1], start=10.0, downtime=5.0)
        assert plan.amnesia_hazards(4, 1) == []  # 1 restart < n - 2t = 2
        plan.validate(4, 1, require_quorum_memory=True)  # must not raise

    def test_require_quorum_memory_rejects_unsafe_plans(self):
        plan = FaultPlan.rolling_restarts([1, 2], start=10.0, downtime=5.0)
        plan.validate(4, 1)  # budget-valid as before
        with pytest.raises(ValueError, match="amnesia-unsafe"):
            plan.validate(4, 1, require_quorum_memory=True)

    def test_crash_stop_plans_are_never_flagged(self):
        assert FaultPlan.crashes({0: 5.0}).amnesia_hazards(4, 1) == []
        assert FaultPlan.none().amnesia_hazards(4, 1) == []


class TestCorrectShellCacheInvalidation:
    def test_cache_refreshed_after_recover_event(self):
        """Regression: the correct-shell cache must not outlive a Recover.

        The PR 2 cache assumed a static correct set; with crash-recovery the
        algorithm object of a recovered process is rebuilt, so a permanent
        cache would keep reporting the dead pre-crash object.
        """
        plan = FaultPlan([Crash(time=10.0, pid=1), Recover(time=30.0, pid=1)])
        system = build(fault_plan=plan)
        system.run_until(5.0)
        before = system.correct_shells()
        algorithm_before = system.shell(1).algorithm
        assert system.shell(1) in before
        epoch_before = system.fault_epoch
        system.run_until(40.0)
        assert system.fault_epoch > epoch_before
        after = system.correct_shells()
        assert [shell.pid for shell in after] == [0, 1, 2, 3]
        assert system.shell(1).algorithm is not algorithm_before

    def test_runtime_injection_updates_correct_set(self):
        system = build(fault_plan=FaultPlan.none())
        system.run_until(5.0)
        assert [s.pid for s in system.correct_shells()] == [0, 1, 2, 3]
        system.inject_fault(Crash(time=10.0, pid=2))
        assert [s.pid for s in system.correct_shells()] == [0, 1, 3]
        system.run_until(15.0)
        assert system.shell(2).crashed

    def test_injection_in_the_past_is_rejected(self):
        system = build()
        system.run_until(10.0)
        with pytest.raises(ValueError):
            system.inject_fault(Crash(time=5.0, pid=1))

    def test_injection_is_validated_against_the_crash_budget(self):
        """Regression: run-time injection must honour the same AS_{n,t} checks
        as a constructed plan (budget, pid range, no double crash)."""
        system = build(n=4, t=1)
        system.run_until(5.0)
        system.inject_fault(Crash(time=10.0, pid=1))
        with pytest.raises(ValueError):  # second concurrent crash exceeds t=1
            system.inject_fault(Crash(time=12.0, pid=2))
        with pytest.raises(ValueError):  # out-of-range pid
            system.inject_fault(Crash(time=12.0, pid=9))
        with pytest.raises(ValueError):  # double crash of the same process
            system.inject_fault(Crash(time=15.0, pid=1))
        # Rejected events must not linger in the plan.
        assert len(system.fault_plan) == 1
        system.fault_plan.validate(4, 1)

    def test_faulty_set_follows_injection(self):
        """Regression: the faulty set must not be frozen at construction —
        experiment reports read the crashed set from the live plan — and a
        rejected injection must not linger in it."""
        system = build()
        assert system.fault_plan.final_down_ids() == []
        system.inject_fault(Crash(time=10.0, pid=2))
        assert system.fault_plan.final_down_ids() == [2]
        assert system.correct_ids() == [0, 1, 3]
        with pytest.raises(ValueError):  # a second crash exceeds t=1
            system.inject_fault(Crash(time=12.0, pid=3))
        assert system.fault_plan.events == [Crash(time=10.0, pid=2)]
        assert system.correct_ids() == [0, 1, 3]


class TestPartitions:
    def test_partition_blocks_cross_group_messages_at_send_time(self):
        plan = FaultPlan.split_brain([[0, 1]], at=10.0, heal_at=30.0)
        system = build(fault_plan=plan)
        system.run_until(9.9)
        dropped_before = system.stats.total_dropped
        system.run_until(29.9)
        assert system.stats.total_dropped > dropped_before
        assert system.link_state is not None
        assert system.link_state.partitioned
        assert not system.link_state.reachable(0, 2)
        assert system.link_state.reachable(0, 1)
        assert system.link_state.reachable(2, 3)  # implicit rest group

    def test_heal_restores_full_reachability(self):
        plan = FaultPlan.split_brain([[0, 1]], at=10.0, heal_at=30.0)
        system = build(fault_plan=plan)
        system.run_until(35.0)
        assert not system.link_state.partitioned
        assert system.link_state.reachable(0, 2)
        system.run_until(120.0)
        assert system.agreed_leader() is not None

    def test_no_link_state_installed_for_pure_crash_plans(self):
        system = build(fault_plan=FaultPlan.crashes({1: 5.0}))
        assert system.link_state is None
        assert system.network.link_state is None


class TestLinkFaults:
    def test_one_way_cut_drops_only_that_direction(self):
        plan = FaultPlan([LinkFault(time=5.0, sender=0, dest=1, block=True)])
        system = build(fault_plan=plan)
        system.run_until(6.0)
        assert not system.link_state.reachable(0, 1)
        assert system.link_state.reachable(1, 0)

    def test_link_heal_and_until_restore_the_link(self):
        plan = FaultPlan(
            [
                LinkFault(time=5.0, sender=0, dest=1, block=True, until=15.0),
                LinkFault(time=5.0, sender=1, dest=0, block=True),
                LinkHeal(time=20.0, sender=1, dest=0),
            ]
        )
        system = build(fault_plan=plan)
        system.run_until(16.0)
        assert system.link_state.reachable(0, 1)  # auto-healed by until
        assert not system.link_state.reachable(1, 0)
        system.run_until(21.0)
        assert system.link_state.reachable(1, 0)

    def test_overlapping_until_windows_do_not_heal_early(self):
        """Regression: the auto-heal of an expired fault window must not remove
        a newer fault installed on the same link inside that window."""
        plan = FaultPlan(
            [
                LinkFault(time=5.0, sender=0, dest=1, block=True, until=20.0),
                LinkFault(time=15.0, sender=0, dest=1, block=True, until=40.0),
            ]
        )
        system = build(fault_plan=plan)
        system.run_until(25.0)  # first window expired inside the second
        assert not system.link_state.reachable(0, 1)
        system.run_until(41.0)
        assert system.link_state.reachable(0, 1)

    def test_overlapping_slowdown_windows_do_not_reset_early(self):
        plan = FaultPlan(
            [
                SlowProcess(time=0.0, pid=0, factor=5.0, until=20.0),
                SlowProcess(time=10.0, pid=0, factor=3.0, until=40.0),
            ]
        )
        system = build(fault_plan=plan)
        system.run_until(25.0)
        assert system.link_state.adjust(0, 1, 1.0) == pytest.approx(3.0)
        system.run_until(41.0)
        assert system.link_state.adjust(0, 1, 1.0) == pytest.approx(1.0)

    def test_lossy_link_drops_a_fraction_deterministically(self):
        plan = FaultPlan.flaky_links([(0, 1)], at=0.0, loss_probability=0.5)

        def run():
            system = build(fault_plan=plan, seed=4)
            system.run_until(100.0)
            return system.stats.total_dropped

        first = run()
        assert first > 0
        assert first == run()

    def test_delay_inflation_slows_the_link(self):
        plan = FaultPlan(
            [LinkFault(time=0.0, sender=0, dest=1, delay_factor=10.0, delay_add=1.0)]
        )
        system = build(fault_plan=plan)
        system.run_until(50.0)
        # ConstantDelay(0.2) inflated to 0.2*10+1 = 3.0 on the faulted link.
        assert system.stats.max_delay == pytest.approx(3.0)

    def test_slow_process_inflates_both_directions(self):
        plan = FaultPlan([SlowProcess(time=0.0, pid=0, factor=5.0, until=30.0)])
        system = build(fault_plan=plan)
        system.run_until(10.0)
        assert system.stats.max_delay == pytest.approx(1.0)  # 0.2 * 5
        system.run_until(31.0)
        assert system.link_state.adjust(0, 1, 0.2) == pytest.approx(0.2)


class TestFingerprints:
    def test_same_seed_same_plan_same_execution(self):
        plan_events = [
            Crash(time=10.0, pid=1),
            Recover(time=25.0, pid=1),
            PartitionStart(time=30.0, groups=((0, 1),)),
            PartitionHeal(time=45.0),
            LinkFault(time=50.0, sender=2, dest=3, loss_probability=0.3, until=70.0),
        ]

        def run():
            system = build(
                fault_plan=FaultPlan(list(plan_events)),
                seed=21,
                delay=UniformDelay(0.2, 1.5, RandomSource(21)),
            )
            system.run_until(150.0)
            return {
                "executed": system.scheduler.executed,
                "stats": system.stats.as_dict(),
                "histories": {
                    shell.pid: shell.algorithm.leader_history
                    for shell in system.shells
                },
                "leaders": system.leaders(),
            }

        assert run() == run()
