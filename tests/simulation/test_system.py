"""Unit tests for the system builder (wiring, crash injection, leader helpers)."""

import pytest

from repro.core import Figure3Omega, OmegaConfig
from repro.core.interfaces import LeaderOracle, Process
from repro.simulation import (
    ConstantDelay,
    Crash,
    FaultPlan,
    Recover,
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


class TestConfigValidation:
    def test_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n=1, t=0)

    def test_rejects_fault_plan_exceeding_t(self):
        with pytest.raises(ValueError):
            build(n=4, t=1, fault_plan=FaultPlan.crashes({0: 1.0, 1: 1.0}))


class TestExecution:
    def test_run_until_advances_clock(self):
        system = build()
        system.run_until(10.0)
        assert system.now == 10.0

    def test_run_for_is_relative(self):
        system = build()
        system.run_until(5.0)
        system.run_for(5.0)
        assert system.now == 10.0

    def test_all_processes_started_and_exchange_messages(self):
        system = build()
        system.run_until(5.0)
        assert all(shell.started for shell in system.shells)
        assert system.stats.total_sent > 0

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            system = build(seed=11, delay=UniformDelay(0.1, 2.0, RandomSource(11)))
            system.run_until(50.0)
            results.append(
                (
                    system.stats.total_sent,
                    tuple(sorted(system.leaders().items())),
                    tuple(sh.algorithm.receiving_round for sh in system.shells),
                )
            )
        assert results[0] == results[1]

    def test_finish_notifies_processes(self):
        system = build()
        system.run_until(5.0)
        system.finish()  # must not raise


class TestCrashInjection:
    def test_crash_happens_at_scheduled_time(self):
        system = build(fault_plan=FaultPlan.crashes({2: 3.0}))
        system.run_until(2.9)
        assert not system.shell(2).crashed
        system.run_until(3.1)
        assert system.shell(2).crashed
        assert system.shell(2).crash_time == pytest.approx(3.0)

    def test_alive_and_correct_helpers(self):
        system = build(fault_plan=FaultPlan.crashes({2: 3.0}))
        system.run_until(5.0)
        alive_ids = [shell.pid for shell in system.alive_shells()]
        assert 2 not in alive_ids
        assert system.correct_ids() == [0, 1, 3]
        assert [s.pid for s in system.correct_shells()] == [0, 1, 3]


class TestLeaderHelpers:
    def test_leaders_returns_output_per_alive_process(self):
        system = build()
        system.run_until(20.0)
        leaders = system.leaders()
        assert set(leaders) == {0, 1, 2, 3}
        assert all(0 <= leader < 4 for leader in leaders.values())

    def test_agreed_leader_when_unanimous(self):
        system = build()
        system.run_until(30.0)
        agreed = system.agreed_leader()
        assert agreed is not None
        assert agreed in range(4)

    def test_algorithms_accessor(self):
        system = build()
        algorithms = system.algorithms()
        assert set(algorithms) == {0, 1, 2, 3}
        assert all(isinstance(a, Figure3Omega) for a in algorithms.values())


class _Named(Process, LeaderOracle):
    """An oracle that always names *answer*."""

    def __init__(self, answer):
        self.answer = answer

    def on_message(self, env, sender, message):
        pass

    def leader(self):
        return self.answer


class _NotAnOracle(Process):
    def on_message(self, env, sender, message):
        pass


class TestLeaderLookups:
    """Leader helpers ask each shell's current incarnation, resolved once per
    incarnation, and skip a process that is no oracle."""

    def build(self):
        built = {0: 0, 1: 0}

        def factory(pid):
            if pid == 2:
                return _NotAnOracle()
            built[pid] += 1
            # Process 1's second incarnation names itself.
            return _Named(1 if (pid, built[pid]) == (1, 2) else 0)

        plan = FaultPlan([Crash(time=1.0, pid=1), Recover(time=2.0, pid=1)])
        return System(SystemConfig(n=3, t=1), factory, ConstantDelay(0.2), fault_plan=plan)

    def test_a_process_that_is_no_oracle_is_skipped(self):
        system = self.build()
        system.run_until(0.5)
        assert system.leaders() == {0: 0, 1: 0}
        assert system.leaders(only_alive=False) == {0: 0, 1: 0}
        assert system.agreed_leader() == 0

    def test_a_crashed_process_is_skipped_by_the_alive_views(self):
        system = self.build()
        system.run_until(1.5)
        assert system.leaders() == {0: 0}
        assert system.leaders(only_alive=False) == {0: 0, 1: 0}
        assert system.agreed_leader() == 0

    def test_after_a_recover_the_new_incarnation_answers(self):
        system = self.build()
        system.run_until(2.5)
        assert system.shell(1).recoveries == 1
        assert system.shell(1).algorithm.answer == 1
        assert system.leaders() == {0: 0, 1: 1}
        assert system.agreed_leader() is None  # 0 and 1 now disagree
