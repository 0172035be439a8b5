"""Unit tests for the system builder (wiring, crash injection, leader helpers)."""

import pytest

from repro.core import Figure3Omega, OmegaConfig
from repro.simulation import (
    ConstantDelay,
    FaultPlan,
    System,
    SystemConfig,
    UniformDelay,
)
from repro.util.rng import RandomSource


def build(n=4, t=1, seed=0, fault_plan=None, start_jitter=0.0, delay=None):
    config = SystemConfig(n=n, t=t, seed=seed, start_jitter=start_jitter)
    omega_config = OmegaConfig()

    def factory(pid):
        return Figure3Omega(pid=pid, n=n, t=t, config=omega_config)

    delay_model = delay if delay is not None else ConstantDelay(0.2)
    return System(config, factory, delay_model, fault_plan=fault_plan)


class TestConfigValidation:
    def test_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            SystemConfig(n=1, t=0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            SystemConfig(n=3, t=1, start_jitter=-1.0)

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

    def test_start_jitter_delays_starts_deterministically(self):
        system_a = build(seed=3, start_jitter=2.0)
        system_b = build(seed=3, start_jitter=2.0)
        system_a.run_until(5.0)
        system_b.run_until(5.0)
        assert system_a.stats.total_sent == system_b.stats.total_sent

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
