"""Unit tests for the leader poller and stabilisation metrics."""

import pytest

from repro.analysis.experiments import build_system
from repro.analysis.metrics import (
    LeaderPoller,
    LeaderSample,
    round_clock,
)
from repro.assumptions import EventualTSourceScenario
from repro.core import Figure3Omega


def make_poller_with_samples(samples):
    """Build a LeaderPoller and replace its collected samples (unit-level tests)."""
    scenario = EventualTSourceScenario(n=4, t=1, seed=0)
    system = build_system(scenario, Figure3Omega, seed=0)
    poller = LeaderPoller(system, interval=5.0)
    poller.samples = samples
    return poller


def sample(time, leaders):
    return LeaderSample(time=time, leaders=leaders)


class TestStabilizationTime:
    def test_requires_persistent_agreement_on_same_leader(self):
        poller = make_poller_with_samples(
            [
                sample(5.0, {0: 1, 1: 1, 2: 1}),
                sample(10.0, {0: 2, 1: 2, 2: 2}),
                sample(15.0, {0: 2, 1: 2, 2: 2}),
            ]
        )
        # Agreement held at every sample but the agreed leader changed at t=10:
        # stabilisation is only reached from t=10 on.
        assert poller.stabilization_time([0, 1, 2, 3]) == 10.0

    def test_disagreement_resets(self):
        poller = make_poller_with_samples(
            [
                sample(5.0, {0: 1, 1: 1}),
                sample(10.0, {0: 1, 1: 2}),
                sample(15.0, {0: 2, 1: 2}),
                sample(20.0, {0: 2, 1: 2}),
            ]
        )
        assert poller.stabilization_time([0, 1, 2]) == 15.0

    def test_leader_must_be_correct(self):
        poller = make_poller_with_samples(
            [sample(5.0, {0: 3, 1: 3}), sample(10.0, {0: 3, 1: 3})]
        )
        # Process 3 crashed (not in the correct set): never stabilised.
        assert poller.stabilization_time([0, 1]) is None

    def test_no_samples(self):
        poller = make_poller_with_samples([])
        assert poller.stabilization_time([0, 1]) is None

    def test_final_leader(self):
        poller = make_poller_with_samples(
            [sample(5.0, {0: 1, 1: 2}), sample(10.0, {0: 2, 1: 2})]
        )
        assert poller.final_leader([0, 1]) == 2

    def test_final_leader_disagreement(self):
        poller = make_poller_with_samples([sample(5.0, {0: 1, 1: 2})])
        assert poller.final_leader([0, 1]) is None


class TestLeaderChanges:
    def test_counts_per_process_changes(self):
        poller = make_poller_with_samples(
            [
                sample(5.0, {0: 1, 1: 1}),
                sample(10.0, {0: 2, 1: 1}),
                sample(15.0, {0: 2, 1: 2}),
            ]
        )
        assert poller.leader_changes([0, 1]) == 2

    def test_after_filter(self):
        poller = make_poller_with_samples(
            [
                sample(5.0, {0: 1}),
                sample(10.0, {0: 2}),
                sample(15.0, {0: 3}),
            ]
        )
        assert poller.leader_changes([0], after=12.0) == 1

    def test_ignores_faulty_observers(self):
        poller = make_poller_with_samples(
            [sample(5.0, {0: 1, 3: 1}), sample(10.0, {0: 1, 3: 2})]
        )
        assert poller.leader_changes([0]) == 0


class TestPollingIntegration:
    def test_poller_collects_samples_from_running_system(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        system = build_system(scenario, Figure3Omega, seed=1)
        poller = LeaderPoller(system, interval=10.0)
        system.run_until(95.0)
        assert len(poller.samples) == 9
        assert all(set(s.leaders) == {0, 1, 2, 3} for s in poller.samples)

    def test_interval_validated(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        system = build_system(scenario, Figure3Omega, seed=1)
        with pytest.raises(ValueError):
            LeaderPoller(system, interval=0.0)


class TestRoundClock:
    def test_reads_alive_processes_and_both_spreads(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        system = build_system(scenario, Figure3Omega, seed=1)
        system.run_until(50.0)
        system.shells[3].crash()
        oracles = [shell.algorithm for shell in system.shells[:3]]
        oracles[0].sending_round += 5
        clock = round_clock(system)
        assert clock.rounds == {
            pid: (o.sending_round, o.receiving_round) for pid, o in enumerate(oracles)
        }
        sending = [o.sending_round for o in oracles]
        assert clock.sending_spread == max(sending) - min(sending) >= 5
        assert clock.receive_lag == max(sending) - min(
            o.receiving_round for o in oracles
        )

    def test_no_alive_process(self):
        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        system = build_system(scenario, Figure3Omega, seed=1)
        for shell in system.shells:
            shell.crash()
        clock = round_clock(system)
        assert (clock.rounds, clock.sending_spread, clock.receive_lag) == ({}, 0, 0)


class TestPartitionAwareMetrics:
    def _partitioned_system(self):
        from repro.core import OmegaConfig
        from repro.simulation import ConstantDelay, FaultPlan, System, SystemConfig

        plan = FaultPlan.split_brain([[0, 1]], at=10.0, heal_at=60.0)
        plan.extend(FaultPlan.crashes({3: 20.0}).events)
        return System(
            SystemConfig(n=5, t=1, seed=0),
            lambda pid: Figure3Omega(pid=pid, n=5, t=1, config=OmegaConfig()),
            ConstantDelay(0.2),
            fault_plan=plan,
        )

    def test_single_component_when_no_partition(self):
        from repro.analysis.metrics import reachable_components

        scenario = EventualTSourceScenario(n=4, t=1, seed=1)
        system = build_system(scenario, Figure3Omega, seed=1)
        system.run_until(20.0)
        assert reachable_components(system) == [[0, 1, 2, 3]]

    def test_components_follow_partition_and_crashes(self):
        from repro.analysis.metrics import reachable_components

        system = self._partitioned_system()
        system.run_until(30.0)  # partition active, process 3 crashed
        assert reachable_components(system) == [[0, 1], [2, 4]]
        system.run_until(70.0)  # healed
        assert reachable_components(system) == [[0, 1, 2, 4]]

    def test_component_leaders_and_agreement(self):
        from repro.analysis.metrics import (
            component_agreed_leaders,
            component_leaders,
        )

        system = self._partitioned_system()
        system.run_until(55.0)  # long enough for each side to settle
        per_component = component_leaders(system)
        assert [sorted(outputs) for outputs in per_component] == [[0, 1], [2, 4]]
        agreed = component_agreed_leaders(system)
        assert len(agreed) == 2
