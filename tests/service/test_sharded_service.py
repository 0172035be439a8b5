"""Integration tests for the sharded service (acceptance criteria of E10).

The headline property: with >= 4 shards multiplexed on one scheduler, every
replica of every shard applies the identical KeyValueStore state for a
1000-command zipfian workload — in a failure-free run and in a run with ``t``
crashes per shard.
"""

import pytest

from repro.analysis import summarize_service
from repro.service import (
    Command,
    build_sharded_service,
    generate_commands,
    start_clients,
    zipfian_workload,
)

HORIZON = 900.0
CHECK_INTERVAL = 25.0


def drain(service, commands, horizon=HORIZON):
    """Submit *commands* up front and run until all applied everywhere."""
    for index, command in enumerate(commands):
        service.submit(command, gateway=index % service.n)
    expected = len(commands)
    time = 0.0
    while time < horizon:
        time += CHECK_INTERVAL
        service.run_until(time)
        if service.total_applied() >= expected and service.is_consistent():
            return time
    return None


class TestAcceptanceWorkload:
    @pytest.mark.parametrize("crashes_per_shard", [0, 1])
    def test_1k_zipfian_commands_on_4_shards_converge(self, crashes_per_shard):
        service = build_sharded_service(
            num_shards=4,
            n=3,
            t=1,
            seed=20 + crashes_per_shard,
            batch_size=8,
            crashes_per_shard=crashes_per_shard,
            crash_horizon=100.0,
        )
        commands = generate_commands(
            zipfian_workload(num_keys=128),
            num_commands=1000,
            num_clients=100,
            rng=service.rng("acceptance"),
        )
        completion = drain(service, commands)
        assert completion is not None, "workload did not drain within the horizon"
        # Every unique command applied exactly once, across all shards.
        assert service.total_applied() == len(commands)
        # Identical state at every correct replica of every shard.
        for shard in range(4):
            digests = service.state_digests(shard)
            assert len(digests) == 3 - crashes_per_shard
            assert len(set(digests)) == 1
        # Batching amortised consensus: strictly more than one command/instance.
        summary = summarize_service(service, duration=completion)
        assert summary.commands_per_instance > 1.0

    def test_crashed_replicas_do_not_block_progress(self):
        service = build_sharded_service(
            num_shards=4, n=3, t=1, seed=77, batch_size=8,
            crashes_per_shard=1, crash_horizon=50.0,
        )
        commands = generate_commands(
            zipfian_workload(num_keys=64),
            num_commands=200,
            num_clients=40,
            rng=service.rng("crashy"),
        )
        assert drain(service, commands) is not None
        service.run_until(max(service.now, 60.0))  # past the crash horizon
        for shard in range(4):
            assert len(service.systems[shard].fault_plan.final_down_ids()) == 1
        assert service.is_consistent()


class TestRoutingAndSubmission:
    def test_commands_land_on_their_home_shard_only(self):
        service = build_sharded_service(num_shards=4, n=3, t=1, seed=9, batch_size=4)
        commands = [Command.put("a", seq, f"key-{seq}", seq) for seq in range(1, 41)]
        homes = {command: service.submit(command) for command in commands}
        service.run_until(150.0)
        for command, home in homes.items():
            for shard in range(4):
                applied = service.reference_replica(shard).command_applied(
                    command.client_id, command.seq
                )
                assert applied == (shard == home)

    def test_submit_falls_back_to_an_alive_gateway(self):
        from repro.simulation import FaultPlan

        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=4, batch_size=4,
            fault_plan_factory=lambda shard: FaultPlan.crashes({1: 5.0}),
        )
        service.run_until(10.0)
        command = Command.put("a", 1, "k", "v")
        service.submit(command, gateway=1)  # crashed gateway
        service.run_until(120.0)
        assert service.reference_replica(0).command_applied("a", 1)

    def test_scenario_shape_validated(self):
        from repro.assumptions import IntermittentRotatingStarScenario
        from repro.service import ShardedService

        with pytest.raises(ValueError, match="shard 0 scenario"):
            ShardedService(
                num_shards=2, n=3, t=1,
                scenario_factory=lambda s: IntermittentRotatingStarScenario(
                    n=5, t=2, center=0, seed=s
                ),
            )


class TestClosedLoopClients:
    def test_clients_commit_and_stay_consistent_under_crashes(self):
        service = build_sharded_service(
            num_shards=2, n=3, t=1, seed=31, batch_size=8,
            crashes_per_shard=1, crash_horizon=60.0,
        )
        clients = start_clients(
            service,
            num_clients=20,
            workload_factory=lambda i: zipfian_workload(num_keys=32),
        )
        service.run_until(300.0)
        summary = summarize_service(service, clients, duration=300.0)
        assert summary.completed > 100
        assert service.is_consistent()
        # Exactly-once held even if clients retransmitted.
        applied_identities = set()
        for shard in range(2):
            applied_identities |= {
                (client, seq)
                for client, seqs in service.reference_replica(shard)
                .state_machine.sessions()
                .items()
                for seq in seqs
            }
        assert len(applied_identities) == summary.committed


class TestFaultPlans:
    def test_correct_replicas_cache_refreshed_after_recover(self):
        """Regression: a Recover event rebuilds the replica's algorithm object;
        a permanent correct_replicas cache would keep handing out the dead
        pre-crash object (PR 2 assumed the correct set was static)."""
        from repro.simulation import FaultPlan

        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=6, batch_size=4,
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [1], start=10.0, downtime=15.0
            ),
        )
        # Recovered processes count as correct (eventually up): all 3 replicas.
        before = service.correct_replicas(0)
        assert len(before) == 3
        stale = before[1]
        service.run_until(30.0)  # crash at 10, recover at 25
        after = service.correct_replicas(0)
        assert len(after) == 3
        assert after[1] is not stale  # fresh incarnation, cache was refreshed
        assert after[1] is service.systems[0].shells[1].algorithm

    def test_recovered_replica_converges_to_shard_state(self):
        from repro.simulation import FaultPlan

        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=13, batch_size=4,
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [1], start=20.0, downtime=20.0
            ),
        )
        commands = [Command.put("c", seq, f"k{seq}", seq) for seq in range(1, 21)]
        for command in commands:
            service.submit(command)
        service.run_until(400.0)
        # The recovered replica restarted from an empty state machine and must
        # have caught up through the replicated log: every replica identical.
        digests = service.state_digests(0, correct_only=False)
        assert len(set(digests)) == 1
        assert service.reference_replica(0).command_applied("c", 20)

    def test_assumption_violations_reported_per_shard(self):
        from repro.simulation import FaultPlan

        # Default scenario of shard 0 has centre 0; permanently crashing it
        # breaks the star assumption and must be reported, not silently run.
        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=2,
            fault_plan_factory=lambda shard: FaultPlan.crashes({0: 10.0}),
        )
        assert service.assumption_violations[0]
        healthy = build_sharded_service(
            num_shards=1, n=3, t=1, seed=2,
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [1], start=10.0, downtime=10.0
            ),
        )
        assert healthy.assumption_violations[0] == []

    def test_round_resync_enabled_only_for_plans_that_need_it(self):
        from repro.simulation import FaultPlan
        from repro.simulation.faults import DEFAULT_ROUND_RESYNC_GAP

        faulty = build_sharded_service(
            num_shards=1, n=3, t=1, seed=1,
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [1], start=10.0, downtime=10.0
            ),
        )
        omega = faulty.replicas(0)[0].omega
        assert omega.config.round_resync_gap == DEFAULT_ROUND_RESYNC_GAP
        # Pure crash-stop plans keep the paper's exact semantics.
        crash_stop = build_sharded_service(
            num_shards=1, n=3, t=1, seed=1,
            fault_plan_factory=lambda shard: FaultPlan.crashes({1: 10.0}),
        )
        assert crash_stop.replicas(0)[0].omega.config.round_resync_gap is None
