"""Integration tests for the sharded service (acceptance criteria of E10).

The headline property: with >= 4 shards multiplexed on one scheduler, every
replica of every shard applies the identical KeyValueStore state for a
1000-command zipfian workload — in a failure-free run and in a run with ``t``
crashes per shard.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_consensus_system, build_omega_system
from repro.analysis import record_run
from repro.assumptions import ConstantDelayScenario
from repro.core import Figure1Omega, Figure2Omega, Figure3Omega
from repro.service import (
    Command,
    ServiceSpec,
    ShardedService,
    build_service,
    build_sharded_service,
    generate_commands,
    start_clients,
    start_workload,
    uniform_workload,
    zipfian_workload,
)
from repro.simulation.adversary import ADVERSARIES, ChurnAdversary
from repro.storage import CompactionPolicy, WriteCostModel

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
        record = record_run(service, duration=completion)
        assert record.commands_per_instance > 1.0
        assert record.ok

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

    @pytest.mark.parametrize("gateway", [-1, 3])
    def test_a_gateway_outside_the_replicas_is_rejected(self, gateway):
        # -1 used to enter silently through replica n-1, and n raised a bare
        # IndexError; None still means "first alive".
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=4, leases=True)
        with pytest.raises(ValueError, match="gateway"):
            service.submit(Command.put("a", 1, "k", "v"), gateway=gateway)
        with pytest.raises(ValueError, match="gateway"):
            service.submit_read(Command.get("a", 2, "k"), gateway=gateway)
        service.submit(Command.put("a", 3, "k", "w"), gateway=None)
        service.run_until(60.0)
        replica = service.reference_replica(0)
        assert not replica.command_applied("a", 1)
        assert replica.command_applied("a", 3)

    @pytest.mark.parametrize(
        "command",
        [
            Command("c", 1, "frobnicate", "k"),
            Command("c", 1, "put", "k", ()),
            Command("c", 1, "cas", "k", ("expected",)),
            Command("c", 1, "get", "k", ("extra",)),
        ],
        ids=["unknown-op", "put-without-value", "cas-with-one-arg", "get-with-an-arg"],
    )
    def test_a_command_the_store_cannot_run_is_rejected_at_submit(self, command):
        # Accepted, it used to be decided and then raise out of every
        # replica's apply, ending the run.
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=7, leases=True)
        service.run_until(5.0)
        with pytest.raises(ValueError):
            service.submit(command, gateway=0)
        if command.op == "get":
            with pytest.raises(ValueError):
                service.submit_read(command, gateway=0)
        service.submit(Command.put("c", 2, "k", "v"), gateway=0)
        service.run_until(60.0)
        assert service.now == 60.0
        replica = service.reference_replica(0)
        assert not replica.command_applied("c", 1)
        assert replica.command_applied("c", 2)

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
        # Replica states are compared only once the log has drained: with
        # clients busy to the horizon a Decide can still be in flight at
        # t=300 (one replica a position behind), which is not divergence.
        # Stopping the clients 20 vt early lets every correct replica converge.
        clients = start_clients(
            service,
            num_clients=20,
            workload_factory=lambda i: zipfian_workload(num_keys=32),
            record_history=True,
            stop_at=280.0,
        )
        service.run_until(300.0)
        record = record_run(service, clients, duration=300.0)
        assert record.completed > 100
        assert record.ok
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
        assert len(applied_identities) == sum(record.applied)


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

    def test_recovered_replica_starts_a_fresh_adaptive_policy(self):
        """Each log incarnation builds its own batch policy: a recovered
        replica's EWMA starts from the initial value, never from the dead
        incarnation's backlog history."""
        from repro.simulation import FaultPlan

        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=6, batch_size="adaptive",
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [1], start=10.0, downtime=15.0
            ),
        )
        service.run_until(5.0)
        dead = service.replicas(0)[1]
        dead.log._batch_policy.observe(40)
        service.run_until(30.0)  # crash at 10, recover at 25
        recovered = service.replicas(0)[1]
        assert recovered is not dead
        # A fresh EWMA answers a 40-deep backlog with 21; the dead one, 31.
        assert recovered.log._batch_policy.observe(40) == 21
        assert dead.log._batch_policy.observe(40) == 31

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

    @pytest.mark.parametrize("omega_cls", [Figure1Omega, Figure2Omega])
    def test_unbounded_timeout_oracles_stay_unpaced(self, omega_cls):
        """Figures 1-2 grow a crashed process's level — hence the line-11
        timeout — for ever; pacing ALIVEs to it would unbound task T1's
        period, so the service must leave those oracles on the paper's T1."""
        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=1, omega_cls=omega_cls
        )
        assert not any(r.omega.config.pace_alive for r in service.replicas(0))

    def test_figure3_oracles_are_paced(self):
        # Theorem 4 bounds Figure 3's timeouts, so the default oracle is paced.
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=1)
        assert all(r.omega.config.pace_alive for r in service.replicas(0))

    @pytest.mark.parametrize("omega_cls", [Figure1Omega, Figure2Omega, Figure3Omega])
    def test_every_oracle_class_runs_quiet_rounds(self, omega_cls):
        # An empty SUSPICION is a no-op under every figure, so — unlike
        # pacing — the service switches quiet rounds on unconditionally.
        service = build_sharded_service(
            num_shards=2, n=3, t=1, seed=1, omega_cls=omega_cls
        )
        for shard in range(2):
            assert all(r.omega.config.quiet_rounds for r in service.replicas(shard))

    def test_omega_only_builders_keep_the_papers_line_10(self):
        scenario = ConstantDelayScenario(n=3, t=1)
        omega = build_omega_system(3, 1, scenario)
        consensus = build_consensus_system(3, 1, scenario)
        assert not any(a.config.quiet_rounds for a in omega.algorithms().values())
        assert not any(
            a.omega.config.quiet_rounds for a in consensus.algorithms().values()
        )


_finite = dict(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.1, max_value=1e4, **_finite)
#: Every field of the spec; ``stop_at`` is drawn as a fraction of the horizon.
_spec_kwargs = st.fixed_dictionaries(
    dict(
        n=st.integers(1, 9),
        t=st.integers(0, 4),
        num_shards=st.integers(1, 16),
        horizon=_positive,
        num_clients=st.integers(1, 64),
        num_keys=st.integers(1, 256),
        seed=st.integers(0, 2**31),
        batch_size=st.integers(1, 64) | st.just("adaptive"),
        drive_period=_positive,
        retry_period=_positive,
        storage_write_cost=st.none() | st.floats(min_value=0.0, max_value=5.0, **_finite),
        compaction_interval=st.none() | st.integers(1, 256),
        compaction_retain=st.integers(0, 64),
        leases=st.booleans(),
        lease_duration=_positive,
        lease_validation=st.booleans(),
        scenario=st.sampled_from(["star", "constant"]),
        delay=_positive,
        adversary=st.sampled_from((None,) + ADVERSARIES),
        adversary_period=_positive,
        stop_at=st.none() | st.floats(min_value=0.01, max_value=1.0, **_finite),
        read_fraction=st.floats(min_value=0.0, max_value=1.0, **_finite),
        zipf_theta=st.none() | st.floats(min_value=0.1, max_value=2.0, **_finite),
        poll_interval=_positive,
        retry_timeout=_positive,
    )
)

#: A small valid spec the rejection cases each break in one place.
VALID = ServiceSpec(n=3, t=1, num_shards=2, horizon=60.0, num_clients=3, num_keys=8)


class TestServiceSpec:
    @given(kwargs=_spec_kwargs)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_through_json(self, kwargs):
        assert set(kwargs) == {field.name for field in dataclasses.fields(ServiceSpec)}
        if kwargs["stop_at"] is not None:
            kwargs["stop_at"] *= kwargs["horizon"]
        spec = ServiceSpec(**kwargs)
        data = json.loads(json.dumps(spec.to_dict()))
        assert ServiceSpec.from_dict(data) == spec

    def test_invalid_values_are_rejected(self):
        for change in (
            dict(num_shards=0),
            dict(horizon=0.0),
            dict(horizon=-1.0),
            dict(horizon=float("nan")),
            dict(num_clients=0),
            dict(stop_at=0.0),
            dict(stop_at=60.5),
            dict(storage_write_cost=-0.1),
            dict(storage_write_cost=float("nan")),
            dict(scenario="ring"),
            dict(adversary="gremlin"),
            dict(batch_size=0),
            dict(batch_size="adaptve"),
        ):
            with pytest.raises(ValueError):
                dataclasses.replace(VALID, **change)
            with pytest.raises(ValueError):
                ServiceSpec.from_dict({**VALID.to_dict(), **change})

    def test_unknown_field_is_rejected(self):
        # The retired spellings among them: an artifact written for one of the
        # two old specs must fail loudly, not load with a default in its place.
        for name in (
            "bogus",
            "quiesce_at",
            "stable_storage",
            "compaction",
            "clients_per_shard",
            "storage_cost",
            "fault_plans",
        ):
            with pytest.raises(ValueError, match=f"unknown.*{name}"):
                ServiceSpec.from_dict({**VALID.to_dict(), name: None})
        with pytest.raises(ValueError, match="must be a dict"):
            ServiceSpec.from_dict([("n", 3)])

    def test_missing_required_field_is_rejected(self):
        data = VALID.to_dict()
        del data["num_keys"], data["horizon"]
        with pytest.raises(ValueError, match=r"missing.*\['horizon', 'num_keys'\]"):
            ServiceSpec.from_dict(data)

    @pytest.mark.parametrize(
        "changes, keywords, workload",
        [
            (
                dict(
                    batch_size=4,
                    storage_write_cost=0.2,
                    compaction_interval=16,
                    compaction_retain=4,
                    leases=True,
                    zipf_theta=0.9,
                    read_fraction=0.8,
                    poll_interval=0.5,
                ),
                dict(
                    batch_size=4,
                    stable_storage=WriteCostModel(per_write=0.2),
                    compaction=CompactionPolicy(interval=16, retain=4),
                    leases=True,
                ),
                lambda: zipfian_workload(8, theta=0.9, read_fraction=0.8),
            ),
            (
                dict(
                    scenario="constant",
                    delay=0.7,
                    storage_write_cost=0.0,
                    adversary="churn",
                    stop_at=45.0,
                    poll_interval=0.5,
                ),
                dict(
                    scenario_factory=lambda shard: ConstantDelayScenario(3, 1, delay=0.7),
                    stable_storage=True,
                    adversary=ChurnAdversary(downtime=8.0, period=15.0, stop=45.0),
                ),
                lambda: uniform_workload(8),
            ),
        ],
        ids=["star+charged-storage+compaction+leases", "constant+free-storage+adversary"],
    )
    def test_build_service_builds_what_the_same_keywords_build(
        self, changes, keywords, workload
    ):
        spec = dataclasses.replace(VALID, seed=17, **changes)
        described = build_service(spec)
        start_workload(described, spec)
        spelled_out = ShardedService(num_shards=2, n=3, t=1, seed=17, **keywords)
        start_clients(
            spelled_out,
            num_clients=3,
            workload_factory=lambda index: workload(),
            poll_interval=0.5,
            stop_at=spec.stop_at,
        )
        for service in (described, spelled_out):
            service.run_until(spec.horizon)
        assert described.total_applied() > 0
        assert described.counters() == spelled_out.counters()
        for shard in range(2):
            assert described.state_digests(shard) == spelled_out.state_digests(shard)
