"""Property-based tests (hypothesis) for the sharded service layer.

Three system-level properties over randomised workloads and seeds:

* **replica agreement**: after a random workload drains, every correct replica of
  every shard holds the identical KeyValueStore state;
* **exactly-once**: counters equal the number of *distinct* increment commands,
  whatever duplication the clients (retransmissions through several gateways) and
  the leaders (overlapping batches, leader changes, crashes) introduced;
* **forwarding liveness**: a command handed once to a follower gateway — no
  client retransmission behind it — is applied exactly once on every correct
  replica whatever a restarting follower, a crashing leader and lossy gateway
  links do to the ``Forward`` that carried it (the re-send rule of the command
  path is what this rests on).
"""

from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Command
from repro.service import build_sharded_service, generate_commands, zipfian_workload
from repro.simulation import Crash, FaultPlan, LinkFault, Recover

#: Keys shared by every generated increment (hot keys maximise collisions).
COUNTER_KEYS = ["c0", "c1", "c2"]


def drain(service, expected, horizon=800.0, step=25.0, start=0.0):
    time = start
    while time < horizon:
        time += step
        service.run_until(time)
        if service.total_applied() >= expected and service.is_consistent():
            return True
    return False


class TestShardedReplicaAgreement:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        num_commands=st.integers(min_value=10, max_value=60),
        batch_size=st.sampled_from([1, 4, 8]),
    )
    def test_all_replicas_of_every_shard_apply_identical_states(
        self, seed, num_commands, batch_size
    ):
        service = build_sharded_service(
            num_shards=2, n=3, t=1, seed=seed, batch_size=batch_size
        )
        commands = generate_commands(
            zipfian_workload(num_keys=16),
            num_commands=num_commands,
            num_clients=8,
            rng=service.rng("prop", seed),
        )
        for index, command in enumerate(commands):
            service.submit(command, gateway=index % service.n)
        assert drain(service, len(commands)), "workload did not drain"
        for shard in range(service.num_shards):
            assert len(set(service.state_digests(shard))) == 1
        assert service.total_applied() == len(commands)


class TestExactlyOnce:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        increments=st.integers(min_value=4, max_value=24),
        duplication=st.integers(min_value=1, max_value=3),
    )
    def test_duplicated_submissions_apply_once(self, seed, increments, duplication):
        """Each distinct increment is submitted through *duplication* gateways
        (client retries); the counters must count each identity exactly once."""
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=seed, batch_size=4)
        commands = [
            Command.incr(f"client-{index % 4}", index // 4 + 1, COUNTER_KEYS[index % 3])
            for index in range(increments)
        ]
        for index, command in enumerate(commands):
            for gateway in range(duplication):
                service.submit(command, gateway=(index + gateway) % service.n)
        assert drain(service, len(commands)), "workload did not drain"
        machine = service.reference_replica(0).state_machine
        expected = {key: 0 for key in COUNTER_KEYS}
        for command in commands:
            expected[command.key] += 1
        for key, count in expected.items():
            assert machine.get(key, 0) == count
        assert machine.applied == len(commands)
        assert len(set(service.state_digests(0))) == 1

    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        crash_time=st.floats(min_value=10.0, max_value=80.0),
    )
    def test_exactly_once_survives_a_leader_crash(self, seed, crash_time):
        """Retried increments across a mid-run crash (forcing a leader change at
        the affected shard) still apply exactly once."""
        # Crash the current-leader candidate pid 1 (centre 0 is protected).
        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=seed, batch_size=4,
            fault_plan_factory=lambda shard: FaultPlan.crashes({1: crash_time}),
        )
        commands = [Command.incr("hot-client", s, "c0") for s in range(1, 13)]
        # Submit everything twice, through both surviving gateways.
        for command in commands:
            service.submit(command, gateway=0)
            service.submit(command, gateway=2)
        assert drain(service, len(commands)), "workload did not drain"
        machine = service.reference_replica(0).state_machine
        assert machine.get("c0") == len(commands)
        assert machine.applied == len(commands)
        assert len(set(service.state_digests(0))) == 1


class TestForwardingLiveness:
    """Liveness of forward-once: only the gateway's own re-sends (on a leader
    change, or ``retry_period`` after the last full send) stand between a lost
    ``Forward`` and a command that is never ordered."""

    #: The statically restarted replica.  A static plan with a recovery is also
    #: what turns Omega's round re-sync on, which the injected leader crash needs.
    RESTARTED = 1

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        restart_at=st.floats(min_value=50.0, max_value=120.0),
        restart_down=st.floats(min_value=10.0, max_value=60.0),
        crash_leader=st.booleans(),
        crash_gap=st.floats(min_value=5.0, max_value=60.0),
        crash_down=st.floats(min_value=20.0, max_value=120.0),
        loss=st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    )
    def test_commands_through_a_follower_gateway_apply_exactly_once(
        self, seed, restart_at, restart_down, crash_leader, crash_gap, crash_down, loss
    ):
        service = build_sharded_service(
            num_shards=1, n=3, t=1, seed=seed, batch_size=4, stable_storage=True,
            fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
                [self.RESTARTED], start=restart_at, downtime=restart_down
            ),
        )
        system = service.systems[0]
        start = 30.0
        service.run_until(start)
        while system.agreed_leader() is None:
            start += 1.0
            service.run_until(start)
        # The gateway is a follower now and is never taken down (its pending set
        # is volatile by design); every other replica is fair game.
        gateway = next(pid for pid in (0, 2) if pid != system.agreed_leader())
        crash_at = restart_at + restart_down + crash_gap  # at most t=1 down at once
        faults_end = crash_at + crash_down
        if loss:
            for dest in range(service.n):
                if dest != gateway:
                    system.inject_fault(
                        LinkFault(time=start, sender=gateway, dest=dest,
                                  loss_probability=loss, until=faults_end)
                    )

        def crash_current_leader():
            victim = system.agreed_leader()
            if victim is None or victim == gateway:
                if service.now < faults_end - 5.0:
                    service.scheduler.schedule_after(1.0, crash_current_leader)
                return
            system.inject_fault(Crash(time=service.now, pid=victim))
            system.inject_fault(Recover(time=faults_end, pid=victim))

        if crash_leader:
            service.scheduler.schedule_at(crash_at, crash_current_leader)

        waves, per_wave = 6, 4
        commands = [
            Command.incr(f"client-{index % 3}", index // 3 + 1, COUNTER_KEYS[index % 3])
            for index in range(waves * per_wave)
        ]
        # Waves land before, inside and after every fault window.
        spacing = (faults_end + 10.0 - start) / waves
        for wave in range(waves):
            service.run_until(start + wave * spacing)
            for command in commands[wave * per_wave:(wave + 1) * per_wave]:
                service.submit(command, gateway=gateway)

        # Drain from past the last recovery, so all three replicas are judged.
        assert drain(
            service, len(commands), horizon=faults_end + 600.0, start=faults_end + 10.0
        ), "a command forwarded once was never applied"
        replicas = service.correct_replicas(0)
        assert len(replicas) == service.n
        for replica in replicas:
            machine = replica.state_machine
            assert machine.applied == len(commands)
            for key in COUNTER_KEYS:
                assert machine.get(key, 0) == len(commands) // len(COUNTER_KEYS)
