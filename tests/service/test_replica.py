"""Tests for the service replica: delivered log prefix -> state machine."""

import pytest

from repro.assumptions import IntermittentRotatingStarScenario
from repro.consensus.commands import Batch, Command
from repro.consensus.messages import Decide
from repro.service.replica import ServiceReplica
from repro.simulation.system import System, SystemConfig
from repro.testing import FakeEnvironment


def make_replica(pid=0, n=3, t=1, **kwargs):
    replica = ServiceReplica(pid=pid, n=n, t=t, **kwargs)
    env = FakeEnvironment(pid=pid, n=n)
    replica.on_start(env)
    return replica, env


def decide(replica, env, instance, value):
    replica.on_message(env, 0, Decide(instance=instance, value=value))


class TestApplication:
    def test_decided_commands_reach_the_state_machine_in_order(self):
        replica, env = make_replica()
        decide(replica, env, 0, Command.put("a", 1, "x", "1"))
        decide(replica, env, 1, Command.incr("a", 2, "c", 3))
        assert replica.state_machine.get("x") == "1"
        assert replica.state_machine.get("c") == 3
        assert replica.commands_delivered == 2

    def test_batches_are_flattened(self):
        replica, env = make_replica()
        batch = Batch(
            commands=(Command.incr("a", 1, "c"), Command.incr("b", 1, "c"))
        )
        decide(replica, env, 0, batch)
        assert replica.state_machine.get("c") == 2
        assert replica.commands_delivered == 2

    def test_application_waits_for_contiguity(self):
        replica, env = make_replica()
        decide(replica, env, 1, Command.put("a", 1, "x", "late"))
        assert replica.state_machine.get("x") is None
        decide(replica, env, 0, Command.put("b", 1, "y", "early"))
        assert replica.state_machine.get("x") == "late"
        assert replica.state_machine.get("y") == "early"

    def test_duplicate_decision_across_positions_absorbed(self):
        replica, env = make_replica()
        command = Command.incr("a", 1, "c")
        decide(replica, env, 0, command)
        decide(replica, env, 1, command)
        assert replica.state_machine.get("c") == 1
        assert replica.state_machine.duplicates_skipped == 1

    def test_submit_command_rejects_raw_values(self):
        replica, _ = make_replica()
        with pytest.raises(TypeError):
            replica.submit_command("raw")

    def test_command_applied_queries_the_session_table(self):
        replica, env = make_replica()
        assert not replica.command_applied("a", 1)
        decide(replica, env, 0, Command.put("a", 1, "x", "1"))
        assert replica.command_applied("a", 1)

    def test_decided_value_count_excludes_noops(self):
        from repro.consensus.replicated_log import NOOP

        replica, env = make_replica()
        decide(replica, env, 0, Command.put("a", 1, "x", "1"))
        decide(replica, env, 1, NOOP)
        assert replica.log.decided_value_count == 1


class TestSimulatedGroup:
    def test_single_group_replicates_submitted_commands(self):
        n, t = 3, 1
        scenario = IntermittentRotatingStarScenario(n=n, t=t, center=0, seed=5, max_gap=4)

        def factory(pid):
            return ServiceReplica(
                pid=pid, n=n, t=t,
                omega_config=scenario.recommended_omega_config(), batch_size=4,
            )

        system = System(
            config=SystemConfig(n=n, t=t, seed=5),
            process_factory=factory,
            delay_model=scenario.build_delay_model(),
        )
        commands = [Command.incr(f"client-{i}", 1, "counter") for i in range(6)]
        for index, command in enumerate(commands):
            system.shells[index % n].algorithm.submit_command(command)
        system.run_until(200.0)
        machines = [shell.algorithm.state_machine for shell in system.shells]
        assert all(machine.get("counter") == 6 for machine in machines)
        assert len({machine.digest() for machine in machines}) == 1
