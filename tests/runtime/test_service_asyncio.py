"""Smoke test: the key-value service replica runs unchanged on the asyncio runtime.

The algorithm objects are runtime-agnostic; this exercises the whole
Omega + consensus + state-machine stack under real (scaled) wall-clock time and
checks that every node converges to the same store.
"""

import asyncio

from repro.consensus.commands import Command
from repro.core import OmegaConfig
from repro.runtime import AsyncioCluster
from repro.service import ServiceReplica
from repro.simulation.delays import ConstantDelay


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


class TestServiceOnAsyncio:
    def test_replicas_converge_to_the_same_store(self):
        n, t = 3, 1
        config = OmegaConfig(alive_period=1.0, timeout_unit=1.0)

        def factory(pid):
            return ServiceReplica(
                pid=pid, n=n, t=t, omega_config=config,
                drive_period=2.0, retry_period=8.0, batch_size=4,
            )

        cluster = AsyncioCluster(
            n=n,
            t=t,
            algorithm_factory=factory,
            delay_model=ConstantDelay(0.1),
            time_scale=0.002,
            seed=3,
        )
        commands = [
            Command.put("alice", 1, "greeting", "hello"),
            Command.incr("alice", 2, "visits"),
            Command.incr("bob", 1, "visits"),
            Command.put("bob", 2, "greeting", "ciao"),
        ]
        for index, command in enumerate(commands):
            cluster.nodes[index % n].algorithm.submit(command)

        async def scenario():
            await cluster.run(duration=160.0)

        run(scenario())
        machines = [node.algorithm.state_machine for node in cluster.nodes]
        assert all(machine.applied == len(commands) for machine in machines)
        assert all(machine.get("visits") == 2 for machine in machines)
        assert all(machine.get("greeting") == "ciao" or machine.get("greeting") == "hello"
                   for machine in machines)
        assert len({machine.digest() for machine in machines}) == 1
