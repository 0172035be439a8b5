"""Client-facing sharded key-value service on top of the Omega/consensus stack.

The layering, bottom up:

* :mod:`repro.simulation` / :mod:`repro.runtime` — the execution substrate,
  including the fault-plan engine, payload corruption and the adaptive
  adversaries of :mod:`repro.simulation.adversary`;
* :mod:`repro.core` — the paper's Omega (eventual leader) algorithms;
* :mod:`repro.consensus` — indulgent consensus and the batched replicated log,
  with end-to-end payload integrity (tampered deliveries are rejected at this
  boundary, never applied);
* **this package** — replicated state machines (:mod:`~repro.service.state_machine`),
  service replicas (:mod:`~repro.service.replica`), hash-partitioned shard groups
  (:mod:`~repro.service.sharding`, including ``ShardedService(adversary=...)``
  and :class:`~repro.service.sharding.ServiceSpec`, the one JSON-flat
  description of a run) and client sessions / workload generators
  (:mod:`~repro.service.clients`).
"""

from repro.consensus.commands import Batch, Command, flatten_value
from repro.service.clients import (
    RESULT_UNKNOWN,
    ClientStats,
    ClosedLoopClient,
    OperationRecord,
    UniformKeys,
    Workload,
    ZipfianKeys,
    generate_commands,
    start_clients,
    start_workload,
    uniform_workload,
    zipfian_workload,
)
from repro.service.replica import ServiceReplica
from repro.service.sharding import (
    ServiceSpec,
    ShardRouter,
    ShardedService,
    build_service,
    build_sharded_service,
)
from repro.service.state_machine import KeyValueStore, StateMachine

__all__ = [
    "Batch",
    "ClientStats",
    "ClosedLoopClient",
    "Command",
    "KeyValueStore",
    "OperationRecord",
    "RESULT_UNKNOWN",
    "ServiceReplica",
    "ServiceSpec",
    "ShardRouter",
    "ShardedService",
    "StateMachine",
    "UniformKeys",
    "Workload",
    "ZipfianKeys",
    "build_service",
    "build_sharded_service",
    "flatten_value",
    "generate_commands",
    "start_clients",
    "start_workload",
    "uniform_workload",
    "zipfian_workload",
]
