"""Reproduction of *From an intermittent rotating star to a leader*.

The package implements, on top of a deterministic discrete-event simulation of the
asynchronous crash-prone system model ``AS_{n,t}`` used by the paper:

* the paper's eventual-leader (Omega) algorithms — Figure 1, Figure 2, the
  bounded-variable Figure 3 algorithm, and the Section-7 ``A_{f,g}`` generalisation
  (:mod:`repro.core`);
* the behavioural assumptions they rely on — the intermittent rotating t-star and all
  of its special cases (:mod:`repro.assumptions`);
* baseline Omega constructions from the related work (:mod:`repro.baselines`);
* an Omega-based indulgent consensus and replicated log realising Theorem 5
  (:mod:`repro.consensus`);
* fair-lossy links and a reliable-channel stack (:mod:`repro.channels`);
* stable storage for crash-recovery — durable acceptor promises and decided
  prefixes that recovered replicas rehydrate from (:mod:`repro.storage`);
* a client-facing sharded key-value service served by the consensus stack
  (:mod:`repro.service`): a replicated key-value store, batched proposals,
  exactly-once client sessions and workload generators;
* measurement and experiment harnesses (:mod:`repro.analysis`);
* an asyncio real-time runtime for the same algorithm objects (:mod:`repro.runtime`).

Quickstart
----------

>>> from repro import build_omega_system, IntermittentRotatingStarScenario
>>> scenario = IntermittentRotatingStarScenario(n=5, t=2, center=0, seed=1)
>>> system = build_omega_system(n=5, t=2, scenario=scenario, seed=1)
>>> system.run_until(600.0)
>>> sorted({p.algorithm.leader() for p in system.alive_shells()})
[0]

Service layer
-------------

A sharded key-value store: each shard is an independent Omega+consensus group,
all multiplexed on one virtual clock; clients address keys, commands carry
``(client_id, seq)`` identities and are applied exactly once.

>>> from repro import Command, build_sharded_service
>>> service = build_sharded_service(num_shards=4, n=3, t=1, seed=3, batch_size=8)
>>> service.submit(Command.put("alice", 1, "greeting", "hello"))
3
>>> service.run_until(60.0)  # doctest: +SKIP
>>> service.is_consistent()  # doctest: +SKIP
True
"""

from repro.core import (
    Alive,
    Environment,
    Figure1Omega,
    Figure2Omega,
    Figure3Omega,
    FgOmega,
    LeaderOracle,
    Message,
    OmegaConfig,
    Process,
    Suspicion,
)
from repro.assumptions import (
    AsynchronousAdversaryScenario,
    CombinedMrtScenario,
    EventualTMovingSourceScenario,
    EventualTSourceScenario,
    GrowingStarScenario,
    IntermittentRotatingStarScenario,
    MessagePatternScenario,
    Scenario,
)
from repro.simulation import (
    CorruptLink,
    Crash,
    DelayModel,
    EventScheduler,
    FaultPlan,
    LinkFault,
    Network,
    PartitionHeal,
    PartitionStart,
    Recover,
    SimProcessShell,
    SlowProcess,
    System,
    SystemConfig,
    UniformDelay,
)
from repro.analysis import (
    ExperimentResult,
    LeaderPoller,
    MessageStats,
    RunRecord,
    record_run,
    run_omega_experiment,
)
from repro.consensus import Batch, Command
from repro.storage import StableStorage, StableStore, WriteCostModel
from repro.service import (
    ClosedLoopClient,
    KeyValueStore,
    ServiceReplica,
    ShardedService,
    Workload,
    build_sharded_service,
    start_clients,
    uniform_workload,
    zipfian_workload,
)
from repro.system_builders import build_omega_system, build_consensus_system

__version__ = "1.0.0"

__all__ = [
    # core
    "Alive",
    "Environment",
    "Figure1Omega",
    "Figure2Omega",
    "Figure3Omega",
    "FgOmega",
    "LeaderOracle",
    "Message",
    "OmegaConfig",
    "Process",
    "Suspicion",
    # assumptions
    "AsynchronousAdversaryScenario",
    "CombinedMrtScenario",
    "EventualTMovingSourceScenario",
    "EventualTSourceScenario",
    "GrowingStarScenario",
    "IntermittentRotatingStarScenario",
    "MessagePatternScenario",
    "Scenario",
    # simulation
    "CorruptLink",
    "Crash",
    "DelayModel",
    "EventScheduler",
    "FaultPlan",
    "LinkFault",
    "Network",
    "PartitionHeal",
    "PartitionStart",
    "Recover",
    "SimProcessShell",
    "SlowProcess",
    "System",
    "SystemConfig",
    "UniformDelay",
    # analysis
    "ExperimentResult",
    "LeaderPoller",
    "MessageStats",
    "RunRecord",
    "record_run",
    "run_omega_experiment",
    # storage
    "StableStorage",
    "StableStore",
    "WriteCostModel",
    # service
    "Batch",
    "ClosedLoopClient",
    "Command",
    "KeyValueStore",
    "ServiceReplica",
    "ShardedService",
    "Workload",
    "build_sharded_service",
    "start_clients",
    "uniform_workload",
    "zipfian_workload",
    # builders
    "build_omega_system",
    "build_consensus_system",
    # meta
    "__version__",
]
