"""Deterministic discrete-event simulation of the asynchronous system ``AS_{n,t}``.

The substrate the paper's algorithms run on in this reproduction: a virtual-time
event scheduler, a reliable non-FIFO network with pluggable per-message delay models,
process shells enforcing crash (and crash-recovery) semantics, a composable
fault-plan engine (:mod:`repro.simulation.faults`) with payload corruption
(:mod:`repro.simulation.corruption`), and a system builder tying them together.

Adaptive adversaries — fault drivers that observe the execution and inject
validated faults at run time — live in :mod:`repro.simulation.adversary` and
are imported from there directly (the module reads the analysis-layer metrics
and is therefore not re-exported here).
"""

from repro.simulation.corruption import corrupt_message, corrupt_value
from repro.simulation.faults import (
    CorruptLink,
    Crash,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    LinkFault,
    LinkHeal,
    LinkState,
    PartitionHeal,
    PartitionStart,
    Recover,
    SlowProcess,
)
from repro.simulation.delays import (
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    HeavyTailDelay,
    MessageContext,
    PartiallySynchronousDelay,
    PerLinkDelay,
    TagFilteredDelay,
    UniformDelay,
)
from repro.simulation.events import Event
from repro.simulation.network import Envelope, Network, NetworkStats
from repro.simulation.process import SimProcessShell
from repro.simulation.scheduler import EventScheduler
from repro.simulation.system import ProcessFactory, System, SystemConfig

__all__ = [
    "ConstantDelay",
    "CorruptLink",
    "Crash",
    "DelayModel",
    "Envelope",
    "Event",
    "EventScheduler",
    "ExponentialDelay",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HeavyTailDelay",
    "LinkFault",
    "LinkHeal",
    "LinkState",
    "MessageContext",
    "Network",
    "NetworkStats",
    "PartiallySynchronousDelay",
    "PartitionHeal",
    "PartitionStart",
    "PerLinkDelay",
    "ProcessFactory",
    "Recover",
    "SimProcessShell",
    "SlowProcess",
    "System",
    "SystemConfig",
    "TagFilteredDelay",
    "UniformDelay",
    "corrupt_message",
    "corrupt_value",
]
