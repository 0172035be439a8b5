"""Deterministic one-shot execution of a ``(spec, plan, seed)`` fuzz scenario.

:func:`run_scenario` is the campaign's measurement instrument: it builds a
real :class:`~repro.service.sharding.ShardedService` from a
:class:`~repro.service.sharding.ServiceSpec` (actual Omega elections, actual
consensus, actual clients — no scripted oracles), injects the fault plan,
drives closed-loop clients that record timed operation histories, and returns
the run's :class:`~repro.analysis.service_metrics.RunRecord`.  Its
``violations`` are the record's invariant verdicts — per-position agreement
across every replica incarnation, exactly-once session safety, state-digest
convergence of equally-advanced replicas, durability of acknowledged writes,
stale lease reads — followed by a real Wing–Gong linearizability check of the
merged client history against the key-value specification, which only the
fuzzer runs.  :func:`harvest_features` projects the record onto the
**coverage features** the feedback loop buckets for novelty.

The execution is a pure function of ``(spec, plan, spec.seed)``: equal inputs
produce byte-identical record fingerprints in any process, which is what makes
findings replayable and campaigns worker-count-independent.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

# The record's probes are re-exported under their old names: ``perfbench/``
# runs them on its workloads and imports them from here.
from repro.analysis.service_metrics import (
    RunRecord,
    Violation,
    agreement_violations,
    divergence_violations,
    durability_violations,
    record_run,
    session_violations,
    stale_read_violations,
)
from repro.fuzz.linearizability import check_history
from repro.service.clients import ClosedLoopClient, start_workload
from repro.service.sharding import LEASE_MODE_COUNTERS, ServiceSpec, build_service
from repro.simulation.faults import FaultPlan

#: The fuzz baseline every campaign, witness and test ``dataclasses.replace``-s:
#: one small group under constant delays, two uniform-key clients that stop at
#: 80 so the run quiesces before the horizon, batches of one and a retry
#: timeout short enough to fire inside a fault window.
FUZZ_BASELINE = ServiceSpec(
    n=3,
    t=1,
    num_shards=1,
    horizon=110.0,
    stop_at=80.0,
    num_clients=2,
    num_keys=4,
    batch_size=1,
    retry_timeout=12.0,
    scenario="constant",
)


def linearizability_violations(clients: List[ClosedLoopClient]) -> List[Violation]:
    """Wing–Gong check of the merged client history against the KV spec."""
    merged = [record for client in clients for record in client.history]
    verdict = check_history(merged)
    return [
        Violation(
            kind="linearizability",
            shard=-1,
            detail=f"key {failure.key!r}: {failure.reason}",
        )
        for failure in verdict.failures
    ]


# ------------------------------------------------------------------ feature harvest --
#: The registry counts that are coverage features, under their registry names
#: (plus, in lease mode only, ``LEASE_MODE_COUNTERS``).
_COUNTER_FEATURES = (
    "round_resyncs",
    "suspicions_sent",
    "catchup_polls",
    "catchup_replies",
    "ballots_started",
    "accept_rounds_started",
    "corruption_rejections",
    "snapshots_taken",
    "snapshot_restores",
    "positions_compacted",
    "snapshots_rejected",
)


def harvest_features(record: RunRecord, leases: bool) -> Dict[str, int]:
    """The coverage feature vector of a run (every value a non-negative int).

    Protocol counts come from the record's counter registry fold — registries
    outlive incarnations — so features are monotone over the run regardless
    of restarts: a restart cannot make a campaign believe a behaviour
    disappeared.  The lease counts are features only of a run with *leases*
    on.
    """
    features = {
        "decided_positions": sum(record.instances),
        "applied_commands": sum(record.applied),
        "completed_ops": record.completed,
        "client_retries": record.retries,
        "leader_changes": record.counters.get("leader_changes", 0),
        "recoveries": record.recoveries,
        "messages_dropped": record.messages_dropped,
        "corrupted_messages": record.corrupted_messages,
        "storage_writes": record.storage_writes,
    }
    names = _COUNTER_FEATURES + LEASE_MODE_COUNTERS if leases else _COUNTER_FEATURES
    features.update((name, record.counters.get(name, 0)) for name in names)
    return features


# ------------------------------------------------------------------ the instrument --
def run_scenario(spec: ServiceSpec, plan: FaultPlan) -> RunRecord:
    """Execute one ``(spec, plan)`` pair (*plan* on every shard); pure in
    ``(spec, plan, spec.seed)``."""
    plan.validate(spec.n, spec.t)
    plan_data = plan.to_dict()
    # A fresh deserialization per shard: plans are stateless, but sharing one
    # object across shards would alias the injector bookkeeping.
    service = build_service(
        spec, fault_plan_factory=lambda shard: FaultPlan.from_dict(plan_data)
    )
    clients = start_workload(service, spec, record_history=True)
    service.run_until(spec.horizon)
    record = record_run(service, clients)
    return dataclasses.replace(
        record,
        violations=record.violations + tuple(linearizability_violations(clients)),
    )


__all__ = [
    "FUZZ_BASELINE",
    "Violation",
    "agreement_violations",
    "divergence_violations",
    "durability_violations",
    "harvest_features",
    "linearizability_violations",
    "run_scenario",
    "session_violations",
    "stale_read_violations",
]
