#!/usr/bin/env python
"""Split brain, heal and rolling restart on the sharded key-value store.

Three shards (each an independent 3-replica Omega + consensus group on one
virtual clock) serve closed-loop clients while a composed fault plan runs:

* at t=60 each shard suffers a **split brain**: one follower replica is
  partitioned away from the majority side (which keeps the shard's star centre,
  so the majority keeps electing a leader and committing);
* at t=140 the partition **heals**; the isolated replica catches up through the
  log's catch-up protocol and the shard re-elects a single leader;
* from t=200 a **rolling restart** takes the other follower down and brings it
  back from its initial state — it too must catch up.

While the partition is in force the demo prints the leader *per reachable
component* (the partition-aware election metric): global agreement is impossible
by construction, but each component settles internally.  At the end every
replica of every shard — including the once-isolated and the restarted ones —
must hold the identical store.

Run with:  python examples/partition_demo.py [--quick]
"""

import argparse

from repro.analysis import record_run
from repro.analysis.metrics import component_agreed_leaders, reachable_components
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import FaultPlan
from repro.util.tables import format_table

SHARDS = 3
N, T = 3, 1
PARTITION_AT, HEAL_AT = 60.0, 140.0
RESTART_AT, DOWNTIME = 200.0, 30.0
HORIZON = 400.0


def shard_fault_plan(shard: int) -> FaultPlan:
    """Split brain + heal + rolling restart, avoiding the shard's star centre.

    The default scenario of shard ``s`` has centre ``s % N``; isolating or
    restarting a *follower* keeps the assumption (and therefore liveness on the
    majority side) intact — ``ShardedService.assumption_violations`` stays empty.
    """
    center = shard % N
    isolated = (center + 1) % N
    restarted = (center + 2) % N
    plan = FaultPlan.split_brain([[isolated]], at=PARTITION_AT, heal_at=HEAL_AT)
    plan.extend(
        FaultPlan.rolling_restarts([restarted], start=RESTART_AT, downtime=DOWNTIME).events
    )
    return plan


def describe_components(service) -> str:
    """Per-shard reachable components with the leader each one agrees on."""
    parts = []
    for shard, system in enumerate(service.systems):
        components = reachable_components(system)
        leaders = component_agreed_leaders(system)
        rendered = " | ".join(
            f"{component}->p{leader}" if leader is not None else f"{component}->split"
            for component, leader in zip(components, leaders)
        )
        parts.append(f"shard{shard}: {rendered}")
    return "   ".join(parts)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer clients / smaller keyspace (CI smoke)"
    )
    args = parser.parse_args()
    num_clients = 12 if args.quick else 60
    num_keys = 32 if args.quick else 128

    service = build_sharded_service(
        num_shards=SHARDS,
        n=N,
        t=T,
        seed=7,
        batch_size=8,
        fault_plan_factory=shard_fault_plan,
    )
    assert all(not v for v in service.assumption_violations.values()), (
        "the demo plan must keep every shard's assumption intact"
    )
    clients = start_clients(
        service,
        num_clients=num_clients,
        workload_factory=lambda i: zipfian_workload(num_keys=num_keys, read_fraction=0.4),
        record_history=True,
    )
    print(f"{SHARDS} shards x {N} replicas, {num_clients} closed-loop clients")
    print(f"fault plan per shard (shard 0): {shard_fault_plan(0).describe()}")
    print()

    for checkpoint in (50.0, 100.0, 160.0, 220.0, 260.0, HORIZON):
        service.run_until(checkpoint)
        phase = (
            "partitioned"
            if PARTITION_AT <= checkpoint < HEAL_AT
            else "restarting"
            if RESTART_AT <= checkpoint < RESTART_AT + DOWNTIME
            else "healthy"
        )
        print(f"t={checkpoint:>5} [{phase:>11}] {describe_components(service)}")

    print()
    rows = []
    converged = True
    for shard in range(SHARDS):
        digests = service.state_digests(shard, correct_only=False)
        unique = len(set(digests))
        converged = converged and unique == 1
        leader = service.systems[shard].agreed_leader()
        converged = converged and leader is not None
        rows.append(
            [
                shard,
                leader if leader is not None else "SPLIT",
                service.applied_commands(shard),
                f"{unique}/{len(digests)}",
                "yes" if unique == 1 else "NO (BUG!)",
            ]
        )
    print(
        format_table(
            ["shard", "leader", "applied", "distinct digests", "converged"],
            rows,
            title="Post-heal state (every replica, including restarted ones)",
        )
    )
    print()
    record = record_run(service, clients, duration=HORIZON)
    print(
        f"throughput: {record.throughput:.2f} commands/time-unit, "
        f"latency p50={record.latency['p50']:.1f} p95={record.latency['p95']:.1f}, "
        f"{record.retries} client retransmissions (all deduplicated)"
    )
    print(f"single leader re-elected per shard and all replicas identical: {converged}")
    if not converged:
        raise SystemExit("post-heal convergence FAILED")


if __name__ == "__main__":
    main()
