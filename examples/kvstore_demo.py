#!/usr/bin/env python
"""Sharded key-value store served by the Omega/consensus stack.

Three shards (each an independent 3-process Omega + consensus group, all on one
virtual clock) serve 100 closed-loop clients issuing a zipfian read/write mix.
One replica per shard crashes along the way; the intermittent rotating t-star
assumption keeps holding per shard, so every shard keeps committing, clients
fail over and retransmit, and the exactly-once session table absorbs the
duplicates.  At the end every replica of every shard holds the identical store.

Every replica compacts under the default policy, so however long the run the
decided log keeps only the compaction window, while each shard's agreement
monitor checks every decision as a replica learns it.  The demo exits non-zero
unless the replicas are consistent, the agreement monitor found nothing and the
decided log stayed within the window.

Run with:  python examples/kvstore_demo.py [--quick]
"""

import argparse
import sys

from repro.analysis import record_run
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.util.tables import format_table

SHARDS = 3
N, T = 3, 1
CLIENTS = 100
HORIZON = 400.0
#: Decisions a replica may hold above its frontier, learnt out of order.
RESIDENCY_SLACK = 16


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer clients / smaller keyspace (CI smoke)"
    )
    args = parser.parse_args()
    num_clients = 20 if args.quick else CLIENTS
    num_keys = 32 if args.quick else 128

    service = build_sharded_service(
        num_shards=SHARDS,
        n=N,
        t=T,
        seed=42,
        batch_size=8,
        crashes_per_shard=1,
        crash_horizon=120.0,
    )
    clients = start_clients(
        service,
        num_clients=num_clients,
        workload_factory=lambda i: zipfian_workload(num_keys=num_keys, read_fraction=0.5),
        record_history=True,
    )
    print(f"{SHARDS} shards x {N} replicas, {num_clients} zipfian closed-loop clients")
    print()

    for checkpoint in (100.0, 200.0, 300.0, HORIZON):
        service.run_until(checkpoint)
        committed = service.total_applied()
        print(
            f"t={checkpoint:>5}: leaders per shard {service.leaders()}, "
            f"{committed} commands committed"
        )

    print()
    record = record_run(service, clients, duration=HORIZON)
    rows = [
        [
            shard,
            record.leaders[shard],
            applied,
            instances,
            round(applied / instances if instances else 0.0, 2),
            "yes" if len(set(record.state_digests(shard))) == 1 else "NO (BUG!)",
        ]
        for shard, (applied, instances) in enumerate(zip(record.applied, record.instances))
    ]
    print(
        format_table(
            ["shard", "leader", "applied", "instances", "cmds/inst", "consistent"],
            rows,
            title="Per-shard state after the run",
        )
    )
    print()
    print(
        f"throughput: {record.throughput:.2f} commands/time-unit, "
        f"latency p50={record.latency['p50']:.1f} p95={record.latency['p95']:.1f}, "
        f"{record.retries} client retransmissions (all deduplicated)"
    )
    consistent = service.is_consistent()
    disagreements = [v for v in record.violations if v.kind == "agreement"]
    policy = service.compaction
    bound = policy.interval + policy.retain + RESIDENCY_SLACK
    peak = record.counters.get("peak_decided_residency", 0)
    print(f"service consistent across every replica: {consistent}")
    print(f"agreement monitor: {len(disagreements)} positions decided differently")
    print(
        f"decided log: {record.counters.get('snapshots_taken', 0)} snapshots, "
        f"peak residency {peak} positions (bound {bound} under {policy.describe()})"
    )
    if not consistent or disagreements or peak > bound:
        sys.exit(1)


if __name__ == "__main__":
    main()
