#!/usr/bin/env python
"""Snapshots + log compaction: bounded-memory replicas over a long horizon.

Without compaction every replica of the service keeps the whole decided log
resident forever — run ten times longer, hold ten times the memory.  This demo
runs a sharded key-value service an order of magnitude past the usual example
horizon with a :class:`~repro.storage.compaction.CompactionPolicy` on every
replica: whenever the contiguous decided prefix grows by ``interval``
positions the replica snapshots its state machine (data + exactly-once session
table), then truncates everything below ``floor - retain`` out of memory.

Watch two things in the checkpoint table:

* **resident** — the decided-log entries actually held per replica.  Decisions
  keep streaming (the ``decided`` column keeps climbing) but residency stays
  pinned inside the ``interval + retain`` window;
* **floor** — the compaction floor marching forward behind the frontier.

Midway through, one follower per shard is restarted *without* stable storage:
it comes back with an empty log whose prefix the survivors have long since
truncated, so plain catch-up cannot serve it — the replica recovers through a
**snapshot transfer** (chunked, CRC-checked) and then tails the retained log.
The truncated history is still checked: each shard's agreement monitor
records every position as a replica learns it, before compaction truncates
it, and the demo requires no position to have been learnt two ways, every
replica to reach the same frontier, and the final key-value states to agree.

The demo exits non-zero unless residency stayed bounded, every replica
(including the restarted ones) converged, and at least one snapshot transfer
actually happened.

Run with:  python examples/compaction_demo.py [--quick]
"""

import argparse

from repro.analysis import record_run
from repro.analysis.service_metrics import agreement_violations
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import FaultPlan
from repro.storage import CompactionPolicy
from repro.util.tables import format_table

SHARDS = 2
N, T = 3, 1
POLICY = CompactionPolicy(interval=32, retain=8)
#: Residency slack above the policy window: out-of-order decides and in-flight
#: instances sit above the frontier until it catches up.
RESIDENCY_SLACK = 32


def shard_fault_plan(horizon: float):
    """Restart one follower per shard late in the run (centre is spared).

    By then the survivors have compacted the prefix the restarted replica
    needs, forcing the snapshot-transfer recovery path.
    """

    def factory(shard: int) -> FaultPlan:
        center = shard % N
        follower = (center + 1) % N
        return FaultPlan.rolling_restarts(
            [follower], start=horizon * 0.6, downtime=horizon * 0.05
        )

    return factory


def residency_row(service, shard: int):
    """Per-replica resident decided entries and the shard's floor range."""
    logs = [replica.log for replica in service.replicas(shard)]
    return (
        [len(log.decisions) for log in logs],
        min(log.compaction_floor for log in logs),
        max(log.frontier for log in logs),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="shorter horizon / fewer clients (CI smoke)"
    )
    args = parser.parse_args()
    horizon = 1000.0 if args.quick else 3000.0
    num_clients = 12 if args.quick else 32

    service = build_sharded_service(
        num_shards=SHARDS,
        n=N,
        t=T,
        seed=23,
        batch_size=8,
        fault_plan_factory=shard_fault_plan(horizon),
        compaction=POLICY,
    )
    clients = start_clients(
        service,
        num_clients=num_clients,
        workload_factory=lambda i: zipfian_workload(num_keys=64, read_fraction=0.2),
        stop_at=horizon - 150.0,
        record_history=True,
    )
    print(f"{SHARDS} shards x {N} replicas, {num_clients} clients, {POLICY.describe()}")
    print(f"horizon {horizon:g} (one follower per shard restarted at t={horizon * 0.6:g})")
    print()

    checkpoints = [horizon * fraction for fraction in (0.2, 0.4, 0.6, 0.7, 0.85, 1.0)]
    print(f"{'t':>6}  {'decided':>8}  {'resident per replica (shard 0 | shard 1)':<44} floor..frontier")
    for checkpoint in checkpoints:
        service.run_until(checkpoint)
        decided = sum(
            service.replicas(shard)[0].log.frontier for shard in range(SHARDS)
        )
        cells, spans = [], []
        for shard in range(SHARDS):
            resident, floor, frontier = residency_row(service, shard)
            cells.append("/".join(f"{count:>3}" for count in resident))
            spans.append(f"{floor}..{frontier}")
        print(
            f"{checkpoint:>6g}  {decided:>8}  {' | '.join(cells):<44} {'  '.join(spans)}"
        )
    print()

    counters = service.counters()
    peak = counters["peak_decided_residency"]
    bound = POLICY.interval + POLICY.retain + RESIDENCY_SLACK
    rows = []
    converged = True
    disagreeing = {violation.shard for violation in agreement_violations(service)}
    for shard in range(SHARDS):
        digests = set(service.state_digests(shard, correct_only=False))
        frontiers = {replica.log.frontier for replica in service.replicas(shard)}
        ok = len(digests) == 1 and len(frontiers) == 1 and shard not in disagreeing
        converged = converged and ok
        resident, floor, frontier = residency_row(service, shard)
        rows.append(
            [
                shard,
                frontier,
                max(resident),
                floor,
                service.applied_commands(shard),
                "yes" if ok else "NO (BUG!)",
            ]
        )
    print(
        format_table(
            ["shard", "decided", "resident", "floor", "applied", "converged"],
            rows,
            title="Final state (every replica, including the restarted ones)",
        )
    )
    print()
    record = record_run(service, clients, duration=horizon)
    print(
        f"snapshots: {record.counters.get('snapshots_taken', 0)} taken, "
        f"{counters['snapshot_restores']} installed "
        f"(restarted replicas recovered by snapshot transfer), "
        f"{record.counters.get('positions_compacted', 0)} positions compacted"
    )
    print(
        f"memory: peak decided-log residency {peak} entries "
        f"(bound {bound} = interval + retain + slack) over "
        f"{sum(record.instances)}+ decided instances"
    )
    print(
        f"throughput: {record.throughput:.2f} commands/time-unit, "
        f"latency p50={record.latency['p50']:.1f} p95={record.latency['p95']:.1f}"
    )

    failures = []
    if peak > bound:
        failures.append(f"peak residency {peak} exceeded the bound {bound}")
    if not converged:
        failures.append("replica states, frontiers or decided values diverged")
    if counters["snapshot_restores"] < 1:
        failures.append("no snapshot transfer happened (recovery took the wrong path)")
    if failures:
        raise SystemExit("compaction demo FAILED: " + "; ".join(failures))
    print("bounded residency, converged replicas, snapshot recovery: all OK")


if __name__ == "__main__":
    main()
