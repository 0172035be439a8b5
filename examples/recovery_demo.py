#!/usr/bin/env python
"""Rolling restarts on durable replicas: stable storage closes the amnesia gap.

Three shards (each an independent 3-replica Omega + consensus group on one
virtual clock) serve closed-loop clients while every shard's two follower
replicas are restarted back to back — the exact churn that is *amnesia-unsafe*
without stable storage: two restarted acceptors can cover a whole promise-
quorum intersection, so a leader change around the restarts could decide two
different values for one log position (``FaultPlan.amnesia_hazards`` flags it,
and ``tests/integration/test_quorum_amnesia.py`` exhibits the violation).

This demo runs the same churn **with** stable storage
(``ShardedService(stable_storage=...)``):

* every acceptor promise, accepted value and decided position is written
  through to the replica's durable store before the reply leaves, each write
  charged on the virtual clock by the ``WriteCostModel`` (fsync before reply);
* a recovered replica rehydrates from its store — its decided prefix, its
  exactly-once session table and its promises are back *before* it takes the
  first step, so restarts are memory-preserving and the hazard vanishes.

The demo exits non-zero unless every shard re-elects a single leader and every
replica — including all restarted ones — converges to the identical digest.

It then prints each shard's round clock (``analysis.round_clock``: the restarted
replicas number their ALIVEs like the replica that never went down, and
receiving rounds stay close behind) and crashes every shard's current leader:
the survivors — one of them restarted earlier — must agree on a live leader
within 80 virtual time units, or the demo exits non-zero.  Election time is a
handful of rounds, not the shard's uptime.

Run with:  python examples/recovery_demo.py [--quick]
"""

import argparse

from repro.analysis import round_clock, summarize_service
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import Crash, FaultPlan
from repro.storage import WriteCostModel
from repro.util.tables import format_table

SHARDS = 3
N, T = 3, 1
RESTART_AT, DOWNTIME = 60.0, 25.0
HORIZON = 300.0
FAILOVER_CEILING = 80.0


def shard_fault_plan(shard: int) -> FaultPlan:
    """Back-to-back restarts of both followers (the star centre is spared).

    The two restarted processes cover a whole quorum intersection
    (``n - 2t = 1``), so this plan is amnesia-unsafe without storage — the
    demo prints the admission flag that says so.
    """
    center = shard % N
    followers = [(center + 1) % N, (center + 2) % N]
    return FaultPlan.rolling_restarts(followers, start=RESTART_AT, downtime=DOWNTIME)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer clients / smaller keyspace (CI smoke)"
    )
    args = parser.parse_args()
    num_clients = 12 if args.quick else 48
    num_keys = 32 if args.quick else 128

    hazards = shard_fault_plan(0).amnesia_hazards(N, T)
    print("without stable storage this plan would be amnesia-unsafe:")
    print(f"  {hazards[0]}")
    print()

    cost_model = WriteCostModel(per_write=0.2)
    service = build_sharded_service(
        num_shards=SHARDS,
        n=N,
        t=T,
        seed=11,
        batch_size=8,
        fault_plan_factory=shard_fault_plan,
        stable_storage=cost_model,
    )
    assert all(not v for v in service.amnesia_hazards.values()), (
        "with storage on, the service must not record amnesia hazards"
    )
    clients = start_clients(
        service,
        num_clients=num_clients,
        workload_factory=lambda i: zipfian_workload(num_keys=num_keys, read_fraction=0.3),
        # Quiesce before the digests are compared: a Decide still in flight to
        # one replica at the horizon is lag, not divergence.
        stop_at=HORIZON - 20.0,
    )
    print(f"{SHARDS} shards x {N} replicas, {num_clients} closed-loop clients")
    print(f"fault plan per shard (shard 0): {shard_fault_plan(0).describe()}")
    print(f"durability: {cost_model.describe()} charged on the virtual clock")
    print()

    for checkpoint in (50.0, 90.0, 120.0, 180.0, HORIZON):
        service.run_until(checkpoint)
        restarting = RESTART_AT <= checkpoint < RESTART_AT + 2 * DOWNTIME
        phase = "restarting" if restarting else "healthy"
        leaders = " ".join(
            f"shard{shard}->" + (f"p{leader}" if leader is not None else "split")
            for shard, leader in service.leaders().items()
        )
        print(f"t={checkpoint:>5} [{phase:>10}] {leaders}")

    print()
    rows = []
    converged = True
    for shard in range(SHARDS):
        digests = service.state_digests(shard, correct_only=False)
        unique = len(set(digests))
        leader = service.systems[shard].agreed_leader()
        converged = converged and unique == 1 and leader is not None
        recoveries = sum(shell.recoveries for shell in service.systems[shard].shells)
        rows.append(
            [
                shard,
                leader if leader is not None else "SPLIT",
                recoveries,
                service.applied_commands(shard),
                f"{unique}/{len(digests)}",
                "yes" if unique == 1 else "NO (BUG!)",
            ]
        )
    print(
        format_table(
            ["shard", "leader", "recoveries", "applied", "distinct digests", "converged"],
            rows,
            title="Post-restart state (every replica, including restarted ones)",
        )
    )
    print()
    summary = summarize_service(service, clients, duration=HORIZON)
    print(
        f"throughput: {summary.throughput:.2f} commands/time-unit, "
        f"latency p50={summary.latency.p50:.1f} p95={summary.latency.p95:.1f}, "
        f"{summary.retries} client retransmissions (all deduplicated)"
    )
    print(
        f"durability: {service.storage_writes()} stable writes, "
        f"{service.storage_cost():.1f} virtual time units of fsync cost"
    )
    print(f"single leader re-elected per shard and all replicas identical: {converged}")
    if not converged:
        raise SystemExit("post-restart convergence FAILED")

    print()
    print("round clock after the restarts (sending/receiving round per replica):")
    for shard, system in enumerate(service.systems):
        clock = round_clock(system)
        rounds = " ".join(f"p{pid}={s}/{r}" for pid, (s, r) in clock.rounds.items())
        print(
            f"  shard{shard}: {rounds}  (sending spread {clock.sending_spread}, "
            f"receive lag {clock.receive_lag})"
        )

    crashed_at = service.now
    for system in service.systems:
        system.inject_fault(Crash(time=crashed_at, pid=system.agreed_leader()))
    elected = {}
    while len(elected) < SHARDS and service.now - crashed_at < FAILOVER_CEILING:
        service.run_for(0.5)
        for shard, system in enumerate(service.systems):
            leader = system.agreed_leader()
            if shard not in elected and leader is not None and not system.shells[leader].crashed:
                elected[shard] = (leader, service.now - crashed_at)
    print(f"every shard's leader crashed at t={crashed_at:g}; re-election:")
    for shard in range(SHARDS):
        if shard in elected:
            leader, took = elected[shard]
            print(f"  shard{shard}: p{leader} agreed after {took:g} vt")
        else:
            print(f"  shard{shard}: no live leader agreed on")
    if len(elected) < SHARDS:
        raise SystemExit(f"failover took longer than {FAILOVER_CEILING:g} vt: FAILED")


if __name__ == "__main__":
    main()
