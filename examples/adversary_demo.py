#!/usr/bin/env python
"""A live adaptive adversary plus message corruption on the sharded KV store.

Three shards (each a 3-replica Omega + consensus group on one virtual clock)
serve closed-loop clients while two attack surfaces are open at once:

* a **LeaderHunter** adversary ticks every 20 time units from t=40 to t=200 and
  crashes whichever replica each shard has just elected (recovering it 12 time
  units later, so every victim is eventually up and the ``AS_{n,t}`` budget of
  at most ``t`` concurrently-down processes is never exceeded — injections are
  validated against the whole fault plan);
* each shard's fault plan makes the **leader -> follower** link *corrupting*
  from t=50 to t=150: command payloads crossing it are garbled in flight with
  probability 0.8, stale checksums preserved.  The consensus/service boundary
  verifies every delivery and rejects the tampered ones, so corruption degrades
  into message loss — which the indulgent protocol and the client retries
  already absorb.

The demo prints a timeline (per-shard leaders and adversary activity) and then
checks the acceptance criteria: despite the hunter, **every shard re-elects a
single leader**, and despite the corruption, **every replica of every shard —
including the repeatedly crashed ones — converges to the identical store
digest**.  Tampered-delivery accounting must show the corruption actually bit.
The run is fully deterministic under the fixed seed.  Exits non-zero if any
check fails.

Run with:  python examples/adversary_demo.py [--quick]
"""

import argparse

from repro.analysis import record_run
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import FaultPlan
from repro.simulation.adversary import LeaderHunter
from repro.util.tables import format_table

SHARDS = 3
N, T = 3, 1
SEED = 11
CORRUPT_FROM, CORRUPT_UNTIL, CORRUPT_P = 50.0, 150.0, 0.8
HUNT_FROM, HUNT_UNTIL, HUNT_PERIOD, DOWNTIME = 40.0, 200.0, 20.0, 12.0
HORIZON = 400.0


def shard_fault_plan(shard: int) -> FaultPlan:
    """Corrupt the link from the shard's star centre to its first follower.

    The centre is the usual leader, so the corrupting link carries the shard's
    ACCEPT / DECIDE / catch-up payloads — the traffic whose integrity matters.
    The window is bounded, so the plan is admission-clean
    (``ShardedService.assumption_violations`` stays empty).
    """
    center = shard % N
    follower = (center + 1) % N
    return FaultPlan.corrupt_links(
        [(center, follower)],
        at=CORRUPT_FROM,
        until=CORRUPT_UNTIL,
        probability=CORRUPT_P,
    )


def phase(now: float) -> str:
    hunting = HUNT_FROM <= now < HUNT_UNTIL
    corrupting = CORRUPT_FROM <= now < CORRUPT_UNTIL
    if hunting and corrupting:
        return "hunt+corrupt"
    if hunting:
        return "hunting"
    if corrupting:
        return "corrupting"
    return "calm"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer clients / smaller keyspace (CI smoke)"
    )
    args = parser.parse_args()
    num_clients = 12 if args.quick else 48
    num_keys = 32 if args.quick else 128

    hunter = LeaderHunter(
        mode="crash",
        period=HUNT_PERIOD,
        start=HUNT_FROM,
        stop=HUNT_UNTIL,
        downtime=DOWNTIME,
    )
    service = build_sharded_service(
        num_shards=SHARDS,
        n=N,
        t=T,
        seed=SEED,
        batch_size=8,
        fault_plan_factory=shard_fault_plan,
        adversary=hunter,
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
    print(
        f"adversary: LeaderHunter crashing each shard's elected leader every "
        f"{HUNT_PERIOD:g}tu in [{HUNT_FROM:g}, {HUNT_UNTIL:g}), "
        f"{DOWNTIME:g}tu downtime per victim"
    )
    print()

    actions_seen = 0
    for checkpoint in (30.0, 80.0, 130.0, 180.0, 240.0, HORIZON):
        service.run_until(checkpoint)
        fresh = len(hunter.actions) - actions_seen
        actions_seen = len(hunter.actions)
        leaders = " ".join(
            f"shard{shard}->" + (f"p{leader}" if leader is not None else "SPLIT")
            for shard, leader in service.leaders().items()
        )
        print(
            f"t={checkpoint:>5} [{phase(checkpoint):>12}] {leaders}   "
            f"+{fresh} adversary faults, "
            f"{service.corrupted_messages()} tampered"
        )

    print()
    print(f"adversary summary: {hunter.describe()}")
    for action in hunter.actions[:6]:
        print(f"  {action.describe()}")
    if len(hunter.actions) > 6:
        print(f"  ... and {len(hunter.actions) - 6} more")
    print()

    rows = []
    converged = True
    for shard in range(SHARDS):
        digests = service.state_digests(shard, correct_only=False)
        unique = len(set(digests))
        leader = service.systems[shard].agreed_leader()
        converged = converged and unique == 1 and leader is not None
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
            title="Post-attack state (every replica, including hunted ones)",
        )
    )
    print()

    tampered = service.corrupted_messages()
    rejected = service.corrupted_deliveries()
    print(
        f"corruption: {tampered} messages tampered in flight, "
        f"{rejected} reached an alive replica and were rejected at the "
        f"checksum boundary (the rest were addressed to crashed victims)"
    )
    record = record_run(service, clients, duration=HORIZON)
    print(
        f"throughput: {record.throughput:.2f} commands/time-unit, "
        f"latency p50={record.latency['p50']:.1f} p95={record.latency['p95']:.1f}, "
        f"{record.retries} client retransmissions (all deduplicated)"
    )

    failures = []
    if not converged:
        failures.append("a shard failed to re-elect a leader or to converge")
    if not hunter.actions:
        failures.append("the adversary never managed to inject a fault")
    if tampered == 0 or rejected == 0:
        failures.append("the corruption window never bit")
    if failures:
        raise SystemExit("ADVERSARY DEMO FAILED: " + "; ".join(failures))
    print()
    print(
        "single leader re-elected per shard and all replicas identical, "
        "despite the live adversary and the corrupting links: True"
    )


if __name__ == "__main__":
    main()
