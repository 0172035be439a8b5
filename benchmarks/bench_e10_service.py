"""E10 — the sharded key-value service: batching amortisation and shard scaling.

Two claims the service layer (:mod:`repro.service`) makes on top of Theorem 5:

* **Batching amortises consensus**: packing many client commands into one
  consensus instance multiplies committed-commands-per-virtual-time over the
  unbatched single-group baseline (commands/instance > 1).
* **Sharding scales throughput**: S independent Omega+consensus groups on one
  virtual clock commit more commands per time unit than one group, while every
  replica of every shard applies the identical store.

Run with::

    pytest benchmarks/bench_e10_service.py --benchmark-only -s [--quick]
"""

import pytest

from _harness import scaled
from repro.analysis import record_run
from repro.service import (
    build_sharded_service,
    generate_commands,
    start_clients,
    zipfian_workload,
)
from repro.util.tables import format_table

HORIZON = 700.0
#: Resolution of a drain's completion time.  It must be finer than the drain
#: itself: at 20 vt, a 30-command drain finished inside the first interval
#: both batched (7 vt) and unbatched (15 vt), and the two rates tied.
CHECK_INTERVAL = 1.0
#: How long closed-loop clients get to drain after the horizon before replica
#: states are compared: at the horizon a Decide can still be in flight, which
#: leaves a replica one position behind without any divergence.
DRAIN = 20.0


def drain_workload(num_shards, batch_size, num_commands, seed, horizon):
    """Submit a fixed zipfian workload up front; report time to commit it all."""
    service = build_sharded_service(
        num_shards=num_shards, n=3, t=1, seed=seed, batch_size=batch_size
    )
    commands = generate_commands(
        zipfian_workload(num_keys=64),
        num_commands=num_commands,
        num_clients=max(10, num_commands // 10),
        rng=service.rng("workload"),
    )
    for index, command in enumerate(commands):
        service.submit(command, gateway=index % service.n)
    completion_time = None
    time = 0.0
    while time < horizon:
        time += CHECK_INTERVAL
        service.run_until(time)
        if service.total_applied() >= len(commands) and service.is_consistent():
            completion_time = time
            break
    record = record_run(service)
    assert record.ok, record.violations
    return {
        "shards": num_shards,
        "batch": batch_size,
        "commands": len(commands),
        "completion_time": completion_time,
        "cmds_per_instance": round(record.commands_per_instance, 3),
        "committed_per_time": (
            round(len(commands) / completion_time, 3) if completion_time else 0.0
        ),
        "consistent": record.consistent,
    }


def test_e10_batching_amortises_consensus(benchmark, quick):
    """Batched single group vs the unbatched single-group baseline."""
    num_commands = scaled(120, quick, minimum=30)
    horizon = scaled(HORIZON, quick, minimum=200.0)

    def run():
        baseline = drain_workload(1, 1, num_commands, seed=910, horizon=horizon)
        batched = drain_workload(1, 8, num_commands, seed=910, horizon=horizon)
        return baseline, batched

    baseline, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [list(baseline.values()), list(batched.values())]
    benchmark.extra_info["rows"] = rows
    print("\n" + format_table(list(baseline.keys()), rows, title="E10: batching"))
    assert baseline["consistent"] and batched["consistent"]
    assert batched["completion_time"] is not None, "batched run did not drain"
    assert batched["cmds_per_instance"] > 1.0
    # The unbatched baseline may not even finish within the horizon; when it does,
    # the batched run must commit strictly more commands per virtual time unit.
    if baseline["completion_time"] is not None:
        assert batched["committed_per_time"] > baseline["committed_per_time"]


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_e10_shard_scaling(benchmark, quick, num_shards):
    """Closed-loop clients over 1/2/4 shards; throughput and consistency."""
    horizon = scaled(300.0, quick, minimum=100.0)
    num_clients = scaled(48, quick, minimum=12)

    def run():
        service = build_sharded_service(
            num_shards=num_shards, n=3, t=1, seed=1100 + num_shards, batch_size=8
        )
        clients = start_clients(
            service,
            num_clients=num_clients,
            workload_factory=lambda i: zipfian_workload(num_keys=64),
            record_history=True,
            stop_at=horizon,
        )
        service.run_until(horizon)
        record = record_run(service, clients, duration=horizon)
        assert record.ok, record.violations
        service.run_until(horizon + DRAIN)
        return {
            "shards": num_shards,
            "clients": num_clients,
            "committed": sum(record.applied),
            "instances": sum(record.instances),
            "cmds_per_instance": round(record.commands_per_instance, 3),
            "throughput": round(record.throughput, 3),
            "p95_latency": round(record.latency["p95"], 3),
            "consistent": service.is_consistent(),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print(
        "\n"
        + format_table(
            list(row.keys()), [list(row.values())], title=f"E10: {num_shards} shard(s)"
        )
    )
    assert row["consistent"], "replicas of a shard diverged"
    assert row["committed"] > 0
    assert row["cmds_per_instance"] > 1.0
