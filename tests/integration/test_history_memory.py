"""What a long run keeps: nothing the algorithms never read again.

Theorem 4 bounds every Figure 3 variable but the round numbers, so an idle
shard's memory should grow by little more than its round numbers.  A closed
round's ``rec_from`` set is never read again and goes when the round closes;
``timeout_history`` records changes of the line-11 value only.  A replica's
session table costs 8 bytes per applied command (its seqs packed in an
array); the decided-value index is a plain set of identities, which
compaction bounds to the log's window, so it adds a constant, not a cost per
command.  The two budgets below pin these costs, measured with tracemalloc on
CPython 3.11.

Every replica compacts, so the decided log stays within the compaction window
however long the run; what agreement and stale-read checking keep instead is
the shards' agreement monitors, budgeted per completed operation below.
"""

import tracemalloc

import pytest

from repro.service import build_sharded_service, start_clients, uniform_workload, zipfian_workload
from repro.storage import CompactionPolicy

#: Traced bytes one closed receiving round may add per process on an idle
#: n=7 shard.  Measured: about 410 B; about 1210 B when every closed round
#: kept its reception set (up to the GC horizon) and every round close
#: appended a timeout pair.
BYTES_PER_CLOSED_ROUND_BUDGET = 600

#: Traced bytes one applied command may add to a two-shard service without
#: client histories.  Measured: about 520 B; about 395 B while the decided
#: index packed each client's seqs into an array.  The difference is the
#: index's set of identity tuples, bounded by the compaction window, so it is
#: a constant the run amortises: about 295 B against 255 B at three times the
#: horizon below.
BYTES_PER_APPLIED_COMMAND_BUDGET = 1000

#: Traced bytes the agreement monitors may hold per completed operation: a
#: tenth of what compaction frees (a steady_mixed decided log that never
#: compacted kept about 312 B per operation).  Measured at 1x and 2x the
#: horizons below: about 2.2 B on the steady_mixed shape; about 3.9 B on the
#: read_mostly_leases shape, where each write's lowest decided position is
#: also kept (about 84 B per write, one write in twenty operations).
MONITOR_BYTES_PER_OPERATION_BUDGET = 30


def traced_growth(service, until):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        service.run_until(until)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def closed_rounds(service):
    return sum(replica.omega.receiving_round for replica in service.replicas(0))


def test_an_idle_shard_keeps_no_closed_round_and_no_repeated_timeout():
    service = build_sharded_service(num_shards=1, n=7, t=3, seed=7)
    service.run_until(100.0)
    rounds_before = closed_rounds(service)
    growth = traced_growth(service, 400.0)
    closed = closed_rounds(service) - rounds_before
    assert closed > 700
    assert growth / closed <= BYTES_PER_CLOSED_ROUND_BUDGET
    for replica in service.replicas(0):
        oracle = replica.omega
        assert min(oracle.records._rec_from, default=oracle.receiving_round) >= (
            oracle.receiving_round
        )
        timeouts = [timeout for _, timeout in oracle.timeout_history]
        assert all(first != second for first, second in zip(timeouts, timeouts[1:]))


def test_an_applied_command_stays_within_its_memory_budget():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=7)
    start_clients(
        service,
        num_clients=12,
        workload_factory=lambda index: uniform_workload(8, read_fraction=0.5),
    )
    service.run_until(20.0)
    applied_before = service.total_applied()
    growth = traced_growth(service, 220.0)
    applied = service.total_applied() - applied_before
    assert applied > 600
    assert growth / applied <= BYTES_PER_APPLIED_COMMAND_BUDGET


@pytest.mark.parametrize(
    "shape, horizon",
    [
        (dict(read_fraction=0.5, poll_interval=0.5, batch_size=8, leases=False), 150.0),
        (dict(read_fraction=0.95, poll_interval=0.25, batch_size="adaptive", leases=True), 100.0),
    ],
    ids=["steady_mixed", "read_mostly_leases"],
)
def test_a_long_run_keeps_its_decided_log_in_the_window_and_its_monitors_small(shape, horizon):
    """perfbench's steady_mixed and read_mostly_leases shapes, fault-free: the
    decided log's high water stays within the default compaction window, and
    the monitors stay within their per-operation budget, from 1x to 2x the
    horizon."""
    policy = CompactionPolicy()
    slack = 16  # decisions learnt above the frontier, out of order
    tracemalloc.start()
    try:
        service = build_sharded_service(
            num_shards=4, n=3, t=1, seed=110400, batch_size=shape["batch_size"], leases=shape["leases"]
        )
        clients = start_clients(
            service,
            num_clients=48,
            workload_factory=lambda index: zipfian_workload(
                num_keys=64, theta=0.99, read_fraction=shape["read_fraction"]
            ),
            poll_interval=shape["poll_interval"],
        )
        for until in (horizon, 2 * horizon):
            service.run_until(until)
            monitors = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, "*/analysis/service_metrics.py")]
            )
            monitor_bytes = sum(stat.size for stat in monitors.statistics("filename"))
            completed = sum(client.stats.completed for client in clients)
            assert service.counters()["snapshots_taken"] > 0
            assert service.counters()["peak_decided_residency"] <= policy.interval + policy.retain + slack
            assert monitor_bytes / completed <= MONITOR_BYTES_PER_OPERATION_BUDGET
    finally:
        tracemalloc.stop()
    assert completed > 3000
    if shape["leases"]:
        assert all(monitor.write_positions for monitor in service.monitors)
