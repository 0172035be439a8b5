"""What a long run keeps: nothing the algorithms never read again.

Theorem 4 bounds every Figure 3 variable but the round numbers, so an idle
shard's memory should grow by little more than its round numbers.  A closed
round's ``rec_from`` set is never read again and goes when the round closes;
``timeout_history`` records changes of the line-11 value only.  A replica's
per-command bookkeeping (the applied seqs of the session table and the
decided-command index) costs 8 bytes per command in each.  The two budgets
below pin these costs, measured with tracemalloc on CPython 3.11.
"""

import tracemalloc

from repro.service import build_sharded_service, start_clients, uniform_workload

#: Traced bytes one closed receiving round may add per process on an idle
#: n=7 shard.  Measured: about 410 B; about 1210 B when every closed round
#: kept its reception set (up to the GC horizon) and every round close
#: appended a timeout pair.
BYTES_PER_CLOSED_ROUND_BUDGET = 600

#: Traced bytes one applied command may add to a two-shard service without
#: client histories.  Measured: about 815 B; about 1690 B when the session
#: table and the decided index were hash sets.
BYTES_PER_APPLIED_COMMAND_BUDGET = 1000


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
