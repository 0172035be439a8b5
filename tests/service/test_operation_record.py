"""One record per completed operation.

A completed operation is kept once, as its :class:`OperationRecord`: a
lease-served read's entry in ``ShardedService.read_audits`` is the client's
history entry itself (with ``read_index`` set), latency statistics are read off
the history, and key samplers hand out one string per key.  The memory budget
below pins what a completed operation costs a lease-heavy service.
"""

import dataclasses
import pickle
import tracemalloc

import pytest

from repro.analysis import record_run
from repro.service import (
    ClosedLoopClient,
    OperationRecord,
    UniformKeys,
    ZipfianKeys,
    build_sharded_service,
    start_clients,
    uniform_workload,
    zipfian_workload,
)
from repro.util.rng import RandomSource

#: Traced bytes a completed operation may add to the lease-heavy shape below.
#: Measured on CPython 3.11: about 315 B/op with one record per operation;
#: about 530 B/op when the audit copied the record into a tuple and the client
#: kept a float latency and a fresh key string per operation.
BYTES_PER_OPERATION_BUDGET = 400


def test_a_lease_served_read_is_audited_as_its_history_record():
    service = build_sharded_service(num_shards=1, n=3, t=1, seed=3, leases=True)
    service.run_until(60.0)
    client = ClosedLoopClient(
        "reader",
        service,
        uniform_workload(8, read_fraction=1.0),
        service.rng("reader"),
        poll_interval=0.25,
        record_history=True,
    )
    client.start()
    service.run_until(80.0)
    audits = service.read_audits[0]
    assert audits and len(audits) == len(client.history)
    for audit, record in zip(audits, client.history):
        assert audit is record
        assert record.read_index is not None
    # Fingerprints of histories do not see the index.
    assert len(audits[0].to_tuple()) == 8


def test_an_operation_record_has_no_instance_dict():
    record = OperationRecord("c", 1, "get", "key-0", (), 0.0, 1.0, None)
    assert not hasattr(record, "__dict__")
    assert record.read_index is None


_FIELDS = ("c", 1, "put", "key-0", ("v",), 0.5, 1.0, None)


def test_positional_keyword_and_built_records_agree():
    positional = OperationRecord(*_FIELDS, 7)
    keyword = OperationRecord(
        client_id="c",
        seq=1,
        op="put",
        key="key-0",
        args=("v",),
        invoked_at=0.5,
        completed_at=1.0,
        result=None,
        read_index=7,
    )
    built = OperationRecord.build(*_FIELDS, 7)
    assert positional == keyword == built
    assert type(built) is OperationRecord
    assert not hasattr(built, "__dict__")
    assert OperationRecord.build(*_FIELDS) == OperationRecord(*_FIELDS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.seq = 2


def test_an_operation_record_pickles_and_replaces():
    record = OperationRecord.build(*_FIELDS, 7)
    assert pickle.loads(pickle.dumps(record)) == record
    later = dataclasses.replace(record, completed_at=2.0)
    assert later.completed_at == 2.0 and later.read_index == 7


@dataclasses.dataclass(frozen=True)
class _DueRecord(OperationRecord):
    """Shaped like the open-loop benchmark's record: one more field, frozen,
    not slotted."""

    due_at: float = 0.0


def test_a_frozen_subclass_still_builds_compares_and_keeps_its_tuple():
    record = _DueRecord(*_FIELDS, due_at=0.25)
    assert record == _DueRecord(*_FIELDS, due_at=0.25)
    assert record != _DueRecord(*_FIELDS, due_at=0.5)
    assert record.due_at == 0.25 and record.read_index is None
    assert record.to_tuple() == OperationRecord(*_FIELDS).to_tuple()
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.due_at = 1.0


@pytest.mark.parametrize("sampler", [UniformKeys(1), ZipfianKeys(1)], ids=["uniform", "zipfian"])
def test_two_samples_of_one_key_are_one_string(sampler):
    rng = RandomSource(5)
    first, second = sampler.sample(rng), sampler.sample(rng)
    assert first == "key-0"
    assert first is second


def test_latency_statistics_need_the_history():
    service = build_sharded_service(num_shards=1, n=3, t=1, seed=2)
    clients = start_clients(
        service, num_clients=2, workload_factory=lambda index: uniform_workload(4)
    )
    service.run_until(40.0)
    assert sum(client.stats.completed for client in clients) > 0
    with pytest.raises(ValueError, match="record_history=True"):
        record_run(service, clients, duration=40.0)


def test_a_completed_operation_stays_within_its_memory_budget():
    service = build_sharded_service(
        num_shards=2, n=3, t=1, seed=7, leases=True, batch_size="adaptive"
    )
    clients = start_clients(
        service,
        num_clients=12,
        workload_factory=lambda index: zipfian_workload(num_keys=32, read_fraction=0.95),
        poll_interval=0.25,
        record_history=True,
    )
    service.run_until(20.0)
    completed_before = sum(client.stats.completed for client in clients)
    tracemalloc.start()
    try:
        traced_before = tracemalloc.get_traced_memory()[0]
        service.run_until(120.0)
        growth = tracemalloc.get_traced_memory()[0] - traced_before
    finally:
        tracemalloc.stop()
    completed = sum(client.stats.completed for client in clients) - completed_before
    assert completed > 2000
    assert growth / completed <= BYTES_PER_OPERATION_BUDGET
