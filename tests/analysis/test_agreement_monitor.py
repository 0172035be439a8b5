"""The agreement monitor: what each shard decided, recorded as replicas learn
(:class:`repro.analysis.service_metrics.AgreementMonitor`), and the agreement
and stale-read verdicts read off it."""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.analysis.service_metrics import (
    AgreementMonitor,
    agreement_violations,
    stale_read_violations,
)
from repro.consensus.commands import Batch, Command, flatten_value, value_checksum
from repro.consensus.replicated_log import NOOP
from repro.service import build_sharded_service
from repro.service.clients import OperationRecord
from repro.storage import CompactionPolicy

PUT = Command.put("writer", 1, "k", "v")
OTHER = Command.put("other", 1, "k", "w")


def record(client_id, seq, op, invoked_at, completed_at, read_index=None, key="k"):
    return OperationRecord(
        client_id=client_id,
        seq=seq,
        op=op,
        key=key,
        args=(),
        invoked_at=invoked_at,
        completed_at=completed_at,
        result=None,
        read_index=read_index,
    )


def lease_service():
    return build_sharded_service(num_shards=1, n=3, t=1, seed=5, leases=True)


class TestAgreement:
    def test_the_first_value_learnt_at_a_position_is_kept_as_its_checksum(self):
        monitor = AgreementMonitor()
        monitor.learn(0, 3, PUT)
        monitor.learn(1, 3, PUT)
        assert monitor.first_checksum(3) == value_checksum(PUT)
        assert monitor.first_checksum(2) is None
        assert monitor.first_checksum(4) is None
        assert monitor.conflicts == {}

    def test_a_different_value_learnt_at_a_position_is_a_violation(self):
        service = lease_service()
        monitor = service.monitors[0]
        monitor.learn(0, 0, PUT)
        monitor.learn(1, 0, NOOP)
        monitor.learn(2, 0, Batch(commands=(PUT, OTHER)))
        monitor.learn(2, 1, OTHER)
        (violation,) = agreement_violations(service)
        assert (violation.kind, violation.shard) == ("agreement", 0)
        assert violation.detail.startswith("position 0 decided differently")
        assert "pid 1 learnt '<noop>'" in violation.detail
        assert "pid 2 learnt Batch(" in violation.detail

    def test_conflicts_are_reported_in_position_order(self):
        service = lease_service()
        for position in (5, 2):
            service.monitors[0].learn(0, position, PUT)
            service.monitors[0].learn(1, position, OTHER)
        details = [violation.detail for violation in agreement_violations(service)]
        assert [detail.split(" decided")[0] for detail in details] == ["position 2", "position 5"]

    def test_a_position_truncated_by_compaction_is_still_checked(self):
        policy = CompactionPolicy(interval=8, retain=2)
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=13, batch_size=1, compaction=policy)
        for seq in range(1, 41):
            service.submit(Command.put("cli", seq, f"k{seq % 5}", seq), gateway=0)
        service.run_until(300.0)
        assert all(replica.log.compaction_floor > 0 for replica in service.replicas(0))
        assert agreement_violations(service) == []
        # Position 0 is gone from every log, not from the monitor: learning
        # another value there now is still a disagreement.
        service.monitors[0].learn(1, 0, OTHER)
        assert [violation.kind for violation in agreement_violations(service)] == ["agreement"]


class TestValueIdentity:
    """A value is known by its checksum: rebuilding an equal value is no
    conflict, and any other value at the same position is one."""

    A = Command.put("c1", 1, "k", "a")
    B = Command.put("c2", 1, "k", "b")

    @staticmethod
    def conflicts(first, then):
        """Conflicts after replica 0 learns *first* and replica 1 *then*, one
        value per position."""
        monitor = AgreementMonitor()
        for pid, values in ((0, first), (1, then)):
            for position, value in enumerate(values):
                monitor.learn(pid, position, value)
        return monitor.conflicts

    @pytest.mark.parametrize(
        "value, rebuilt",
        [
            (A, Command.put("c1", 1, "k", "a")),
            (NOOP, NOOP),
            (Batch(commands=(A, B)), Batch(commands=(Command.put("c1", 1, "k", "a"), B))),
        ],
        ids=["command", "noop", "batch"],
    )
    def test_a_rebuilt_equal_value_is_no_conflict(self, value, rebuilt):
        assert self.conflicts([self.A, value], [self.A, rebuilt]) == {}

    @pytest.mark.parametrize(
        "other",
        [
            Command.put("c2", 1, "k", "b"),
            Command.put("c1", 1, "k", "z"),
            NOOP,
            Batch(commands=(Command.put("c2", 1, "k", "b"), Command.put("c1", 1, "k", "a"))),
        ],
        ids=["other-command", "other-payload", "noop", "reordered-batch"],
    )
    def test_a_different_value_at_one_position_is_a_conflict(self, other):
        decided = Batch(commands=(self.A, self.B))
        conflicts = self.conflicts([self.A, decided, NOOP], [self.A, other, NOOP])
        assert list(conflicts) == [1]
        assert [pid for pid, _ in conflicts[1]] == [1]

    def test_two_values_swapped_between_positions_conflict_at_both(self):
        assert sorted(self.conflicts([self.A, NOOP], [NOOP, self.A])) == [0, 1]


class TestStaleReads:
    def test_a_write_decided_twice_counts_at_its_lowest_position(self):
        """A retried write decided at positions 3 and 9 was applied at 3 (the
        second decision is absorbed as a duplicate), so a read certified at
        index 5 saw it."""
        service = lease_service()
        monitor = service.monitors[0]
        monitor.learn(0, 3, PUT)
        monitor.learn(0, 9, Batch(commands=(OTHER, PUT)))
        written = record("writer", 1, "put", 0.0, 5.0)
        read = record("reader", 1, "get", 6.0, 6.5, read_index=5)
        service.read_audits[0].append(read)
        clients = [SimpleNamespace(history=[written]), SimpleNamespace(history=[read])]
        # The old rule took the position from the resident log, where the last
        # position carrying the write wins: 9 >= 5, a stale read.
        resident = {3: PUT, 9: Batch(commands=(OTHER, PUT))}
        last = max(position for position, value in resident.items() if PUT in flatten_value(value))
        assert last >= read.read_index
        assert monitor.write_positions[("writer", 1)] == 3
        assert stale_read_violations(service, clients) == []
        # A read certified at or below the lowest position did miss the write.
        service.read_audits[0][:] = [dataclasses.replace(read, read_index=3)]
        (violation,) = stale_read_violations(service, clients)
        assert violation.kind == "stale-read"
        assert "decided at position 3" in violation.detail

    def test_a_shard_without_lease_reads_does_not_end_the_scan(self):
        service = build_sharded_service(num_shards=2, n=3, t=1, seed=5, leases=True)
        key = next(f"k{index}" for index in range(64) if service.shard_for(f"k{index}") == 1)
        service.monitors[1].learn(0, 3, Command.put("writer", 1, key, "v"))
        written = record("writer", 1, "put", 0.0, 5.0, key=key)
        read = record("reader", 1, "get", 6.0, 6.5, read_index=3, key=key)
        service.read_audits[1].append(read)
        (violation,) = stale_read_violations(service, [SimpleNamespace(history=[written, read])])
        assert (violation.kind, violation.shard) == ("stale-read", 1)

    def test_gets_are_never_recorded_as_writes(self):
        monitor = AgreementMonitor(record_writes=True)
        monitor.learn(0, 0, Batch(commands=(Command.get("r", 1, "k"), PUT)))
        assert monitor.write_positions == {("writer", 1): 0}
        assert AgreementMonitor().write_positions is None

    def test_each_stale_read_is_reported_once_as_the_pairwise_rule_finds_it(self):
        """The sorted prefix maximum flags exactly the reads the reads x
        writes rule flags, once each, against the highest write missed."""
        rng = random.Random(20)
        service = lease_service()
        monitor = service.monitors[0]
        writes = []
        for seq in range(1, 61):
            key = f"k{rng.randrange(3)}"
            monitor.learn(0, rng.randrange(100), Command.put("w", seq, key, seq))
            completed_at = rng.uniform(0.0, 50.0)
            writes.append(record("w", seq, "put", completed_at - 1.0, completed_at, key=key))
        reads = [
            record("r", seq, "get", rng.uniform(0.0, 60.0), 61.0, rng.randrange(100), f"k{rng.randrange(3)}")
            for seq in range(1, 201)
        ]
        service.read_audits[0].extend(reads)
        clients = [SimpleNamespace(history=writes), SimpleNamespace(history=reads)]
        positions = monitor.write_positions
        expected = []
        for read in reads:
            missed = [
                positions[(write.client_id, write.seq)]
                for write in writes
                if write.key == read.key
                and (write.client_id, write.seq) in positions
                and write.completed_at <= read.invoked_at
                and positions[(write.client_id, write.seq)] >= read.read_index
            ]
            if missed:
                expected.append((read.seq, max(missed)))
        flagged = [
            (int(detail.split("seq=")[1].split(")")[0]), int(detail.split("position ")[1].split()[0]))
            for detail in (violation.detail for violation in stale_read_violations(service, clients))
        ]
        assert len(expected) > 10
        assert flagged == expected
