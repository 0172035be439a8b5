"""Unit tests for the snapshot/compaction layer (policy, snapshot, manager)."""

import dataclasses
from collections import Counter

import pytest

from repro.consensus.commands import Command
from repro.consensus.messages import SnapshotReply, SnapshotRequest
from repro.service.state_machine import KeyValueStore, StateMachine
from repro.storage import CompactionPolicy, Snapshot, SnapshotManager, StableStore
from repro.storage.snapshot import RETAINED_SNAPSHOTS, SNAPSHOT_CHUNK_ITEMS


class TestCompactionPolicy:
    def test_should_snapshot_fires_on_interval_growth(self):
        policy = CompactionPolicy(interval=10, retain=3)
        assert not policy.should_snapshot(frontier=9, last_floor=0)
        assert policy.should_snapshot(frontier=10, last_floor=0)
        assert not policy.should_snapshot(frontier=19, last_floor=10)
        assert policy.should_snapshot(frontier=20, last_floor=10)

    def test_truncation_floor_keeps_the_retained_tail(self):
        policy = CompactionPolicy(interval=10, retain=3)
        assert policy.truncation_floor(10) == 7
        assert policy.truncation_floor(2) == 0  # never negative

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            CompactionPolicy(interval=0)
        with pytest.raises(ValueError):
            CompactionPolicy(interval=8, retain=-1)

    def test_describe_mentions_both_knobs(self):
        assert CompactionPolicy(interval=8, retain=2).describe() == (
            "compaction(interval=8, retain=2)"
        )


class TestSnapshotIntegrity:
    def make(self, **overrides):
        fields = dict(
            floor=5,
            delivered_total=4,
            digest="d" * 64,
            payload=(("meta", 4, 0), ("kv", "k", 1)),
        )
        fields.update(overrides)
        return Snapshot(**fields)

    def test_checksum_filled_at_construction_and_verifies(self):
        snapshot = self.make()
        assert snapshot.checksum == snapshot.expected_checksum()
        assert snapshot.verify()

    def test_tampered_payload_with_stale_checksum_fails_verify(self):
        snapshot = self.make()
        forged = dataclasses.replace(
            snapshot,
            payload=snapshot.payload + (("kv", "evil", 1),),
            checksum=snapshot.checksum,  # the corruption model keeps it stale
        )
        assert not forged.verify()

    def test_every_field_is_covered_by_the_checksum(self):
        snapshot = self.make()
        for field, forged_value in [
            ("floor", 6),
            ("delivered_total", 5),
            ("digest", "e" * 64),
            ("payload", ()),
        ]:
            forged = dataclasses.replace(
                snapshot, checksum=snapshot.checksum, **{field: forged_value}
            )
            assert not forged.verify(), field

    def test_chunk_count_covers_empty_and_partial_chunks(self):
        assert self.make(payload=()).chunk_count() == 1
        assert self.make().chunk_count(items_per_chunk=1) == 2
        payload = tuple(("kv", f"k{i}", i) for i in range(SNAPSHOT_CHUNK_ITEMS + 1))
        assert self.make(payload=payload).chunk_count() == 2

    def test_chunks_partition_the_payload_in_order(self):
        payload = tuple(("kv", f"k{i}", i) for i in range(5))
        snapshot = self.make(payload=payload)
        chunks = [snapshot.chunk(i, items_per_chunk=2) for i in range(3)]
        assert all(isinstance(chunk, SnapshotReply) for chunk in chunks)
        assert [chunk.total for chunk in chunks] == [3, 3, 3]
        reassembled = ()
        for chunk in chunks:
            assert chunk.floor == snapshot.floor
            assert chunk.checksum == snapshot.checksum
            reassembled += chunk.items
        assert reassembled == payload


class _Env:
    """Captures outbound messages like a process environment would send them."""

    def __init__(self):
        self.sent = []

    def send(self, dest, message):
        self.sent.append((dest, message))


class _StubLog:
    """Just enough of ReplicatedLog for the manager's unit-level contract."""

    def __init__(self, frontier=0):
        self.counters = Counter()
        self.frontier = frontier
        self.delivered_total = frontier
        self.compacted = []
        self.adopted = None

    def delivered_digest(self):
        return f"digest@{self.frontier}"

    def compact_below(self, floor):
        self.compacted.append(floor)
        return max(0, floor)

    def adopt_snapshot(self, snapshot):
        self.adopted = snapshot
        self.frontier = snapshot.floor
        self.delivered_total = snapshot.delivered_total
        return snapshot.floor


def make_manager(policy=None, frontier=0, store=None):
    captured = {"payloads": [], "restored": []}
    manager = SnapshotManager(
        policy=policy or CompactionPolicy(interval=4, retain=1),
        capture=lambda: (("kv", "k", frontier),),
        restore=captured["restored"].append,
    )
    log = _StubLog(frontier=frontier)
    manager.bind_log(log)
    if store is not None:
        manager.bind_store(store)
    return manager, log, captured


class TestSnapshotManagerCapture:
    def test_maybe_snapshot_respects_the_policy_interval(self):
        manager, log, _ = make_manager(frontier=3)
        manager.maybe_snapshot()
        assert manager.counters["snapshots_taken"] == 0
        log.frontier = 4
        manager.maybe_snapshot()
        assert manager.counters["snapshots_taken"] == 1
        assert manager.latest.floor == 4
        # Truncation keeps the retained tail: floor 4 - retain 1.
        assert log.compacted == [3]
        assert manager.counters["positions_compacted"] == 3

    def test_durable_slots_rotate_keeping_the_torn_write_fallback(self):
        store = StableStore(pid=0)
        manager, log, _ = make_manager(store=store)
        for frontier in (4, 8, 12):
            log.frontier = frontier
            manager.maybe_snapshot()
        slots = [key for key, _ in store.items_with_prefix("snapshot")]
        assert len(slots) == RETAINED_SNAPSHOTS
        assert slots == [("snapshot", 1), ("snapshot", 2)]
        assert store.deletes == 1  # slot 0 compacted away


class TestSnapshotTransfer:
    def build_server_snapshot(self, rows=5, floor=40):
        payload = tuple(("kv", f"k{i}", i) for i in range(rows))
        return Snapshot(
            floor=floor, delivered_total=floor, digest="d" * 64, payload=payload
        )

    def feed(self, manager, env, snapshot, chunk_indices, items_per_chunk=2):
        for index in chunk_indices:
            manager.on_chunk(env, sender=0, message=snapshot.chunk(index, items_per_chunk))

    def test_receiver_pulls_missing_chunks_then_installs(self):
        snapshot = self.build_server_snapshot()
        manager, log, captured = make_manager(frontier=0)
        env = _Env()
        self.feed(manager, env, snapshot, [0, 1])
        # Each incomplete chunk triggers a pull for the next missing index.
        requests = [message for _, message in env.sent]
        assert [r.index for r in requests] == [1, 2]
        assert all(isinstance(r, SnapshotRequest) for r in requests)
        assert all(r.checksum == snapshot.checksum for r in requests)
        self.feed(manager, env, snapshot, [2])
        assert captured["restored"] == [snapshot.payload]
        assert log.adopted.floor == snapshot.floor
        assert manager.counters["snapshot_restores"] == 1
        assert manager.counters["snapshot_chunks_received"] == 3

    def test_chunks_arriving_out_of_order_still_assemble(self):
        snapshot = self.build_server_snapshot()
        manager, log, captured = make_manager(frontier=0)
        self.feed(manager, _Env(), snapshot, [2, 0, 1])
        assert captured["restored"] == [snapshot.payload]
        assert manager.counters["snapshot_restores"] == 1

    def test_duplicate_chunks_are_idempotent(self):
        snapshot = self.build_server_snapshot()
        manager, log, captured = make_manager(frontier=0)
        self.feed(manager, _Env(), snapshot, [0, 0, 1, 1, 2])
        assert captured["restored"] == [snapshot.payload]
        assert manager.counters["snapshot_restores"] == 1

    def test_stale_transfer_below_local_frontier_is_ignored(self):
        snapshot = self.build_server_snapshot(floor=10)
        manager, log, captured = make_manager(frontier=10)
        env = _Env()
        self.feed(manager, env, snapshot, [0, 1, 2])
        assert env.sent == []
        assert captured["restored"] == []
        assert manager.counters["snapshot_restores"] == 0

    def test_tampered_chunk_fails_assembly_verification(self):
        snapshot = self.build_server_snapshot()
        manager, log, captured = make_manager(frontier=0)
        garbled = snapshot.chunk(1, items_per_chunk=2)
        garbled = dataclasses.replace(
            garbled, items=(("\x00", "garbage"),) + garbled.items[1:]
        )
        env = _Env()
        manager.on_chunk(env, 0, snapshot.chunk(0, items_per_chunk=2))
        manager.on_chunk(env, 0, garbled)
        manager.on_chunk(env, 0, snapshot.chunk(2, items_per_chunk=2))
        assert manager.counters["snapshots_rejected"] == 1
        assert captured["restored"] == []
        assert manager.counters["snapshot_restores"] == 0

    def test_server_restarts_receiver_when_its_snapshot_moved_on(self):
        manager, log, _ = make_manager(frontier=4)
        manager.take_snapshot()
        newer = manager.latest
        env = _Env()
        stale = SnapshotRequest(floor=2, checksum=123, index=1)
        manager.on_request(env, sender=5, message=stale)
        (dest, reply), = env.sent
        assert dest == 5
        assert (reply.floor, reply.index) == (newer.floor, 0)


class TestRehydration:
    def test_torn_newest_slot_falls_back_to_previous(self):
        store = StableStore(pid=0)
        good = Snapshot(floor=8, delivered_total=8, digest="d", payload=(("kv", "k", 1),))
        torn = Snapshot(floor=12, delivered_total=12, digest="d", payload=(("kv", "k", 2),))
        torn = dataclasses.replace(torn, payload=(), checksum=torn.checksum)
        store.put(("snapshot", 0), good)
        store.put(("snapshot", 1), torn)
        manager, log, captured = make_manager(store=store)
        assert manager.rehydrate() == 8
        assert manager.counters["snapshots_rejected"] == 1
        assert ("snapshot", 1) not in store  # the torn slot was discarded
        assert captured["restored"] == [good.payload]
        assert log.adopted.floor == 8
        # The next durable snapshot must not reuse the highest seen slot.
        log.frontier = 20
        manager.take_snapshot()
        assert ("snapshot", 2) in store

    def test_rehydrate_without_store_or_slots_is_a_noop(self):
        manager, _, captured = make_manager()
        assert manager.rehydrate() == 0
        store = StableStore(pid=0)
        manager.bind_store(store)
        assert manager.rehydrate() == 0
        assert captured["restored"] == []


class TestStableStoreDelete:
    def test_delete_removes_and_counts(self):
        store = StableStore(pid=0)
        store.put(("decided", 0), "a")
        store.delete(("decided", 0))
        assert ("decided", 0) not in store
        assert store.deletes == 1

    def test_deleting_a_missing_key_is_not_counted(self):
        store = StableStore(pid=0)
        store.delete(("decided", 99))
        assert store.deletes == 0


class TestKeyValueStoreSnapshotRoundTrip:
    def populated_store(self):
        store = KeyValueStore()
        store.apply(Command.put("alice", 1, "x", 10))
        store.apply(Command.incr("bob", 7, "ctr"))
        store.apply(Command.put("alice", 1, "x", 99))  # duplicate, skipped
        return store

    def test_round_trip_preserves_digest_and_sessions(self):
        original = self.populated_store()
        clone = KeyValueStore()
        clone.restore_snapshot(original.snapshot_items())
        assert clone.digest() == original.digest()
        assert clone.snapshot() == original.snapshot()
        assert clone.applied == original.applied
        assert clone.duplicates_skipped == original.duplicates_skipped

    def test_restored_session_table_still_deduplicates(self):
        clone = KeyValueStore()
        clone.restore_snapshot(self.populated_store().snapshot_items())
        assert clone.apply(Command.put("alice", 1, "x", 99)) == "OK"  # cached result
        assert clone.get("x") == 10  # the duplicate did not re-execute
        assert clone.duplicates_skipped == 2

    def test_snapshot_items_are_deterministic(self):
        assert (
            self.populated_store().snapshot_items()
            == self.populated_store().snapshot_items()
        )

    def test_unknown_item_kind_is_rejected(self):
        with pytest.raises(ValueError):
            KeyValueStore().restore_snapshot((("mystery",),))

    def test_base_state_machine_declines_snapshots(self):
        class Opaque(StateMachine):
            def apply(self, command):
                return None

            def digest(self):
                return ""

            def snapshot(self):
                return {}

        with pytest.raises(NotImplementedError):
            Opaque().snapshot_items()
        with pytest.raises(NotImplementedError):
            Opaque().restore_snapshot(())
