"""Unit tests for command envelopes, batches and the shard router."""

import copy
import dataclasses
import pickle
import zlib

import pytest

from repro.consensus.commands import Batch, Command, flatten_value
from repro.service.sharding import ShardRouter, build_sharded_service
from repro.service.state_machine import KeyValueStore


class TestCommand:
    def test_constructors_carry_identity_and_payload(self):
        put = Command.put("alice", 3, "k", "v")
        assert (put.client_id, put.seq, put.op, put.key, put.args) == (
            "alice", 3, "put", "k", ("v",)
        )
        assert Command.get("a", 1, "k").op == "get"
        assert Command.delete("a", 1, "k").op == "delete"
        assert Command.cas("a", 1, "k", "old", "new").args == ("old", "new")
        assert Command.incr("a", 1, "k", 5).args == (5,)

    def test_equality_is_identity(self):
        first = Command.incr("alice", 1, "counter")
        retransmission = Command.incr("alice", 1, "counter")
        distinct = Command.incr("alice", 2, "counter")
        assert first == retransmission
        assert first != distinct
        assert len({first, retransmission, distinct}) == 2

    def test_commands_are_hashable_and_frozen(self):
        command = Command.put("a", 1, "k", "v")
        assert hash(command) == hash(Command.put("a", 1, "k", "v"))
        with pytest.raises(Exception):
            command.seq = 2


class TestCommandContract:
    """``Command`` builds itself in a hand-written ``__init__``; what the
    generated one gave callers must still hold."""

    def test_positional_and_keyword_construction_agree(self):
        positional = Command("alice", 3, "put", "k", ("v",))
        keyword = Command(client_id="alice", seq=3, op="put", key="k", args=("v",))
        assert positional == keyword
        assert positional.checksum == keyword.checksum == keyword.expected_checksum()
        assert Command("a", 1, "get", "k").args == ()

    def test_replace_keeps_the_stale_checksum(self):
        """The corruption model's path: a tampered copy carries the old CRC."""
        command = Command.put("alice", 3, "k", "v")
        tampered = dataclasses.replace(command, args=("x",))
        assert tampered.checksum == command.checksum
        assert not tampered.verify()
        assert command.verify()
        assert not Batch((tampered,)).verify()

    def test_pickling_round_trips(self):
        command = Command.cas("alice", 3, "k", None, "v")
        command.verify()  # the memo must not break the round trip
        copy = pickle.loads(pickle.dumps(command))
        assert copy == command
        assert copy.checksum == command.checksum
        assert copy.verify()

    def test_repr_is_pinned(self):
        """``repr`` names a command in agreement-violation details, which run
        fingerprints hash, so it may not drift."""
        assert repr(Command("alice", 3, "put", "k", ("v",))) == (
            "Command(client_id='alice', seq=3, op='put', key='k', args=('v',), "
            "checksum=1477676257)"
        )


class TestChecksumOnFirstRead:
    """A command's CRC-32 is computed the first time something reads it: the
    value, and everything that reads it, are what an eager CRC gave."""

    @staticmethod
    def computed(command):
        return "checksum" in vars(command)

    def test_it_is_the_crc_of_the_fields_in_declaration_order(self):
        command = Command.cas("alice", 3, "k", None, "v")
        assert not self.computed(command)
        fields = ("alice", 3, "cas", "k", (None, "v"))
        assert command.checksum == zlib.crc32(repr(fields).encode("utf-8"))
        assert self.computed(command)
        assert command.checksum == command.expected_checksum()

    @pytest.mark.parametrize(
        "read",
        [hash, repr, lambda command: command == Command.put("a", 1, "k", "v"),
         lambda command: Batch((command,)), lambda command: dataclasses.replace(command)],
        ids=["hash", "repr", "eq", "batch", "replace"],
    )
    def test_every_reader_computes_it(self, read):
        command = Command.put("a", 1, "k", "v")
        read(command)
        assert vars(command)["checksum"] == Command.put("a", 1, "k", "v").expected_checksum()

    def test_verify_does_not_and_a_commands_hash_and_equality_hold(self):
        command = Command.put("a", 1, "k", "v")
        assert command.verify() and not self.computed(command)
        twin = Command.put("a", 1, "k", "v")
        assert command == twin and hash(command) == hash(twin) == twin.checksum
        assert command != Command.put("a", 1, "k", "w")
        assert Command.checksum is None  # the field's default, read on the class

    def test_a_garbled_copy_carries_the_originals_value(self):
        command = Command.put("alice", 3, "k", "v")
        garbled = dataclasses.replace(command, args=("x",))
        assert garbled.checksum == Command.put("alice", 3, "k", "v").expected_checksum()
        assert vars(garbled)["_intact"] is None
        assert not garbled.verify()
        assert command.verify()

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize(
        "round_trip",
        [lambda command: pickle.loads(pickle.dumps(command)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickling_and_copying_give_an_equal_command(self, round_trip, read_first):
        command = Command.cas("alice", 3, "k", None, "v")
        if read_first:
            command.checksum
        twin = round_trip(command)
        assert twin == command and twin.checksum == command.checksum
        assert twin.verify()

    def test_a_lease_served_read_never_computes_it(self):
        service = build_sharded_service(num_shards=1, n=3, t=1, seed=3, leases=True)
        service.run_until(60.0)
        served = service.counters()["lease_reads_served"]
        read = Command.get("reader", 1, "key-0")
        service.submit_read(read, gateway=service.leaders()[0])
        assert service.counters()["lease_reads_served"] == served + 1
        service.run_until(80.0)
        assert not self.computed(read)


class TestCommandIdentityTypes:
    """``(client_id, seq)`` is a command's identity, so both must have one type:
    a float or bool seq compares equal to an int one and would merge two
    distinct commands in the exactly-once session table."""

    @pytest.mark.parametrize("seq", [1.0, "1", True, None])
    def test_a_seq_that_is_not_an_int_is_rejected(self, seq):
        with pytest.raises(TypeError, match="seq must be an int"):
            Command("c", seq, "put", "k", ("a",))

    @pytest.mark.parametrize("client_id", [1, None, ("c",)])
    def test_a_client_id_that_is_not_a_str_is_rejected(self, client_id):
        with pytest.raises(TypeError, match="client_id must be a str"):
            Command(client_id, 1, "put", "k", ("a",))

    def test_two_distinct_commands_cannot_merge_through_a_float_seq(self):
        store = KeyValueStore()
        store.apply(Command("c", 1, "put", "k", ("b",)))
        with pytest.raises(TypeError):
            store.apply(Command("c", 1.0, "put", "k", ("a",)))
        assert store.get("k") == "b"
        assert store.duplicates_skipped == 0


class TestBatch:
    def test_flatten_value_unwraps_batches_only(self):
        a = Command.put("a", 1, "k", 1)
        b = Command.put("a", 2, "k", 2)
        assert flatten_value(Batch(commands=(a, b))) == (a, b)
        assert flatten_value(a) == (a,)
        assert flatten_value("legacy") == ("legacy",)

    def test_len(self):
        assert len(Batch(commands=(1, 2, 3))) == 3


class TestShardRouter:
    def test_mapping_is_deterministic_and_in_range(self):
        router = ShardRouter(num_shards=4)
        for index in range(100):
            key = f"key-{index}"
            shard = router.shard_for(key)
            assert 0 <= shard < 4
            assert router.shard_for(key) == shard

    def test_every_shard_receives_keys(self):
        router = ShardRouter(num_shards=4)
        hit = {router.shard_for(f"key-{index}") for index in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_single_shard_maps_everything_to_zero(self):
        router = ShardRouter(num_shards=1)
        assert {router.shard_for(f"k{i}") for i in range(20)} == {0}

    def test_num_shards_validated(self):
        with pytest.raises(ValueError):
            ShardRouter(num_shards=0)
