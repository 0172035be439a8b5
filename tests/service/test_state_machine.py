"""Unit tests for the key-value state machine and its exactly-once sessions."""

import pytest

from repro.consensus.commands import Command
from repro.service.state_machine import KeyValueStore


class TestOperations:
    def test_put_and_get(self):
        store = KeyValueStore()
        assert store.apply(Command.put("a", 1, "k", "v")) == "OK"
        assert store.apply(Command.get("a", 2, "k")) == "v"
        assert store.get("k") == "v"
        assert len(store) == 1

    def test_get_absent_returns_none(self):
        store = KeyValueStore()
        assert store.apply(Command.get("a", 1, "nope")) is None

    def test_delete_reports_existence(self):
        store = KeyValueStore()
        store.apply(Command.put("a", 1, "k", "v"))
        assert store.apply(Command.delete("a", 2, "k")) is True
        assert store.apply(Command.delete("a", 3, "k")) is False
        assert store.get("k") is None

    def test_cas_swaps_only_on_match(self):
        store = KeyValueStore()
        store.apply(Command.put("a", 1, "k", "old"))
        assert store.apply(Command.cas("a", 2, "k", "wrong", "new")) is False
        assert store.get("k") == "old"
        assert store.apply(Command.cas("a", 3, "k", "old", "new")) is True
        assert store.get("k") == "new"

    def test_cas_against_absent_key(self):
        store = KeyValueStore()
        assert store.apply(Command.cas("a", 1, "k", None, "v")) is True
        assert store.get("k") == "v"

    def test_incr_counts_from_zero_and_accumulates(self):
        store = KeyValueStore()
        assert store.apply(Command.incr("a", 1, "c")) == 1
        assert store.apply(Command.incr("a", 2, "c", 4)) == 5

    def test_incr_resets_non_integer_values_deterministically(self):
        store = KeyValueStore()
        store.apply(Command.put("a", 1, "c", "text"))
        assert store.apply(Command.incr("a", 2, "c")) == 1

    def test_unknown_op_rejected(self):
        store = KeyValueStore()
        with pytest.raises(ValueError):
            store.apply(Command(client_id="a", seq=1, op="frobnicate", key="k"))

    def test_every_shape_the_submit_check_admits_runs_and_no_other(self):
        """``ARITIES`` is what a replica checks at submit; each shape it
        admits runs, and an arity off by one is refused by the check."""
        for op, arities in KeyValueStore.ARITIES.items():
            for arity in arities:
                command = Command("a", 1, op, "k", (1,) * arity)
                KeyValueStore.check_operation(command)
                KeyValueStore().apply(command)
            for arity in {max(arities) + 1, min(arities) - 1} - {-1}:
                with pytest.raises(ValueError, match="argument"):
                    KeyValueStore.check_operation(Command("a", 1, op, "k", (1,) * arity))
        with pytest.raises(ValueError, match="unknown operation"):
            KeyValueStore.check_operation(Command("a", 1, "frobnicate", "k"))

    def test_non_command_rejected(self):
        store = KeyValueStore()
        with pytest.raises(TypeError):
            store.apply("raw-value")


class TestExactlyOnce:
    def test_reapplication_is_a_noop_returning_the_original_result(self):
        store = KeyValueStore()
        first = store.apply(Command.incr("a", 1, "c"))
        duplicate = store.apply(Command.incr("a", 1, "c"))
        assert first == duplicate == 1
        assert store.get("c") == 1
        assert store.applied == 1
        assert store.duplicates_skipped == 1

    def test_two_distinct_increments_both_apply(self):
        # The duplicate-command hazard: equal effects, distinct identities.
        store = KeyValueStore()
        store.apply(Command.incr("a", 1, "c"))
        store.apply(Command.incr("a", 2, "c"))
        assert store.get("c") == 2
        assert store.applied == 2

    def test_out_of_order_seqs_from_sharded_sessions_all_apply(self):
        # A shard sees a gappy subset of a client's seq space, not in order.
        store = KeyValueStore()
        store.apply(Command.incr("a", 7, "c"))
        store.apply(Command.incr("a", 3, "c"))
        store.apply(Command.incr("a", 11, "c"))
        assert store.get("c") == 3
        assert store.is_applied("a", 3)
        assert store.is_applied("a", 7)
        assert store.is_applied("a", 11)
        assert not store.is_applied("a", 5)

    def test_sessions_are_per_client(self):
        store = KeyValueStore()
        store.apply(Command.incr("a", 1, "c"))
        store.apply(Command.incr("b", 1, "c"))
        assert store.get("c") == 2
        assert store.last_seq("a") == 1
        assert store.last_seq("b") == 1
        assert store.last_seq("nobody") == -1

    def test_last_result_tracks_latest_applied(self):
        store = KeyValueStore()
        store.apply(Command.incr("a", 1, "c"))
        store.apply(Command.put("a", 2, "k", "v"))
        assert store.last_result("a") == "OK"


class TestDigest:
    def test_equal_histories_equal_digests(self):
        commands = [
            Command.put("a", 1, "x", "1"),
            Command.incr("b", 1, "c", 2),
            Command.delete("a", 2, "x"),
        ]
        first, second = KeyValueStore(), KeyValueStore()
        for command in commands:
            first.apply(command)
            second.apply(command)
        assert first.digest() == second.digest()

    def test_different_data_different_digest(self):
        first, second = KeyValueStore(), KeyValueStore()
        first.apply(Command.put("a", 1, "x", "1"))
        second.apply(Command.put("a", 1, "x", "2"))
        assert first.digest() != second.digest()

    def test_digest_covers_session_table(self):
        # Same materialised data, different applied identities.
        first, second = KeyValueStore(), KeyValueStore()
        first.apply(Command.put("a", 1, "x", "1"))
        second.apply(Command.put("b", 1, "x", "1"))
        assert first.snapshot() == second.snapshot()
        assert first.digest() != second.digest()
