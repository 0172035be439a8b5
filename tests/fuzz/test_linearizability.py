"""The Wing–Gong linearizability checker against hand-written histories.

The checker is the campaign's strongest oracle, so it gets its own oracle
tests: known-linearizable histories (including tricky concurrent ones that
*require* reordering to explain) must pass, known-non-linearizable ones
(stale reads, lost acknowledged writes, impossible cas outcomes) must fail,
and — property — any spec-conforming sequential history passes, in any
arrival order of its operations and with any subset of results masked as
RESULT_UNKNOWN.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.service_metrics import Violation
from repro.fuzz.executor import linearizability_violations
from repro.fuzz.linearizability import (
    apply_kv,
    check_history,
    sequential_history,
)
from repro.service.clients import RESULT_UNKNOWN, OperationRecord


def op(client, seq, name, key, args, t0, t1, result):
    return OperationRecord(
        client_id=client,
        seq=seq,
        op=name,
        key=key,
        args=tuple(args),
        invoked_at=float(t0),
        completed_at=float(t1),
        result=result,
    )


class TestKvSpec:
    def test_matches_store_semantics(self):
        state = (False, None)
        result, state = apply_kv(state, "get", ())
        assert result is None
        result, state = apply_kv(state, "cas", (None, "x"))  # absent compares as None
        assert result is True and state == (True, "x")
        result, state = apply_kv(state, "put", ("y",))
        assert result == "OK"
        result, state = apply_kv(state, "incr", (3,))  # non-int value resets to 0
        assert result == 3 and state == (True, 3)
        result, state = apply_kv(state, "delete", ())
        assert result is True and state == (False, None)
        result, state = apply_kv(state, "delete", ())
        assert result is False


class TestLinearizableHistories:
    def test_empty_history(self):
        assert check_history([]).ok

    def test_sequential_read_your_write(self):
        history = [
            op("c0", 1, "put", "k", ("a",), 0, 1, "OK"),
            op("c0", 2, "get", "k", (), 2, 3, "a"),
        ]
        assert check_history(history).ok

    def test_concurrent_ops_can_reorder(self):
        # The get overlaps the put and returns the OLD value: legal — the get
        # linearizes before the put.
        history = [
            op("c0", 1, "put", "k", ("new",), 0, 10, "OK"),
            op("c1", 1, "get", "k", (), 1, 2, None),
        ]
        assert check_history(history).ok

    def test_concurrent_cas_resolution(self):
        # Two overlapping cas(None -> x) ops: exactly one may win.
        history = [
            op("c0", 1, "cas", "k", (None, "x"), 0, 5, True),
            op("c1", 1, "cas", "k", (None, "y"), 1, 6, False),
            op("c0", 2, "get", "k", (), 7, 8, "x"),
        ]
        assert check_history(history).ok

    def test_unknown_results_are_unconstrained(self):
        history = [
            op("c0", 1, "put", "k", ("a",), 0, 1, RESULT_UNKNOWN),
            op("c0", 2, "get", "k", (), 2, 3, RESULT_UNKNOWN),
        ]
        assert check_history(history).ok

    def test_keys_are_independent(self):
        # Per-key locality: interleaved ops on distinct keys never interact.
        history = [
            op("c0", 1, "put", "a", ("1",), 0, 9, "OK"),
            op("c1", 1, "put", "b", ("2",), 1, 2, "OK"),
            op("c1", 2, "get", "b", (), 3, 4, "2"),
            op("c0", 2, "get", "a", (), 10, 11, "1"),
        ]
        assert check_history(history).ok


class TestNonLinearizableHistories:
    def test_stale_read_after_acknowledged_put(self):
        # put completed strictly before the get was invoked, yet the get
        # missed it — the classic linearizability violation.
        history = [
            op("c0", 1, "put", "k", ("a",), 0, 1, "OK"),
            op("c1", 1, "get", "k", (), 2, 3, None),
        ]
        verdict = check_history(history)
        assert not verdict.ok
        assert verdict.failures[0].key == "k"

    def test_lost_acknowledged_write(self):
        history = [
            op("c0", 1, "put", "k", ("a",), 0, 1, "OK"),
            op("c0", 2, "put", "k", ("b",), 2, 3, "OK"),
            op("c1", 1, "get", "k", (), 4, 5, "a"),  # b vanished
        ]
        assert not check_history(history).ok

    def test_both_cas_succeed(self):
        history = [
            op("c0", 1, "cas", "k", (None, "x"), 0, 1, True),
            op("c1", 1, "cas", "k", (None, "y"), 2, 3, True),  # must have failed
        ]
        assert not check_history(history).ok

    def test_impossible_incr_value(self):
        history = [
            op("c0", 1, "incr", "k", (1,), 0, 1, 1),
            op("c0", 2, "incr", "k", (1,), 2, 3, 5),  # skipped 2..4
        ]
        assert not check_history(history).ok

    def test_failure_is_reported_per_key(self):
        history = [
            op("c0", 1, "put", "good", ("a",), 0, 1, "OK"),
            op("c0", 2, "get", "good", (), 2, 3, "a"),
            op("c1", 1, "put", "bad", ("x",), 0, 1, "OK"),
            op("c1", 2, "get", "bad", (), 2, 3, "y"),
        ]
        verdict = check_history(history)
        assert not verdict.ok
        assert [failure.key for failure in verdict.failures] == ["bad"]


# ------------------------------------------------------------------ properties --
operations = st.tuples(
    st.sampled_from(["put", "get", "delete", "incr", "cas"]),
    st.sampled_from(["k0", "k1", "k2"]),
).map(
    lambda pair: (
        pair[0],
        pair[1],
        {
            "put": ("v",),
            "get": (),
            "delete": (),
            "incr": (1,),
            "cas": (None, "c"),
        }[pair[0]],
    )
)


class TestSequentialProperty:
    @given(ops=st.lists(operations, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_sequential_histories_always_pass(self, ops):
        history = sequential_history(ops)
        assert check_history(history).ok

    @given(
        ops=st.lists(operations, min_size=1, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_and_masking_invariance(self, ops, data):
        history = sequential_history(ops)
        shuffled = data.draw(st.permutations(history))
        masked = [
            record
            if not data.draw(st.booleans())
            else OperationRecord(
                client_id=record.client_id,
                seq=record.seq,
                op=record.op,
                key=record.key,
                args=record.args,
                invoked_at=record.invoked_at,
                completed_at=record.completed_at,
                result=RESULT_UNKNOWN,
            )
            for record in shuffled
        ]
        assert check_history(masked).ok


class TestExecutorProbe:
    """``linearizability_violations`` merges every client's history and reports
    one finding per failing key, on no shard (-1): the merged history is
    checked whole."""

    @pytest.mark.parametrize(
        "read, expected",
        [
            ("a", []),
            (
                None,
                [
                    Violation(
                        kind="linearizability",
                        shard=-1,
                        detail=(
                            "key 'k': no linearization of 2 completed operation(s) "
                            "matches the key-value specification; first ops: "
                            "put(k,'a')->'OK', get(k)->None"
                        ),
                    )
                ],
            ),
        ],
        ids=["clean_history", "stale_get"],
    )
    def test_a_get_after_a_completed_put(self, read, expected):
        writer = SimpleNamespace(history=[op("c0", 1, "put", "k", ("a",), 0, 1, "OK")])
        reader = SimpleNamespace(history=[op("c1", 1, "get", "k", (), 2, 3, read)])
        assert linearizability_violations([writer, reader]) == expected
