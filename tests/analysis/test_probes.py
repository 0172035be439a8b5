"""The record's exactly-once, divergence and durability probes
(:mod:`repro.analysis.service_metrics`) on hand-built services: every branch
of each verdict, without running a protocol to reach it."""

from types import SimpleNamespace

import pytest

from repro.analysis.service_metrics import (
    Violation,
    divergence_violations,
    durability_violations,
    session_violations,
)
from repro.service.clients import OperationRecord

A, B, C, D = ("a" * 64, "b" * 64, "c" * 64, "d" * 64)


def sessions_service(*shard_sessions):
    """One shard per entry: the sessions its first correct replica applied,
    or ``None`` for a shard with no correct replica."""

    def correct_replicas(shard):
        sessions = shard_sessions[shard]
        if sessions is None:
            return []
        return [SimpleNamespace(state_machine=SimpleNamespace(sessions=lambda: sessions))]

    return SimpleNamespace(num_shards=len(shard_sessions), correct_replicas=correct_replicas)


def phantom(shard, client_id, seq, issued):
    return Violation(
        kind="exactly-once",
        shard=shard,
        detail=(
            f"phantom command ({client_id!r}, seq={seq}) applied "
            f"but the client issued only {issued}"
        ),
    )


@pytest.mark.parametrize(
    "shard_sessions, expected",
    [
        (({"a": (0, 1)},), [phantom(0, "a", 0, 3)]),
        (({"a": (3, 4)},), [phantom(0, "a", 4, 3)]),
        (({"ghost": (1,)},), [phantom(0, "ghost", 1, 0)]),
        (
            ({"a": (1,)}, {"a": (1, 2)}),
            [
                Violation(
                    kind="exactly-once",
                    shard=0,
                    detail="command ('a', seq=1) applied on 2 shards [0, 1] — keys map to one shard",
                )
            ],
        ),
        ((None, {"a": (9,)}), [phantom(1, "a", 9, 3)]),
    ],
    ids=[
        "seq_below_one",
        "seq_above_issued",
        "unknown_client",
        "cross_shard_duplicate",
        "shard_without_correct_replica",
    ],
)
def test_session_probe(shard_sessions, expected):
    clients = [SimpleNamespace(client_id="a", seq=3)]
    assert session_violations(sessions_service(*shard_sessions), clients) == expected


def replica(pid, advance, digest):
    return SimpleNamespace(
        pid=pid,
        log=SimpleNamespace(delivered_total=advance),
        state_machine=SimpleNamespace(digest=lambda: digest),
    )


@pytest.mark.parametrize(
    "correct, crashed, expected",
    [
        (
            [replica(2, 5, B), replica(1, 5, A), replica(0, 5, A)],
            [],
            [
                "replicas that delivered 5 commands disagree on state: "
                "pids [0, 1] at aaaaaaaaaaaa; pids [2] at bbbbbbbbbbbb"
            ],
        ),
        ([replica(0, 5, A), replica(1, 5, A), replica(2, 3, B)], [], []),
        (
            [replica(0, 7, A), replica(1, 7, B), replica(2, 3, C), replica(3, 3, D)],
            [],
            [
                "replicas that delivered 3 commands disagree on state: "
                "pids [2] at cccccccccccc; pids [3] at dddddddddddd",
                "replicas that delivered 7 commands disagree on state: "
                "pids [0] at aaaaaaaaaaaa; pids [1] at bbbbbbbbbbbb",
            ],
        ),
        ([replica(0, 5, A), replica(1, 5, A)], [replica(2, 5, B)], []),
    ],
    ids=[
        "same_advance_two_digests",
        "laggard_at_a_lower_advance",
        "two_advances_in_advance_order",
        "crashed_replica_ignored",
    ],
)
def test_divergence_probe(correct, crashed, expected):
    service = SimpleNamespace(
        num_shards=1,
        correct_replicas=lambda shard: correct,
        replicas=lambda shard: correct + crashed,
    )
    assert divergence_violations(service) == [
        Violation(kind="divergence", shard=0, detail=detail) for detail in expected
    ]


def holder(applied):
    """A replica that has (or has not) applied every command."""
    return SimpleNamespace(command_applied=lambda client_id, seq: applied)


@pytest.mark.parametrize(
    "op, crashed",
    [("put", [holder(True)]), ("get", [])],
    ids=["applied_only_at_a_crashed_replica", "audited_get_with_leases_off"],
)
def test_durability_probe_reports(op, crashed):
    """An acknowledged operation applied at no *correct* replica is lost; with
    leases off, the audit trail exempts no get."""
    operation = OperationRecord("c", 1, op, "k", (), 1.0, 2.0, None)
    correct = [holder(False)]
    service = SimpleNamespace(
        leases=False,
        read_audits=[[operation]],
        shard_for=lambda key: 0,
        correct_replicas=lambda shard: correct,
        replicas=lambda shard: correct + crashed,
    )
    (violation,) = durability_violations(service, [SimpleNamespace(history=[operation])])
    assert (violation.kind, violation.shard) == ("durability", 0)
    assert f"seq=1, {op} 'k'" in violation.detail
