"""Exactness of the identity sets (hypothesis).

A replica remembers which command identities it has applied (the session
table's ``SeqSet`` per client, packed to save memory because it grows with
history) and which values its log has decided (a plain set of
``identity_key`` values, which compaction bounds to the log's window).  Each
property below holds one of them to a plain-set reference:

* ``SeqSet`` answers membership, ``len`` and sorted iteration like a ``set``
  under interleaved, out-of-order adds, discards and repeats;
* a ``KeyValueStore`` fed a shuffled stream with duplicates keeps the session
  table, snapshot rows and digest a plain set of seqs gives, and a snapshot
  round trip keeps the digest;
* the log finds a decided ``Command`` by ``(client_id, seq)`` and an opaque
  value by equality, never one through the other, and forgets both below a
  compaction floor;
* a garbled copy of a command, on any message that carries values, is
  rejected before it can reach the index.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.consensus.commands import Batch, Command, SeqSet
from repro.consensus.messages import AcceptRequest, CatchUpReply, Decide, Forward, Promise
from repro.consensus.replicated_log import ReplicatedLog
from repro.service.state_machine import KeyValueStore
from repro.simulation.corruption import corrupt_value
from repro.testing import FakeEnvironment
from repro.util.rng import RandomSource

#: Small seqs collide often; the 64-bit extremes test the array's range.
SEQS = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.sampled_from([-(2**63), 2**63 - 1]),
)

#: A command stream as ``(client, seq)`` identities; the payload is a function
#: of the identity, so a repeated identity is an honest retransmission.
IDENTITIES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=60)),
    max_size=120,
)


def command_for(client: int, seq: int) -> Command:
    key = f"k{seq % 3}"
    if seq % 2:
        return Command.incr(f"c{client}", seq, key, seq)
    return Command.put(f"c{client}", seq, key, seq)


class _FixedOracle:
    def leader(self):
        return 0


def follower_log():
    log = ReplicatedLog(pid=1, n=3, t=1, oracle=_FixedOracle())
    env = FakeEnvironment(pid=1, n=3)
    log.on_start(env)
    return log, env


@settings(max_examples=60, deadline=None)
@given(
    operations=st.lists(st.tuples(st.sampled_from(["add", "discard"]), SEQS), max_size=200),
    probes=st.lists(SEQS, max_size=20),
)
def test_a_seq_set_answers_like_a_set(operations, probes):
    compact, reference = SeqSet(), set()
    for name, seq in operations:
        getattr(compact, name)(seq)
        getattr(reference, name)(seq)
        assert len(compact) == len(reference)
        assert (seq in compact) == (seq in reference)
    assert list(compact) == sorted(reference)
    for seq in probes:
        assert (seq in compact) == (seq in reference)
    assert SeqSet(reference) == compact


@settings(max_examples=40, deadline=None)
@given(identities=IDENTITIES)
def test_a_store_keeps_sessions_like_plain_sets(identities):
    store = KeyValueStore()
    seen = {}
    for client, seq in identities:
        store.apply(command_for(client, seq))
        seen.setdefault(f"c{client}", set()).add(seq)
    sessions = {client: tuple(sorted(seqs)) for client, seqs in seen.items()}

    assert store.sessions() == sessions
    rows = {
        row[1]: tuple(SeqSet.from_bytes(row[2]))
        for row in store.snapshot_items()
        if row[0] == "session"
    }
    assert rows == sessions
    payload = repr((sorted(store.snapshot().items()), sorted(sessions.items())))
    assert store.digest() == hashlib.sha256(payload.encode("utf-8")).hexdigest()
    distinct = sum(len(seqs) for seqs in seen.values())
    assert (store.applied, store.duplicates_skipped) == (distinct, len(identities) - distinct)

    restored = KeyValueStore()
    restored.restore_snapshot(store.snapshot_items())
    assert restored.digest() == store.digest()
    assert restored.snapshot_items() == store.snapshot_items()
    for client, seq in identities:
        restored.apply(command_for(client, seq))
    assert restored.digest() == store.digest()
    assert restored.applied == store.applied


@settings(max_examples=30, deadline=None)
@given(
    identities=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=40)),
        min_size=1,
        max_size=30,
        unique=True,
    ),
    opaque=st.lists(st.text(alphabet="xyz", min_size=1, max_size=3), max_size=4, unique=True),
    batch=st.integers(min_value=1, max_value=4),
    floor=st.integers(min_value=0, max_value=40),
)
def test_the_decided_index_finds_by_identity_and_forgets_below_the_floor(
    identities, opaque, batch, floor
):
    log, env = follower_log()
    commands = [command_for(client, seq) for client, seq in identities]
    values = [Batch(commands=tuple(commands[i : i + batch])) for i in range(0, len(commands), batch)]
    # An opaque value equal to a command's identity is still another value.
    opaque = [*opaque, (commands[0].client_id, commands[0].seq)]
    values += opaque
    position_of = {}
    for position, value in enumerate(values):
        log.on_message(env, 0, Decide(instance=position, value=value))
        for member in value.commands if isinstance(value, Batch) else (value,):
            position_of[member] = position

    # Found by identity: a copy with another payload is the same command.
    for command in commands:
        log.submit(Command.get(command.client_id, command.seq, "elsewhere"))
    for value in opaque:
        log.submit(value)
    assert log.pending == []
    # Only by identity: another client's command with a decided seq is new.
    undecided = [Command.get("stranger", commands[0].seq, "k"), "never-decided"]
    for value in undecided:
        log.submit(value)
    assert log.pending == undecided

    log.compact_below(floor)
    for value in commands + opaque:
        log.submit(value)
    forgotten = [value for value in commands + opaque if position_of[value] < floor]
    assert log.pending == undecided + forgotten


@pytest.mark.parametrize(
    "carrier",
    [
        lambda value: Decide(instance=0, value=value),
        lambda value: AcceptRequest(ballot=3, instance=0, value=value),
        lambda value: Forward(value=Batch(commands=(value,))),
        lambda value: CatchUpReply(decisions=((0, value),)),
        lambda value: Promise(ballot=3, accepted=((0, 2, value),), decisions=()),
        lambda value: Promise(ballot=3, accepted=(), decisions=((0, value),)),
    ],
    ids=["decide", "accept", "forward", "catch-up", "promise-accepted", "promise-decided"],
)
def test_a_garbled_copy_never_reaches_the_index(carrier):
    original = Command.put("alice", 1, "k", "v")
    garbled = corrupt_value(original, RandomSource(5))
    assert (garbled.client_id, garbled.seq) == (original.client_id, original.seq)
    assert garbled != original
    log, env = follower_log()
    log.on_message(env, 0, carrier(garbled))
    assert log.counters["corruption_rejections"] == 1
    assert log.decisions == {} and log.forwarded == []
    log.submit(original)
    assert log.pending == [original]
