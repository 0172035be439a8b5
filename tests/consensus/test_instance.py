"""Unit tests for the per-position acceptor/learner record.

Ballot-level behaviour — the log-wide promise, Prepare/Promise/Nack, ballot
ownership, vote counting — is the replicated log's and is tested in
``test_replicated_log.py``; what is left per position is what was accepted
there and what was learnt there.
"""

from repro.consensus.instance import NO_BALLOT, ConsensusInstance
from repro.storage.stable_store import StableStore


def make(instance=0, store=None):
    decisions = []
    inst = ConsensusInstance(
        instance, lambda i, v: decisions.append((i, v)), store=store
    )
    return inst, decisions


class TestAcceptorRole:
    def test_starts_with_nothing_accepted(self):
        inst, _ = make()
        assert inst.accepted_ballot == NO_BALLOT
        assert inst.accepted_value is None

    def test_accept_records_ballot_and_value(self):
        inst, _ = make()
        inst.accept(5, "v")
        assert (inst.accepted_ballot, inst.accepted_value) == (5, "v")

    def test_later_accept_replaces_the_earlier_one(self):
        inst, _ = make()
        inst.accept(5, "old")
        inst.accept(9, "new")
        assert (inst.accepted_ballot, inst.accepted_value) == (9, "new")

    def test_accept_is_written_through_under_the_position_key(self):
        store = StableStore(pid=1)
        inst, _ = make(instance=7, store=store)
        inst.accept(5, "v")
        assert store.snapshot() == {("acceptor", 7): (5, "v")}
        assert store.writes == 1

    def test_restore_rehydrates_what_accept_persisted(self):
        store = StableStore(pid=1)
        dead, _ = make(instance=7, store=store)
        dead.accept(5, "v")
        reborn, _ = make(instance=7, store=store)
        reborn.restore(*store.get(("acceptor", 7)))
        assert (reborn.accepted_ballot, reborn.accepted_value) == (5, "v")
        assert store.writes == 1  # rehydration writes nothing back

    def test_accepting_does_not_decide(self):
        inst, decisions = make()
        inst.accept(5, "v")
        assert not inst.decided and decisions == []


class TestLearnerRole:
    def test_learn_decides_and_notifies_once(self):
        inst, decisions = make(instance=3)
        inst.learn("x")
        inst.learn("x")
        assert decisions == [(3, "x")]
        assert inst.decided and inst.decided_value == "x"

    def test_learning_leaves_the_acceptor_record_alone(self):
        inst, _ = make()
        inst.accept(5, "stale")  # accepted under a ballot that never won
        inst.learn("chosen")
        assert (inst.accepted_ballot, inst.accepted_value) == (5, "stale")
        assert inst.decided_value == "chosen"

    def test_accept_after_the_decision_is_still_recorded(self):
        # A late AcceptRequest for a decided position is answered like any
        # other (the leader may still be collecting its quorum).
        inst, decisions = make()
        inst.learn("x")
        inst.accept(9, "x")
        assert inst.accepted_ballot == 9 and decisions == [(0, "x")]


def test_instances_carry_no_dict():
    # One per resident log position: slotted, like the messages.
    inst, _ = make()
    assert not hasattr(inst, "__dict__")
