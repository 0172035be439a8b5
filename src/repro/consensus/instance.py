"""The ballot sentinel of the consensus layer, and why per-position state is safe.

Safety (agreement + validity) holds in a fully asynchronous system with up to ``t``
crashes — it relies only on quorum intersection (``t < n/2``) and ballot ordering,
never on the behaviour of the leader oracle.  This is the *indulgence* property the
paper discusses in Section 1.1: a misbehaving oracle can only delay decisions, never
produce wrong ones.  Liveness is obtained when the oracle stabilises on a correct
leader (Theorem 5: majority of correct processes + intermittent rotating t-star).

The protocol is Multi-Paxos, and all of its state lives in
:class:`~repro.consensus.replicated_log.ReplicatedLog`, once per process:
everything about a *ballot* — the log-wide promise, the ``Prepare``/``Promise``
exchange, ballot ownership and the vote count of the position in flight — and,
per log position, two maps.  The acceptor map ``_accepted`` holds the
``(ballot, value)`` accepted at each undecided position; the learner map
``decisions`` holds the value learnt at each decided one.  A position is in at
most one of them, and every ``AcceptRequest`` is checked against the promise
before it may enter the first.

Stable storage
--------------
Quorum intersection only guarantees agreement while acceptors *remember* what
they accepted.  When a :class:`~repro.storage.stable_store.StableStore` is
attached, every accepted value is persisted **before** the ``Accepted`` that
reveals it leaves the process (write-ahead, like an fsync before the reply),
under the key ``("acceptor", position)`` — for a decided position too.  A
recovered incarnation rehydrates the records of its undecided positions into
the acceptor map, so a restart can no longer make a quorum forget a value it
may have chosen — the quorum-amnesia hazard of storage-less crash recovery
(see ``tests/integration/test_quorum_amnesia.py``).
"""

#: Sentinel meaning "no ballot yet" (nothing promised, nothing accepted).
NO_BALLOT = -1
