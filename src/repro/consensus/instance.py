"""The ballot sentinel of the consensus layer, and why per-position state is safe.

Safety (agreement + validity) holds in a fully asynchronous system with up to
``t`` crashes: it rests only on quorum intersection (``t < n/2``) and ballot
ordering, never on the leader oracle — the *indulgence* of Section 1.1, where a
misbehaving oracle can delay decisions but never make wrong ones.  Liveness
needs the oracle to stabilise on a correct leader (Theorem 5).

The protocol is Multi-Paxos.  Its rules live in
:class:`~repro.consensus.replicated_log.Ballots`, once per process, with no
environment, timer or oracle; its acceptor map ``Ballots.accepted`` holds the
``(ballot, value)`` accepted at each undecided position, and the
:class:`~repro.consensus.replicated_log.ReplicatedLog` around it keeps the
learner map ``decisions``.  A position is in at most one of the two maps, and
every ``AcceptRequest`` — the leader's own included — is checked against the
log-wide promise first.  With stable storage each accept is written before its
``Accepted`` leaves, so a restart cannot make a quorum forget a value it may
have chosen (the quorum-amnesia hazard of storage-less crash recovery, see
``tests/integration/test_quorum_amnesia.py``).
"""

#: Sentinel meaning "no ballot yet" (nothing promised, nothing accepted).
NO_BALLOT = -1
