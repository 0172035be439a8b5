"""Acceptor and learner state of one log position.

Safety (agreement + validity) holds in a fully asynchronous system with up to ``t``
crashes — it relies only on quorum intersection (``t < n/2``) and ballot ordering,
never on the behaviour of the leader oracle.  This is the *indulgence* property the
paper discusses in Section 1.1: a misbehaving oracle can only delay decisions, never
produce wrong ones.  Liveness is obtained when the oracle stabilises on a correct
leader (Theorem 5: majority of correct processes + intermittent rotating t-star).

The protocol is Multi-Paxos: everything about a *ballot* — the log-wide promise,
the ``Prepare``/``Promise`` exchange, ballot ownership and the vote count of the
position in flight — lives in :mod:`repro.consensus.replicated_log`, once per
process.  What is left per position, and held by the class below, is what an
acceptor accepted there and what a learner learnt there.  The replicated log
owns a collection of these and checks every ``AcceptRequest`` against its
promise before it lets one :meth:`~ConsensusInstance.accept`.

Stable storage
--------------
Quorum intersection only guarantees agreement while acceptors *remember* what
they accepted.  When a :class:`~repro.storage.stable_store.StableStore` is
attached (``store=``), an accepted value is persisted **before** the
``Accepted`` that reveals it leaves the process (write-ahead, like an fsync
before the reply), under the key ``("acceptor", instance)``.  A recovered
incarnation rehydrates it through :meth:`~ConsensusInstance.restore`, so a
restart can no longer make a quorum forget a value it may have chosen — the
quorum-amnesia hazard of storage-less crash recovery (see
``tests/integration/test_quorum_amnesia.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.storage.stable_store import StableStore

#: Sentinel meaning "no ballot yet" (nothing promised, nothing accepted).
NO_BALLOT = -1


class ConsensusInstance:
    """What one process accepted and learnt at one log position."""

    __slots__ = (
        "instance",
        "accepted_ballot",
        "accepted_value",
        "decided",
        "decided_value",
        "_on_decide",
        "_store",
    )

    def __init__(
        self,
        instance: int,
        on_decide: Callable[[int, Any], None],
        store: Optional["StableStore"] = None,
    ) -> None:
        self.instance = instance
        # Acceptor state.
        self.accepted_ballot = NO_BALLOT
        self.accepted_value: Any = None
        # Learner state (``decided_value`` is None until ``decided``).
        self.decided = False
        self.decided_value: Any = None
        self._on_decide = on_decide
        #: Optional stable store; when set, an accepted value is written
        #: through before the caller reveals it (write-ahead durability).
        self._store = store

    def restore(self, accepted_ballot: int, accepted_value: Any) -> None:
        """Rehydrate the acceptor fields from stable storage (recovery path)."""
        self.accepted_ballot = accepted_ballot
        self.accepted_value = accepted_value

    def accept(self, ballot: int, value: Any) -> None:
        """Accept *value* at *ballot*, durably when a store is attached.

        The caller holds the log-wide promise and has already checked
        ``ballot`` against it; a promise is never below an accepted ballot, so
        the ballots passed here never decrease.
        """
        self.accepted_ballot = ballot
        self.accepted_value = value
        if self._store is not None:
            self._store.put(("acceptor", self.instance), (ballot, value))

    def learn(self, value: Any) -> None:
        """Learn *value* as the decision (idempotent).

        The value comes from a ``Decide``, a catch-up reply, a ``Promise``'s
        decisions or this process's own vote count — in every case it was
        accepted by a quorum first, so learning cannot contradict a decision.
        """
        if self.decided:
            return
        self.decided = True
        self.decided_value = value
        self._on_decide(self.instance, value)
