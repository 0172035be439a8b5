"""Stable storage for crash-recovery: durable per-process state that survives restarts.

The simulator's crash-recovery model (PR 3) restarts a recovered process *from
its initial state*: the :class:`~repro.simulation.system.System` rebuilds the
algorithm object through its process factory, and the replicated log converges
again through catch-up.  That is honest crash recovery **without stable
storage** — and it carries the classic quorum-amnesia hazard: an acceptor that
promised a ballot, crashed and recovered will happily re-promise a *lower*
ballot, so back-to-back restarts can silently shrink the promise quorum behind
an in-flight proposal and break agreement (see
``tests/integration/test_quorum_amnesia.py`` for the deterministic schedule).

This module is the cure, modelled after the durable write-ahead state real
consensus implementations fsync before answering:

* a :class:`StableStore` is the durable key-value area of **one** process.  It
  belongs to the storage layer, not to the algorithm incarnation — a crash
  destroys the algorithm object but never the store, and the recovered
  incarnation rehydrates from it (``ReplicatedLog.attach_storage``);
* a :class:`StableStorage` is the per-system registry handing each pid its
  store (and aggregating write accounting for reports and benchmarks);
* a :class:`WriteCostModel` optionally charges each durable write on the
  virtual clock: the cost of the writes a handler performs is added to the
  delay of every message that handler sends afterwards — the simulator's
  rendering of *fsync before reply*.  With no cost model (the default) writes
  are free, so enabling storage changes durability semantics without touching
  the timing of a run.

What the consensus layer persists (all write-ahead, i.e. before the message
that reveals the state leaves the process):

=======================  =====================================================
key                      value
=======================  =====================================================
``("promised",)``        the one log-wide promised ballot (a leader promises
                         its own ballot too, so a restarted proposer never
                         reuses one)
``("acceptor", pos)``    ``(accepted_ballot, accepted_value)`` of log position
                         ``pos``
``("decided", pos)``     the decided value of log position ``pos``
``("snapshot", slot)``   a :class:`~repro.storage.snapshot.Snapshot` capturing
                         the applied state up to its floor (written by the
                         :class:`~repro.storage.snapshot.SnapshotManager`; the
                         last two slots are retained so a torn newest write
                         falls back to the previous one)
=======================  =====================================================

Compaction (:mod:`repro.storage.snapshot`) **deletes** durable entries below
the snapshot floor once a snapshot covers them; deletions are free on the
virtual clock (an unlink needs no fsync-before-reply) but counted in
:attr:`StableStore.deletes` so benchmarks can assert the store itself stays
bounded, not just the in-memory log.

Volatile submissions (``pending`` / ``forwarded`` commands not yet decided) are
deliberately *not* persisted: losing them is plain message loss, which clients
already cover with retransmission — exactly-once is preserved by the decided
log plus the state machine's session table, both of which rehydration restores.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.util.validation import require_non_negative

#: Sentinel distinguishing "absent" from a stored None in delete().
_MISSING = object()


class WriteCostModel:
    """Virtual-time cost of one durable write (the fsync model).

    Parameters
    ----------
    per_write:
        Flat cost charged for every write (the fsync latency).
    per_byte:
        Additional cost per byte of the value's textual representation
        (bandwidth-bound devices); 0 models a latency-bound device.

    The cost is *charged on the virtual clock* by the simulation shell: every
    message the writing handler sends after the write is delayed by the
    accumulated cost of that handler's writes, mirroring a process that fsyncs
    before replying.  Timers are unaffected (a local clock keeps ticking
    through an fsync).
    """

    def __init__(self, per_write: float = 0.5, per_byte: float = 0.0) -> None:
        require_non_negative(per_write, "per_write")
        require_non_negative(per_byte, "per_byte")
        self.per_write = per_write
        self.per_byte = per_byte

    def cost(self, key: object, value: object) -> float:
        """Return the virtual-time cost of durably writing ``key = value``."""
        cost = self.per_write
        if self.per_byte:
            cost += self.per_byte * len(repr(value))
        return cost

    def describe(self) -> str:
        return f"write-cost(per_write={self.per_write:g}, per_byte={self.per_byte:g})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteCostModel({self.describe()})"


class StableStore:
    """The durable key-value area of one process.

    The store survives crashes and recoveries by construction: it is owned by
    the :class:`StableStorage` registry (wired into the
    :class:`~repro.simulation.system.System`), never by the algorithm object a
    recovery replaces.  Keys are small tuples (see the module docstring for the
    schema the consensus layer uses); values are ordinary Python objects — the
    in-memory durable map stands in for an fsynced file, which is all the
    discrete-event model needs.

    Attributes
    ----------
    writes / reads:
        Monotone operation counters (reports, benchmarks).
    total_cost:
        Total virtual-time cost charged by the cost model over all writes.
    """

    def __init__(self, pid: int, cost_model: Optional[WriteCostModel] = None) -> None:
        self.pid = pid
        self.cost_model = cost_model
        self._data: Dict[Any, Any] = {}
        self.writes = 0
        self.reads = 0
        self.deletes = 0
        self.total_cost = 0.0
        self._charge: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------ wiring --
    def bind_charge(self, charge: Callable[[float], None]) -> None:
        """Install the callback that charges write costs on the virtual clock.

        The system binds this to the owning shell's ``charge_storage_write``;
        rebinding (at recovery) is idempotent.  With no cost model the callback
        is never invoked.
        """
        self._charge = charge

    # ------------------------------------------------------------------ access --
    def put(self, key: Any, value: Any) -> None:
        """Durably write ``key = value`` (write-ahead: call *before* sending
        any message that reveals the new state)."""
        self._data[key] = value
        self.writes += 1
        if self.cost_model is not None:
            cost = self.cost_model.cost(key, value)
            if cost:
                self.total_cost += cost
                if self._charge is not None:
                    self._charge(cost)

    def get(self, key: Any, default: Any = None) -> Any:
        """Read the durable value under *key* (``default`` when absent)."""
        self.reads += 1
        return self._data.get(key, default)

    def delete(self, key: Any) -> None:
        """Remove *key* from the durable area (compaction; absent keys ok).

        Free on the virtual clock — removing an entry needs no
        fsync-before-reply the way a write-ahead ``put`` does — but counted,
        so bounded-storage assertions can watch ``deletes`` track compaction.
        """
        if self._data.pop(key, _MISSING) is not _MISSING:
            self.deletes += 1

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def items_with_prefix(self, prefix: str) -> List[Tuple[Any, Any]]:
        """Return ``(key, value)`` pairs whose tuple key starts with *prefix*.

        Sorted by the key's remaining components, so ``("decided", pos)``
        entries come back in log order — the order rehydration must replay
        them in.
        """
        matches = [
            (key, value)
            for key, value in self._data.items()
            if isinstance(key, tuple) and key and key[0] == prefix
        ]
        matches.sort(key=lambda item: item[0][1:])
        return matches

    def snapshot(self) -> Dict[Any, Any]:
        """Return a copy of the durable contents (tests and debugging)."""
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StableStore(pid={self.pid}, entries={len(self._data)}, "
            f"writes={self.writes}, cost={self.total_cost:g})"
        )


class StableStorage:
    """Per-system registry of :class:`StableStore` objects, one per process.

    Owned by a :class:`~repro.simulation.system.System` (``storage=`` keyword)
    or, per shard, by a :class:`~repro.service.sharding.ShardedService`
    (``stable_storage=`` knob).  Stores are created lazily and live for the
    whole run — through every crash and recovery of their process.
    """

    def __init__(self, cost_model: Optional[WriteCostModel] = None) -> None:
        self.cost_model = cost_model
        self._stores: Dict[int, StableStore] = {}

    def store_for(self, pid: int) -> StableStore:
        """Return (creating on first use) the durable store of process *pid*."""
        store = self._stores.get(pid)
        if store is None:
            store = StableStore(pid, cost_model=self.cost_model)
            self._stores[pid] = store
        return store

    def stores(self) -> Iterator[StableStore]:
        """Iterate over the stores created so far (ascending pid)."""
        for pid in sorted(self._stores):
            yield self._stores[pid]

    @property
    def total_writes(self) -> int:
        """Durable writes across every process of the system."""
        return sum(store.writes for store in self._stores.values())

    @property
    def total_cost(self) -> float:
        """Virtual-time cost charged across every process of the system."""
        return sum(store.total_cost for store in self._stores.values())

    def describe(self) -> str:
        cost = self.cost_model.describe() if self.cost_model else "free writes"
        return f"stable-storage({len(self._stores)} stores, {cost})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StableStorage({self.describe()})"


__all__ = ["StableStorage", "StableStore", "WriteCostModel"]
