"""One service replica: Omega + consensus + state machine in a single process.

:class:`ServiceReplica` extends the Theorem-5 stack
(:class:`~repro.consensus.stack.OmegaConsensusStack`) with a
:class:`~repro.service.state_machine.KeyValueStore`: every value of the delivered
log prefix is flattened (batches into commands) and applied, in log order, through
the replicated log's ``on_deliver`` hook, which the replica assigns.  Clients
enter through one typed :meth:`ServiceReplica.submit`: anything but a
:class:`~repro.consensus.commands.Command` raises ``TypeError``, and a command
the store cannot run ``ValueError``, before it can reach the log.  A client
waiting on a command is woken through :attr:`ServiceReplica.waiters`, the
waiter table the replica looks each applied or served command up in.  The
class is runtime-agnostic like every
other :class:`~repro.core.interfaces.Process` — the same object runs under the
discrete-event simulator and under the asyncio runtime.

The state machine is shielded from in-flight payload tampering: the underlying
replicated log checksum-verifies every delivery and drops tampered ones
(counted as ``corruption_rejections``), so only commands whose integrity
verified are ever ordered or applied — replicas cannot diverge under
:class:`~repro.simulation.faults.CorruptLink` faults.

Under stable storage (``ShardedService(stable_storage=True)``) a recovered
replica rehydrates before it starts: ``attach_storage`` (inherited from the
stack) replays the persisted decided prefix through ``on_deliver``, which
rebuilds the key-value state *and* the exactly-once session table — so a
client command applied before the crash reads as applied immediately after
recovery, and its retransmission is absorbed as a duplicate, not re-executed.

Every replica compacts: it assigns its log a :class:`~repro.storage.snapshot.
SnapshotManager`, bound to that log from construction, under its
:class:`~repro.storage.compaction.CompactionPolicy` (the default one unless
``ShardedService(compaction=...)`` names another).
The state machine is periodically serialized into a checksummed snapshot, the
decided prefix it covers is truncated out of the log (bounded memory),
laggards below the floor are served the snapshot over the wire, and — with
storage attached — recovery rehydrates snapshot-then-tail instead of
replaying the full history.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

from repro.consensus.commands import Command, flatten_value
from repro.consensus.leases import LeaseManager
from repro.consensus.stack import OmegaConsensusStack
from repro.core.config import OmegaConfig
from repro.core.figure3 import Figure3Omega
from repro.core.omega_base import RotatingStarOmegaBase
from repro.service.state_machine import KeyValueStore
from repro.storage.compaction import CompactionPolicy
from repro.storage.snapshot import SnapshotManager

#: Virtual time a lease read may wait for certification before it falls back
#: to the consensus path.
READ_TIMEOUT = 12.0


class ServiceReplica(OmegaConsensusStack):
    """A client-serving replica of one shard group.

    It applies the delivered log prefix to its :attr:`state_machine`, serves
    lease reads when it holds a lease manager, and wakes the waker its
    :attr:`waiters` table holds for each command it applies or serves.
    """

    variant_name = "service-replica"

    def __init__(
        self,
        pid: int,
        n: int,
        t: int,
        omega_cls: Type[RotatingStarOmegaBase] = Figure3Omega,
        omega_config: Optional[OmegaConfig] = None,
        drive_period: float = 2.0,
        retry_period: float = 10.0,
        batch_size: Union[int, str] = 8,
        compaction: Optional[CompactionPolicy] = None,
        leases: Optional[LeaseManager] = None,
    ) -> None:
        super().__init__(
            pid=pid,
            n=n,
            t=t,
            omega_cls=omega_cls,
            omega_config=omega_config,
            drive_period=drive_period,
            retry_period=retry_period,
            batch_size=batch_size,
            leases=leases,
        )
        self.state_machine = KeyValueStore()
        #: Commands applied to the state machine (includes absorbed duplicates).
        #: Recounted by replay when a recovery rehydrates from stable storage,
        #: and reset to the capture point when a snapshot is installed.
        self.commands_delivered = 0
        self.log.on_deliver = self._apply_delivered
        #: The waiter table, ``(client_id, seq) -> waker``: the replica calls
        #: the waker of every command it applies (absorbed duplicates
        #: included) and every lease read it serves, and every waker, in table
        #: order, when it installs a snapshot — anything may have changed.
        #: :class:`~repro.service.sharding.ShardedService` replaces it with its
        #: own table, so clients are woken instead of polling.
        self.waiters: Dict[Tuple[str, int], Callable[[], None]] = {}
        #: The lease manager of this incarnation (None = consensus-only reads).
        self.leases = leases
        self._next_read_id = 0
        #: read_id -> (command, fallback deadline, certified index or None).
        self._pending_reads: Dict[int, Tuple[Command, float, Optional[int]]] = {}
        #: client_id -> (seq, result, certified index) of the latest served read.
        self._lease_read_results: Dict[str, Tuple[int, Any, int]] = {}
        if leases is not None:
            self.log.on_read_index = self._on_read_index
            self.log.on_drive = self._expire_pending_reads
        #: The policy this replica compacts under (``None`` given: the default).
        self.compaction = compaction if compaction is not None else CompactionPolicy()
        # Assigned before the system calls attach_storage, so recovery can
        # rehydrate snapshot-then-tail.
        self.log.snapshots = SnapshotManager(
            self.log,
            policy=self.compaction,
            capture=self._capture_snapshot,
            restore=self._restore_snapshot,
        )

    # ------------------------------------------------------------------ application --
    def _apply_delivered(self, position: int, value: Any) -> None:
        waiters = self.waiters
        for command in flatten_value(value):
            self.state_machine.apply(command)
            self.commands_delivered += 1
            waker = waiters.get((command.client_id, command.seq))
            if waker is not None:
                waker()
        if self._pending_reads:
            self._serve_matured_reads()

    # ------------------------------------------------------------------ snapshots --
    def _capture_snapshot(self) -> Any:
        return self.state_machine.snapshot_items()

    def _restore_snapshot(self, items: Any) -> None:
        self.state_machine.restore_snapshot(items)
        # Applied + absorbed-duplicate counts are deterministic functions of
        # the applied prefix, so adopting the capturing replica's totals keeps
        # this counter meaning "deliveries this state reflects".
        self.commands_delivered = (
            self.state_machine.applied + self.state_machine.duplicates_skipped
        )
        for waker in list(self.waiters.values()):
            waker()

    # ------------------------------------------------------------------ client API --
    def submit(self, command: Command) -> None:
        """Submit a client command to this replica (it forwards to the leader).

        Only a :class:`~repro.consensus.commands.Command` the state machine can
        run is accepted, and the check is made here rather than once the
        command is decided: a raw value raises ``TypeError``, an unknown op or
        a wrong number of args ``ValueError``
        (:meth:`~repro.service.state_machine.KeyValueStore.check_operation`).
        """
        if not isinstance(command, Command):
            raise TypeError(f"expected a Command, got {command!r}")
        KeyValueStore.check_operation(command)
        self.log.submit(command)

    # ------------------------------------------------------------------ lease reads --
    def submit_read(self, command: Command, now: float) -> None:
        """Submit a ``get`` through the lease read path (read the result with
        :meth:`lease_read_result` once its waker in :attr:`waiters` is called).

        A trusted leader holding read authority serves from its local state
        machine immediately; anyone else queues the read behind a read-index
        certification (the leader confirms its commit frontier, this replica
        serves once its applied frontier reaches it).  A read still pending
        after :data:`READ_TIMEOUT` falls back to the consensus path — it is
        submitted as an ordinary ordered command, so availability degrades to
        the leases-off latency, never to an unanswered read.
        """
        if self.leases is None:
            raise RuntimeError("submit_read requires a lease-enabled replica")
        if command.op != "get":
            raise ValueError(f"submit_read only serves gets, got {command.op!r}")
        # A read that times out falls back to :meth:`submit`, inside a drive
        # tick: a malformed one must be refused here, not there.
        KeyValueStore.check_operation(command)
        frontier = self.log.frontier
        if self.omega.leader() == self.pid and self.leases.read_authority(
            now, frontier
        ):
            self._serve_read(command, frontier)
            return
        read_id = self._next_read_id
        self._next_read_id += 1
        self._pending_reads[read_id] = (command, now + READ_TIMEOUT, None)
        self.log.request_read_index(read_id)

    def lease_read_result(self, client_id: str, seq: int) -> Optional[Tuple[Any, int]]:
        """``(result, certified index)`` of *client_id*'s read ``seq``, if this
        replica served it through the lease path (``None`` otherwise — the
        caller then checks the ordinary :meth:`command_applied` path, which a
        timed-out read falls back to)."""
        entry = self._lease_read_results.get(client_id)
        if entry is not None and entry[0] == seq:
            return entry[1], entry[2]
        return None

    def _serve_read(self, command: Command, index: int) -> None:
        result = self.state_machine.get(command.key)
        # Latest-seq registry: the one-in-flight client discipline means a
        # fresh read always supersedes the previous one.
        self._lease_read_results[command.client_id] = (command.seq, result, index)
        self.counters["lease_reads_served"] += 1  # answered locally, never entered the log
        waker = self.waiters.get((command.client_id, command.seq))
        if waker is not None:
            waker()

    def _on_read_index(self, read_id: int, index: int) -> None:
        """The leader certified *index* for *read_id* (read-index protocol)."""
        pending = self._pending_reads.get(read_id)
        if pending is None:
            return
        command, deadline, _ = pending
        if self.log.frontier >= index:
            del self._pending_reads[read_id]
            self._serve_read(command, index)
        else:
            self._pending_reads[read_id] = (command, deadline, index)

    def _serve_matured_reads(self) -> None:
        frontier = self.log.frontier
        ready = [
            read_id
            for read_id, (_, _, index) in self._pending_reads.items()
            if index is not None and frontier >= index
        ]
        for read_id in ready:
            command, _, index = self._pending_reads.pop(read_id)
            self._serve_read(command, index)

    def _expire_pending_reads(self, now: float) -> None:
        """Drive-tick hook: reads past their deadline fall back to consensus."""
        if not self._pending_reads:
            return
        overdue = [
            read_id
            for read_id, (_, deadline, _) in self._pending_reads.items()
            if now >= deadline
        ]
        for read_id in overdue:
            command, _, _ = self._pending_reads.pop(read_id)
            self.counters["lease_read_fallbacks"] += 1
            self.submit(command)

    def command_applied(self, client_id: str, seq: int) -> bool:
        """True once the command identified by ``(client_id, seq)`` took effect here."""
        return self.state_machine.is_applied(client_id, seq)
