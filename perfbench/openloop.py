"""Open-loop request source: arrivals on a schedule, whatever the service does.

A closed-loop client stops offering load the moment the service stalls, so a
shard without a leader *hides* its own outage: no requests are due, none are
late.  :class:`OpenLoopSource` issues one operation every ``1 / rate`` virtual
time units regardless of progress and times each operation **from the instant
it was due**, so requests that arrive while no leader exists are counted with
the full wait the outage imposed on them.

Every arrival borrows a free :class:`Session` from a fixed pool (one operation
in flight per session, so per-session sequence numbers stay contiguous and the
service's exactly-once table applies).  The pool is sized so that a dead shard
parks its stuck operations without starving the live shards; should it ever
run dry, arrivals wait in a FIFO backlog and their lateness is reported.

All in-flight operations share one poll tick.  An operation not observed
applied is retransmitted through another gateway after ``retry_timeout``, and
the timeout doubles at every retransmission (a flat 40-vt retry floods a
leaderless shard with duplicates for the whole outage).

Sessions expose ``client_id`` / ``seq`` / ``history`` so the invariant probes
of :mod:`repro.fuzz.executor` accept them in place of closed-loop clients.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.consensus.commands import Command
from repro.service.clients import RESULT_UNKNOWN, OperationRecord, Workload
from repro.service.sharding import ShardedService
from repro.util.rng import RandomSource


@dataclasses.dataclass(frozen=True)
class OpenLoopRecord(OperationRecord):
    """A completed open-loop operation: an :class:`OperationRecord` (with
    ``invoked_at`` = first submission) plus the instant it was due."""

    due_at: float = 0.0


class Session:
    """One pooled client session (at most one operation in flight)."""

    __slots__ = ("client_id", "seq", "gateway", "history")

    def __init__(self, client_id: str, gateway: int) -> None:
        self.client_id = client_id
        self.seq = 0
        self.gateway = gateway
        self.history: List[OpenLoopRecord] = []


class _InFlight:
    __slots__ = ("session", "command", "due_at", "submitted_at", "last_submit", "backoff")

    def __init__(self, session: Session, command: Command, due_at: float, now: float, backoff: float) -> None:
        self.session = session
        self.command = command
        self.due_at = due_at
        self.submitted_at = now
        self.last_submit = now
        self.backoff = backoff


class OpenLoopSource:
    """Fixed-rate operation source over a pool of sessions.

    Parameters
    ----------
    rate:
        Arrivals per unit of virtual time, summed over all shards; operation
        ``k`` is due at ``k / rate``.
    stop_at:
        No operation is due at or after this time (in-flight ones complete).
    pool_size:
        Number of sessions; also the bound on operations in flight.
    """

    def __init__(
        self,
        service: ShardedService,
        workload: Workload,
        rng: RandomSource,
        rate: float,
        stop_at: float,
        pool_size: int = 2048,
        poll_interval: float = 0.5,
        retry_timeout: float = 40.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.service = service
        self.workload = workload
        self.rng = rng
        self.rate = rate
        self.stop_at = stop_at
        self.poll_interval = poll_interval
        self.retry_timeout = retry_timeout
        self.sessions: List[Session] = [
            Session(f"open-{index}", rng.randint(0, service.n - 1)) for index in range(pool_size)
        ]
        # A stack: the most recently freed session is reused first, so the
        # number of sessions ever touched is the peak concurrency, not the pool.
        self._free: List[Session] = list(reversed(self.sessions))
        self._backlog: Deque[Tuple[float, Tuple]] = deque()
        self._in_flight: Dict[int, List[_InFlight]] = {shard: [] for shard in range(service.num_shards)}
        # Per shard, what the correct replicas had delivered at the last poll:
        # completion status can only change when one of them delivers more.
        self._delivered_seen: Dict[int, Tuple] = {}
        self._next_index = 0
        self.due = 0
        self.completed = 0
        self.retries = 0
        self.peak_in_flight = 0
        self.peak_backlog = 0
        self.lateness_total = 0.0
        self.lateness_max = 0.0

    # ------------------------------------------------------------------ lifecycle --
    def start(self) -> None:
        """Arm the first arrival and the shared poll tick."""
        scheduler = self.service.scheduler
        scheduler.schedule_at(0.0, self._arrive)
        scheduler.schedule_after(self.poll_interval, self._poll)

    @property
    def in_flight(self) -> int:
        """Operations submitted and not yet observed complete, plus the backlog."""
        return sum(len(ops) for ops in self._in_flight.values()) + len(self._backlog)

    def records(self) -> List[OpenLoopRecord]:
        """Every completed operation, in session order."""
        return [record for session in self.sessions for record in session.history]

    # ------------------------------------------------------------------ arrivals --
    def _arrive(self) -> None:
        service = self.service
        due_at = self._next_index / self.rate
        self.due += 1
        operation = self.workload.next_operation(self.rng)
        if self._free:
            self._submit(self._free.pop(), operation, due_at)
        else:
            self._backlog.append((due_at, operation))
            if len(self._backlog) > self.peak_backlog:
                self.peak_backlog = len(self._backlog)
        self._next_index += 1
        next_due = self._next_index / self.rate
        if next_due < self.stop_at:
            service.scheduler.schedule_at(next_due, self._arrive)

    def _submit(self, session: Session, operation: Tuple, due_at: float) -> None:
        op, key, args = operation
        session.seq += 1
        command = Command(client_id=session.client_id, seq=session.seq, op=op, key=key, args=args)
        now = self.service.now
        lateness = now - due_at
        self.lateness_total += lateness
        if lateness > self.lateness_max:
            self.lateness_max = lateness
        shard = self.service.submit(command, gateway=session.gateway)
        self._in_flight[shard].append(_InFlight(session, command, due_at, now, self.retry_timeout))
        in_flight = sum(len(ops) for ops in self._in_flight.values())
        if in_flight > self.peak_in_flight:
            self.peak_in_flight = in_flight

    # ------------------------------------------------------------------ polling --
    def _poll(self) -> None:
        service = self.service
        now = service.now
        for shard, ops in self._in_flight.items():
            if not ops:
                continue
            replicas = service.correct_replicas(shard)
            delivered = tuple(replica.commands_delivered for replica in replicas)
            progressed = self._delivered_seen.get(shard) != delivered
            self._delivered_seen[shard] = delivered
            pending: List[_InFlight] = []
            for flight in ops:
                command = flight.command
                applied_at = None
                if progressed:
                    for replica in replicas:
                        if replica.command_applied(command.client_id, command.seq):
                            applied_at = replica
                            break
                if applied_at is not None:
                    self._complete(flight, applied_at, now)
                    continue
                if now - flight.last_submit >= flight.backoff:
                    self.retries += 1
                    flight.session.gateway = self.rng.randint(0, service.n - 1)
                    service.submit(command, gateway=flight.session.gateway)
                    flight.last_submit = now
                    flight.backoff *= 2.0
                pending.append(flight)
            self._in_flight[shard] = pending
        while self._backlog and self._free:
            due_at, operation = self._backlog.popleft()
            self._submit(self._free.pop(), operation, due_at)
        if now < self.stop_at or self.in_flight:
            service.scheduler.schedule_after(self.poll_interval, self._poll)

    def _complete(self, flight: _InFlight, replica, now: float) -> None:
        command = flight.command
        machine = replica.state_machine
        result: Optional[object] = RESULT_UNKNOWN
        if machine.last_seq(command.client_id) == command.seq:
            result = machine.last_result(command.client_id)
        flight.session.history.append(
            OpenLoopRecord(
                client_id=command.client_id,
                seq=command.seq,
                op=command.op,
                key=command.key,
                args=tuple(command.args),
                invoked_at=flight.submitted_at,
                completed_at=now,
                result=result,
                due_at=flight.due_at,
            )
        )
        self.completed += 1
        self._free.append(flight.session)
