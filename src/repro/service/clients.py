"""Client sessions and workload generators driving a :class:`ShardedService`.

Clients are *not* processes of the distributed system: they model the outside
world.  A :class:`ClosedLoopClient` keeps exactly one command in flight — it issues
a command, is woken when a replica of the home shard applies (or lease-serves) it,
then observes at its next poll tick whether a correct replica has; if so it
records the latency and issues the next one.  Poll ticks fall on the shared
virtual clock every ``poll_interval`` after the issue, but only a wake-up puts an
observation on one.  If a command has not taken effect within ``retry_timeout``
(its gateway crashed, a leader change swallowed the forward), the client
*retransmits the same* ``(client_id, seq)`` command through another gateway — the
scenario the exactly-once session table of
:class:`~repro.service.state_machine.KeyValueStore` exists for.

Workloads compose a key sampler (uniform or zipfian) with an operation mix, the
standard shape of key-value benchmarks (YCSB-style): zipfian skew concentrates
traffic on few hot keys, ``read_fraction`` sets the get share, and the write side
mixes puts, increments, deletes and compare-and-swaps.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.consensus.commands import Command
from repro.service.sharding import ServiceSpec, ShardedService
from repro.util.rng import RandomSource
from repro.util.validation import require_non_negative, require_positive

#: A sampled operation: (op name, key, args) — the payload of a Command.
Operation = Tuple[str, str, Tuple]


def _build_cdf(weights: Sequence[float]) -> List[float]:
    """Normalise *weights* into a cumulative distribution (last bucket clamped
    to exactly 1.0 so bisection never falls off the end)."""
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must have positive total")
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return cumulative


# --------------------------------------------------------------------- key samplers --
def _key_names(num_keys: int) -> List[str]:
    """The names ``key-0 .. key-{num_keys-1}``, built once per sampler so every
    sample of a key is the same string object."""
    return [f"key-{rank}" for rank in range(num_keys)]


class UniformKeys:
    """Keys ``key-0 .. key-{num_keys-1}`` drawn uniformly."""

    def __init__(self, num_keys: int) -> None:
        require_positive(num_keys, "num_keys")
        self.num_keys = num_keys
        self._names = _key_names(num_keys)

    def sample(self, rng: RandomSource) -> str:
        return self._names[rng.randint(0, self.num_keys - 1)]


class ZipfianKeys:
    """Keys drawn from a zipfian distribution (rank ``i`` with weight ``1/i^theta``).

    ``theta`` around 0.99 reproduces the classic hot-key skew of web workloads; the
    cumulative distribution is precomputed once and sampled by bisection.
    """

    def __init__(self, num_keys: int, theta: float = 0.99) -> None:
        require_positive(num_keys, "num_keys")
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        self.num_keys = num_keys
        self.theta = theta
        self._cdf = _build_cdf([1.0 / (rank**theta) for rank in range(1, num_keys + 1)])
        self._names = _key_names(num_keys)

    def sample(self, rng: RandomSource) -> str:
        rank = bisect.bisect_left(self._cdf, rng.random())
        return self._names[min(rank, self.num_keys - 1)]


# ------------------------------------------------------------------------ workloads --
#: Write-side operation mix.
WRITE_MIX: Dict[str, float] = {"put": 0.70, "incr": 0.20, "delete": 0.05, "cas": 0.05}
_WRITE_OPS: List[str] = list(WRITE_MIX)
_WRITE_CDF: List[float] = _build_cdf([WRITE_MIX[op] for op in _WRITE_OPS])


class Workload:
    """Samples ``(op, key, args)`` triples from a key sampler and :data:`WRITE_MIX`."""

    def __init__(self, key_sampler, read_fraction: float = 0.5) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
        self.key_sampler = key_sampler
        self.read_fraction = read_fraction

    def next_operation(self, rng: RandomSource) -> Operation:
        key = self.key_sampler.sample(rng)
        if rng.random() < self.read_fraction:
            return ("get", key, ())
        op = _WRITE_OPS[bisect.bisect_left(_WRITE_CDF, rng.random())]
        if op == "put":
            return ("put", key, (f"v{rng.randint(0, 999_999)}",))
        if op == "incr":
            return ("incr", key, (1,))
        if op == "delete":
            return ("delete", key, ())
        # cas against the absent-key state: deterministic and occasionally succeeds.
        return ("cas", key, (None, f"c{rng.randint(0, 999_999)}"))


def uniform_workload(num_keys: int, read_fraction: float = 0.5) -> Workload:
    """Uniform-key workload (the unskewed baseline)."""
    return Workload(UniformKeys(num_keys), read_fraction=read_fraction)


def zipfian_workload(
    num_keys: int, theta: float = 0.99, read_fraction: float = 0.5
) -> Workload:
    """Zipfian hot-key workload (the realistic default)."""
    return Workload(ZipfianKeys(num_keys, theta=theta), read_fraction=read_fraction)


def generate_commands(
    workload: Workload,
    num_commands: int,
    num_clients: int,
    rng: RandomSource,
) -> List[Command]:
    """Pre-generate *num_commands* commands spread over *num_clients* sessions.

    Sequence numbers are per client and contiguous from 1, so the commands form
    valid exactly-once sessions when submitted in order.
    """
    require_positive(num_commands, "num_commands")
    require_positive(num_clients, "num_clients")
    sequences = {c: 0 for c in range(num_clients)}
    commands: List[Command] = []
    for _index in range(num_commands):
        client = rng.randint(0, num_clients - 1)
        sequences[client] += 1
        op, key, args = workload.next_operation(rng)
        commands.append(
            Command(
                client_id=f"client-{client}",
                seq=sequences[client],
                op=op,
                key=key,
                args=args,
            )
        )
    return commands


# -------------------------------------------------------------------- closed loop --
@dataclasses.dataclass
class ClientStats:
    """Aggregate counts of one client session (latencies are read off
    :attr:`ClosedLoopClient.history`)."""

    completed: int = 0
    retries: int = 0


#: Sentinel result recorded when a completed operation's return value could not
#: be read back (the applying replica had already moved its session cache on).
#: Consumers that check results — the linearizability probe of
#: :mod:`repro.fuzz.linearizability` — treat it as unconstrained.
RESULT_UNKNOWN = "__result_unknown__"


@dataclasses.dataclass(frozen=True, slots=True)
class OperationRecord:
    """One completed client operation, timed on the shared virtual clock.

    ``invoked_at`` is when the command was first issued and ``completed_at``
    when the client *observed* it applied (a poll tick at or after the actual
    application).  Any linearization point of the operation therefore lies
    inside ``[invoked_at, completed_at]``, which is exactly what a
    Wing–Gong-style linearizability check needs; observing the response late
    only loosens the real-time order, it can never manufacture a violation.

    ``read_index`` is set only on a lease-served read: the log index certified
    for it (the serving replica had applied every position below it).  The
    same object is the client's history entry and the shard's
    :attr:`~repro.service.sharding.ShardedService.read_audits` entry.
    """

    client_id: str
    seq: int
    op: str
    key: str
    args: Tuple
    invoked_at: float
    completed_at: float
    result: object
    read_index: Optional[int] = None

    @classmethod
    def build(
        cls,
        client_id: str,
        seq: int,
        op: str,
        key: str,
        args: Tuple,
        invoked_at: float,
        completed_at: float,
        result: object,
        read_index: Optional[int] = None,
    ) -> "OperationRecord":
        """The record the constructor would build from these fields.

        The generated ``__init__`` of a frozen dataclass stores each field
        through ``object.__setattr__``.  A client builds one record per
        completed operation, so this builder fills the slots through their
        descriptors instead.  Only the fields of :class:`OperationRecord` are
        filled: a subclass adding fields builds through its own constructor.
        """
        (
            set_client_id,
            set_seq,
            set_op,
            set_key,
            set_args,
            set_invoked_at,
            set_completed_at,
            set_result,
            set_read_index,
        ) = _RECORD_SLOT_SETTERS
        record = object.__new__(cls)
        set_client_id(record, client_id)
        set_seq(record, seq)
        set_op(record, op)
        set_key(record, key)
        set_args(record, args)
        set_invoked_at(record, invoked_at)
        set_completed_at(record, completed_at)
        set_result(record, result)
        set_read_index(record, read_index)
        return record

    def to_tuple(self) -> Tuple:
        """Stable tuple form (fingerprints and cross-process transport);
        ``read_index`` is left out, so fingerprints of histories do not see it."""
        return (
            self.client_id,
            self.seq,
            self.op,
            self.key,
            tuple(self.args),
            self.invoked_at,
            self.completed_at,
            self.result,
        )


#: The ``__set__`` of each slot of :class:`OperationRecord`, in field order.
_RECORD_SLOT_SETTERS = tuple(
    vars(OperationRecord)[field.name].__set__
    for field in dataclasses.fields(OperationRecord)
)


class ClosedLoopClient:
    """One client session with exactly one command in flight.

    The client registers its command in :attr:`ShardedService.waiters
    <repro.service.sharding.ShardedService.waiters>` before submitting it.  A
    replica that applies or lease-serves the command (or installs a snapshot)
    wakes the client, which observes once, at the first tick of its poll
    lattice — issue time + ``poll_interval`` + ``poll_interval`` ..., by
    repeated addition — at or after the wake-up: the tick a client polling
    every ``poll_interval`` would have seen the command on.  Retransmissions
    ride one retry timer per client, re-armed lazily.

    The next command is issued ``think_time`` after the observation that
    completes the last.  With ``think_time == 0`` it is issued inside that
    observation's event, at the same instant, so a completed operation costs
    one scheduler event (its observation); a positive think time schedules the
    issue.

    Parameters
    ----------
    client_id:
        Session identifier (becomes the commands' ``client_id``).
    service:
        The sharded service to drive.
    workload:
        Operation generator.
    rng:
        Deterministic per-client random source.
    poll_interval:
        Spacing of the ticks a completion is observed on.
    retry_timeout:
        In-flight time after which the current command is retransmitted (same
        sequence number) through a fresh gateway.
    think_time:
        Pause between a completion and the next issue (0 = saturating client).
    stop_at:
        Optional virtual time after which no *new* command is issued (the one
        in flight still completes and is retried as usual).  Lets a run
        quiesce before final state is compared — benchmarks use it so their
        end-of-run digests are not sampled mid-broadcast.
    record_history:
        When True, every completed operation is appended to :attr:`history` as
        an :class:`OperationRecord` — operation, key, arguments, invocation and
        completion times, and the result read back from the applying replica.
        This is the client-visible history the linearizability probe of
        :mod:`repro.fuzz` checks against the key-value specification, and the
        only record of latencies: :func:`~repro.analysis.service_metrics.record_run`
        reads them off it.
    """

    def __init__(
        self,
        client_id: str,
        service: ShardedService,
        workload: Workload,
        rng: RandomSource,
        poll_interval: float = 1.0,
        retry_timeout: float = 40.0,
        think_time: float = 0.0,
        stop_at: Optional[float] = None,
        record_history: bool = False,
    ) -> None:
        require_positive(poll_interval, "poll_interval")
        require_positive(retry_timeout, "retry_timeout")
        self.client_id = client_id
        self.service = service
        self.workload = workload
        self.rng = rng
        self.poll_interval = poll_interval
        self.retry_timeout = retry_timeout
        self.think_time = require_non_negative(think_time, "think_time")
        self.stop_at = stop_at
        self.record_history = record_history
        #: Completed operations in completion order (empty unless recording).
        self.history: List[OperationRecord] = []
        self.stats = ClientStats()
        self._scheduler = service.scheduler
        #: This client's waker, bound once (registered in ``service.waiters``).
        self._waker = self._wake
        self.seq = 0
        self.gateway = rng.randint(0, service.n - 1)
        self._current: Optional[Command] = None
        self._shard: Optional[int] = None
        self._issued_at = 0.0
        self._last_submit = 0.0
        #: The last tick of the poll lattice observed — the in-flight
        #: command's issue time until its first observation.  The lattice is
        #: issue time + ``poll_interval`` + ``poll_interval`` ..., by repeated
        #: addition.
        self._tick = 0.0
        #: An observation is scheduled at the next lattice tick.
        self._observing = False
        #: The one retry timer is pending.
        self._retry_armed = False
        #: True while the in-flight command travels the lease read path.
        self._lease_read = False

    # ------------------------------------------------------------------ lifecycle --
    def start(self, delay: float = 0.0) -> None:
        """Arm the first issue on the service's shared virtual clock."""
        self._scheduler.schedule_after(delay, self._issue_next)

    def _issue_next(self) -> None:
        now = self._scheduler.now
        if self.stop_at is not None and now >= self.stop_at:
            return  # quiesced: the session is over, issue nothing new
        op, key, args = self.workload.next_operation(self.rng)
        self.seq += 1
        command = Command(self.client_id, self.seq, op, key, args)
        self._current = command
        self._issued_at = now
        self._last_submit = now
        self._tick = now
        # Registered before the submit: a leased read can be served inside it.
        self.service.waiters[(self.client_id, self.seq)] = self._waker
        self._shard = self._submit(command)
        if not self._retry_armed:
            self._arm_retry(self._retry_tick())

    def _submit(self, command: Command) -> int:
        """Route *command* in: lease reads to the leader-hint gateway, the rest
        (and every command with leases off) through the ordered path."""
        self._lease_read = command.op == "get" and self.service.leases
        if not self._lease_read:
            return self.service.submit(command, gateway=self.gateway)
        hint = self.service.leader_hint(self.service.shard_for(command.key))
        gateway = hint if hint is not None else self.gateway
        return self.service.submit_read(command, gateway=gateway)

    def _wake(self) -> None:
        """A replica applied or served the command (or installed a snapshot):
        observe at the first lattice tick at or after now."""
        if self._observing:
            return
        self._observing = True
        scheduler = self._scheduler
        now = scheduler.now
        tick = self._tick + self.poll_interval
        while tick < now:
            tick += self.poll_interval
        # Pushed raw: the loop above leaves the tick at or after now.
        scheduler.push_event(tick, self._poll)

    def _retry_tick(self) -> float:
        """The first lattice tick after the last observed one at which the
        in-flight command is ``retry_timeout`` past its last submission."""
        tick = self._tick + self.poll_interval
        while tick - self._last_submit < self.retry_timeout:
            tick += self.poll_interval
        return tick

    def _arm_retry(self, tick: float) -> None:
        self._retry_armed = True
        self._scheduler.schedule_at(tick, self._on_retry_timer)

    def _on_retry_timer(self) -> None:
        self._retry_armed = False
        if self._current is None:
            return  # thinking or quiesced: the next issue re-arms
        due = self._retry_tick()
        if due > self._scheduler.now:
            # Armed for an earlier command: move on to this one's retry tick.
            self._arm_retry(due)
            return
        self._poll()
        # A completion in _poll may have issued the next command already, and
        # that issue armed the timer for it.
        if self._current is not None and not self._retry_armed:
            self._arm_retry(self._retry_tick())

    def _poll(self) -> None:
        """Observe the in-flight command at this lattice tick: complete it if a
        correct replica applied or lease-served it, retransmit it if overdue.

        A failed check keeps the waiter: the replica that woke the client may
        be one that is not correct, and a later application wakes it again.
        """
        now = self._scheduler.now
        if now <= self._tick:
            return  # an observation the retry timer already made at this tick
        self._tick = now
        self._observing = False
        command = self._current
        assert command is not None
        if self._lease_read and self._complete_lease_read(command):
            return
        replica = self._applied_replica(command)
        if replica is not None:
            if self.record_history:
                self.history.append(
                    self._record(command, self._result_at(command, replica))
                )
            self._complete(command)
            return
        if now - self._last_submit >= self.retry_timeout:
            # Retransmit the *same* (client_id, seq) command through a different
            # gateway; the session table makes a double decision harmless (and a
            # lease read is served from the newest registry entry or, fallen
            # back, absorbed by the session table like any duplicate).
            self.stats.retries += 1
            self.gateway = self.rng.randint(0, self.service.n - 1)
            if self._lease_read:
                self._submit(command)
            else:
                self.service.submit(command, gateway=self.gateway)
            self._last_submit = now

    def _complete(self, command: Command) -> None:
        self.stats.completed += 1
        del self.service.waiters[(command.client_id, command.seq)]
        self._current = None
        if self.think_time == 0:
            # No recursion: this command completed in _poll, and the next one
            # can only complete in a later _poll, at a lattice tick after now.
            self._issue_next()
        else:
            self._scheduler.schedule_after(self.think_time, self._issue_next)

    def _complete_lease_read(self, command: Command) -> bool:
        """Complete *command* if some correct replica lease-served it.

        One record is kept: the shard's read audit and (when recording) the
        history entry are the same object.
        """
        assert self._shard is not None
        for replica in self.service.correct_replicas(self._shard):
            served = replica.lease_read_result(command.client_id, command.seq)
            if served is None:
                continue
            result, index = served
            record = self._record(command, result, read_index=index)
            self.service.read_audits[self._shard].append(record)
            if self.record_history:
                self.history.append(record)
            self._complete(command)
            return True
        return False

    def _applied_replica(self, command: Command):
        """The first correct replica that applied *command*, or ``None``."""
        assert self._shard is not None
        for replica in self.service.correct_replicas(self._shard):
            if replica.command_applied(command.client_id, command.seq):
                return replica
        return None

    @staticmethod
    def _result_at(command: Command, replica) -> object:
        """The result of the completing *command*, read back from *replica*."""
        machine = replica.state_machine
        if machine.last_seq(command.client_id) == command.seq:
            # The session cache still holds this command's result (it does
            # whenever this client's newest command at this shard is the one
            # completing, i.e. always in the one-in-flight discipline — a
            # duplicate decided later never advances the cache).
            return machine.last_result(command.client_id)
        return RESULT_UNKNOWN

    def _record(
        self, command: Command, result: object, read_index: Optional[int] = None
    ) -> OperationRecord:
        """The record of *command*, completing now with *result*."""
        return OperationRecord.build(
            command.client_id,
            command.seq,
            command.op,
            command.key,
            tuple(command.args),
            self._issued_at,
            self._scheduler.now,
            result,
            read_index,
        )


def start_clients(
    service: ShardedService,
    num_clients: int,
    workload_factory: Callable[[int], Workload],
    poll_interval: float = 1.0,
    retry_timeout: float = 40.0,
    think_time: float = 0.0,
    stop_at: Optional[float] = None,
    record_history: bool = False,
) -> List[ClosedLoopClient]:
    """Create and start *num_clients* closed-loop clients, their first issues
    spread evenly over the first unit of virtual time."""
    require_positive(num_clients, "num_clients")
    clients: List[ClosedLoopClient] = []
    for index in range(num_clients):
        client = ClosedLoopClient(
            client_id=f"client-{index}",
            service=service,
            workload=workload_factory(index),
            rng=service.rng("client", index),
            poll_interval=poll_interval,
            retry_timeout=retry_timeout,
            think_time=think_time,
            stop_at=stop_at,
            record_history=record_history,
        )
        client.start(delay=index / num_clients)
        clients.append(client)
    return clients


def start_workload(
    service: ShardedService, spec: ServiceSpec, record_history: bool = False
) -> List[ClosedLoopClient]:
    """Start the closed-loop load *spec* describes on *service*."""

    def workload_factory(_index: int) -> Workload:
        if spec.zipf_theta is None:
            return uniform_workload(spec.num_keys, read_fraction=spec.read_fraction)
        return zipfian_workload(
            spec.num_keys, theta=spec.zipf_theta, read_fraction=spec.read_fraction
        )

    return start_clients(
        service,
        num_clients=spec.num_clients,
        workload_factory=workload_factory,
        poll_interval=spec.poll_interval,
        retry_timeout=spec.retry_timeout,
        stop_at=spec.stop_at,
        record_history=record_history,
    )
