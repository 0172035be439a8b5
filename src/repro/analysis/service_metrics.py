"""The outcome of one sharded-service run: :class:`RunRecord`.

A :class:`~repro.service.sharding.ServiceSpec` (plus its fault plans) describes
a run; :func:`record_run` reads what a finished or paused
:class:`~repro.service.sharding.ShardedService` did into one frozen, JSON-flat
record.  The examples, E10, the fuzz executor, the parallel shard runner and
the pinned fingerprints all read that record instead of recounting the
service:

* **counts** — scheduler events, messages sent, per-shard applied commands and
  decided instances, client completions (``completed``) and retries, the folded
  counter registry and the recovery/storage/network totals;
* **state** — every replica's digest with its correct/crashed flag;
* **leadership** — each shard's agreed leader and its leader-change instants;
* **latency** — client-observed issue-to-completion times read off the client
  histories, summarised by nearest rank;
* **verdicts** — the invariant probes below: agreement, Lemma 8 and
  divergence always, the client probes (exactly-once, durability, stale-read)
  when clients drove the run — and, per shard, the fault plan's admission
  flags (``hazards``).  Agreement and the stale-read positions are read off
  each shard's :class:`AgreementMonitor`, which the replicas feed as they
  learn, so log compaction hides nothing from them; Lemma 8 off each replica's
  registry, which its oracle writes after every handler that moved a level;
* a **fingerprint** over all of it and the operation histories: equal runs
  produce byte-identical fingerprints in any process.
"""

from __future__ import annotations

import dataclasses
import math
from array import array
from bisect import bisect_right
from itertools import repeat
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.consensus.commands import Command, flatten_value, value_checksum
from repro.core.figure3 import Figure3Omega
from repro.core.interfaces import fold_counters
from repro.util.rng import fingerprint
from repro.util.validation import require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.service.clients import ClosedLoopClient
    from repro.service.sharding import ShardedService


def _checked_fields(cls, data: Dict, what: str) -> Dict:
    """*data* as constructor arguments of the dataclass *cls*, or ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a dict, got {data!r}")
    names = {field.name for field in dataclasses.fields(cls)}
    missing = sorted(names - set(data))
    if missing:
        raise ValueError(f"{what} is missing field(s) {missing}")
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}")
    return dict(data)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach observed by a probe."""

    kind: str  # agreement | exactly-once | divergence | durability | stale-read | linearizability | lemma-8
    shard: int
    detail: str


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Everything a run did, per shard where it differs by shard.

    Per-shard fields are tuples indexed by shard.  Counts are whole-run
    totals; ``counters`` is the fold of every process's counter registry, so
    no total shrinks at a restart (names nothing bumped are absent).
    """

    #: Virtual-time denominator of :attr:`throughput`.
    duration: float
    events: int
    messages: int
    #: Effective commands applied at each shard's reference replica.
    applied: Tuple[int, ...]
    #: Decided non-noop consensus instances at each shard's reference replica.
    instances: Tuple[int, ...]
    #: Operations the clients saw complete (acknowledged, not applied).
    completed: int
    retries: int
    counters: Dict[str, int]
    recoveries: int
    storage_writes: int
    corrupted_messages: int
    messages_dropped: int
    #: Per shard, ``(state digest, correct)`` of every replica in pid order;
    #: a crashed replica's digest is its last incarnation's.
    digests: Tuple[Tuple[Tuple[str, bool], ...], ...]
    #: Each shard's leader agreed by its alive replicas (None during a split).
    leaders: Tuple[Optional[int], ...]
    #: Per shard, on that shard's clock, the instants at which a *live*
    #: incarnation's trusted leader changed; ``counters["leader_changes"]``
    #: also counts the changes of incarnations a restart replaced.
    leader_change_times: Tuple[Tuple[float, ...], ...]
    #: Client-observed operation latencies, ascending; kept whole, not as
    #: quantiles, so that records of different shards pool exactly.
    latencies: Tuple[float, ...]
    #: Per shard, a digest of the client operations on its keys.
    histories: Tuple[str, ...]
    #: Per shard, what its fault plan was flagged for at admission:
    #: ``"assumption: …"`` breaches of the scenario's assumption and
    #: ``"amnesia: …"`` storage-off restart hazards.  Flags, not verdicts: the
    #: run may still be clean.
    hazards: Tuple[Tuple[str, ...], ...]
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def throughput(self) -> float:
        return sum(self.applied) / self.duration

    @property
    def commands_per_instance(self) -> float:
        instances = sum(self.instances)
        return sum(self.applied) / instances if instances else 0.0

    @property
    def latency(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max of :attr:`latencies`, quantiles by
        nearest rank (``ceil(f * N) - 1``); all 0 without latencies."""
        values = self.latencies
        if not values:
            return dict.fromkeys(("count", "mean", "p50", "p95", "p99", "max"), 0)

        def rank(fraction: float) -> float:
            return values[max(0, math.ceil(fraction * len(values)) - 1)]

        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "p50": rank(0.50),
            "p95": rank(0.95),
            "p99": rank(0.99),
            "max": values[-1],
        }

    def state_digests(self, shard: int, correct_only: bool = True) -> List[str]:
        """What ``ShardedService.state_digests`` returned when recorded."""
        return [
            state for state, correct in self.digests[shard] if correct or not correct_only
        ]

    @property
    def consistent(self) -> bool:
        """Per shard, every correct replica held the identical state."""
        return all(
            len(set(self.state_digests(shard))) == 1 for shard in range(len(self.digests))
        )

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "RunRecord":
        fields = _checked_fields(cls, data, "run record")
        for name in ("applied", "instances", "leaders", "latencies", "histories"):
            fields[name] = tuple(fields[name])
        for name in ("leader_change_times", "hazards"):
            fields[name] = tuple(tuple(shard) for shard in fields[name])
        fields["counters"] = dict(fields["counters"])
        fields["digests"] = tuple(
            tuple((state, correct) for state, correct in shard) for shard in fields["digests"]
        )
        fields["violations"] = tuple(
            Violation(**_checked_fields(Violation, violation, "violation"))
            for violation in fields["violations"]
        )
        return cls(**fields)


def record_run(
    service: "ShardedService",
    clients: Sequence["ClosedLoopClient"] = (),
    duration: Optional[float] = None,
) -> RunRecord:
    """Read a finished (or paused) service run into a :class:`RunRecord`.

    Parameters
    ----------
    service:
        A :class:`~repro.service.sharding.ShardedService`.
    clients:
        The closed-loop clients that drove the run; empty when commands were
        submitted directly, which also leaves the client probes out (direct
        submissions would read as phantom sessions).  Latencies are read off
        each client's history, so a client that completed operations must
        have been started with ``record_history=True`` (else
        :class:`ValueError`).
    duration:
        Virtual-time denominator for throughput (defaults to ``service.now``).
    """
    span = duration if duration is not None else service.now
    require_positive(span, "duration")
    for client in clients:
        if client.stats.completed and not client.record_history:
            raise ValueError(
                f"client {client.client_id!r} completed operations but kept no "
                "history to read latencies from: start it with record_history=True"
            )
    shards = range(service.num_shards)
    operations = [record for client in clients for record in client.history]
    histories: List[list] = [[] for _ in shards]
    for record in operations:
        histories[service.shard_for(record.key)].append(record.to_tuple())
    violations = agreement_violations(service) + lemma8_violations(service)
    if clients:
        violations += session_violations(service, clients)
    violations += divergence_violations(service)
    if clients:
        violations += durability_violations(service, clients)
        violations += stale_read_violations(service, clients)
    leaders = service.leaders()
    shells = [shell for system in service.systems for shell in system.shells]
    return RunRecord(
        duration=span,
        events=service.scheduler.executed,
        messages=sum(system.stats.total_sent for system in service.systems),
        applied=tuple(service.applied_commands(shard) for shard in shards),
        instances=tuple(service.decided_instances(shard) for shard in shards),
        completed=sum(client.stats.completed for client in clients),
        retries=sum(client.stats.retries for client in clients),
        counters=dict(sorted(service.counters().items())),
        recoveries=sum(shell.recoveries for shell in shells),
        storage_writes=service.storage_writes(),
        corrupted_messages=service.corrupted_messages(),
        messages_dropped=sum(system.stats.total_dropped for system in service.systems),
        digests=tuple(
            tuple(
                (shell.algorithm.state_machine.digest(), shell in system.correct_shells())
                for shell in system.shells
            )
            for system in service.systems
        ),
        leaders=tuple(leaders[shard] for shard in shards),
        leader_change_times=tuple(
            tuple(
                sorted(
                    {
                        round(float(when), 6)
                        for shell in system.shells
                        for when, _leader in shell.algorithm.omega.leader_history[1:]
                    }
                )
            )
            for system in service.systems
        ),
        latencies=tuple(
            sorted(record.completed_at - record.invoked_at for record in operations)
        ),
        histories=tuple(fingerprint(sorted(history)) for history in histories),
        hazards=tuple(
            tuple(
                [f"assumption: {flag}" for flag in service.assumption_violations[shard]]
                + [f"amnesia: {flag}" for flag in service.amnesia_hazards[shard]]
            )
            for shard in shards
        ),
        violations=tuple(violations),
    )


def merge_records(records: Sequence[RunRecord]) -> RunRecord:
    """Fold the records of independently run shards, in shard order.

    Totals sum, counters fold with :func:`~repro.core.interfaces.fold_counters`
    (high-water marks with ``max``), per-shard fields concatenate in the given
    order (so each shard's leader-change instants stay on its own clock),
    latencies pool, and each violation is relabelled with its record's
    index.  Nothing here reads a clock or an rng, so the merge is a pure
    function of the ordered records.
    """
    counters: Dict[str, int] = {}
    for record in records:
        fold_counters(counters, record.counters)

    def total(name: str) -> int:
        return sum(getattr(record, name) for record in records)

    def concatenated(name: str) -> tuple:
        return tuple(item for record in records for item in getattr(record, name))

    return RunRecord(
        duration=max(record.duration for record in records),
        events=total("events"),
        messages=total("messages"),
        applied=concatenated("applied"),
        instances=concatenated("instances"),
        completed=total("completed"),
        retries=total("retries"),
        counters=dict(sorted(counters.items())),
        recoveries=total("recoveries"),
        storage_writes=total("storage_writes"),
        corrupted_messages=total("corrupted_messages"),
        messages_dropped=total("messages_dropped"),
        digests=concatenated("digests"),
        leaders=concatenated("leaders"),
        leader_change_times=concatenated("leader_change_times"),
        latencies=tuple(sorted(concatenated("latencies"))),
        histories=concatenated("histories"),
        hazards=concatenated("hazards"),
        violations=tuple(
            dataclasses.replace(violation, shard=index)
            for index, record in enumerate(records)
            for violation in record.violations
        ),
    )


# ------------------------------------------------------------------ monitors --
#: The checksum slot of a position no replica has learnt yet (a CRC-32 is
#: never negative).
_UNLEARNT = -1


class AgreementMonitor:
    """What one shard decided, recorded as each replica learns it.

    Every replica incarnation of the shard reports each position it learns
    (:attr:`~repro.consensus.replicated_log.ReplicatedLog.on_learn`), however
    it learnt it: its own vote count, a ``Decide``, catch-up, a promise or a
    replay of its store.  The monitor keeps, per position, the checksum of
    the first value learnt there (:func:`~repro.consensus.commands.
    value_checksum`, 8 bytes in an ``array``, never the value) and records
    every later learn of a value with another checksum as a conflict.  So
    agreement is checked when a decision happens, across incarnations a
    restart replaced and positions compaction truncated since.  Values are
    compared by checksum only: two different values decided at one position
    that share a CRC-32 pass unreported.

    With ``record_writes`` it also keeps, per write command ``(client_id,
    seq)``, the lowest position it was decided at — where it was applied; a
    retried command decided again higher up is absorbed there as a duplicate.
    The stale-read check joins that with the service's lease-read audits.
    That record has one entry per write, so in lease mode the monitor grows
    with history, as the audits do.
    """

    __slots__ = ("_checksums", "conflicts", "write_positions")

    def __init__(self, record_writes: bool = False) -> None:
        self._checksums = array("q")
        #: position -> ``(pid, value repr)`` of each learn that disagreed
        #: with the first value learnt there.
        self.conflicts: Dict[int, List[Tuple[int, str]]] = {}
        #: ``(client_id, seq)`` -> lowest decided position of each write
        #: command, or None when writes are not recorded.
        self.write_positions: Optional[Dict[Tuple[str, int], int]] = (
            {} if record_writes else None
        )

    def learn(self, pid: int, position: int, value: Any) -> None:
        """Record that replica *pid* learnt *value* at *position*."""
        checksum = value_checksum(value)
        checksums = self._checksums
        if position < len(checksums):
            first = checksums[position]
            if first == checksum:
                return
            if first != _UNLEARNT:
                self.conflicts.setdefault(position, []).append((pid, repr(value)[:80]))
                return
            checksums[position] = checksum
        else:
            checksums.extend(repeat(_UNLEARNT, position - len(checksums)))
            checksums.append(checksum)
        writes = self.write_positions
        if writes is not None:
            for command in flatten_value(value):
                if isinstance(command, Command) and command.op != "get":
                    identity = (command.client_id, command.seq)
                    known = writes.get(identity)
                    if known is None or position < known:
                        writes[identity] = position

    def first_checksum(self, position: int) -> Optional[int]:
        """Checksum of the first value learnt at *position* (None: unlearnt)."""
        if position < len(self._checksums):
            first = self._checksums[position]
            if first != _UNLEARNT:
                return first
        return None


# ------------------------------------------------------------------ invariant probes --
def agreement_violations(service: "ShardedService") -> List[Violation]:
    """Per-position agreement across every replica incarnation of every shard,
    as each shard's :class:`AgreementMonitor` recorded it."""
    violations: List[Violation] = []
    for shard, monitor in enumerate(service.monitors):
        for position in sorted(monitor.conflicts):
            detail = "; ".join(
                f"pid {pid} learnt {value}" for pid, value in monitor.conflicts[position]
            )
            violations.append(
                Violation(
                    kind="agreement",
                    shard=shard,
                    detail=(
                        f"position {position} decided differently: checksum "
                        f"{monitor.first_checksum(position)} was learnt first; {detail}"
                    ),
                )
            )
    return violations


def lemma8_violations(service: "ShardedService") -> List[Violation]:
    """Lemma 8 at every Figure 3 replica, as its oracle counted breaches in the
    registry (Figures 1 and 2 are not proven to keep the bound, so only
    :func:`~repro.analysis.bounds.audit_bounds` counts theirs)."""
    violations: List[Violation] = []
    for shard, system in enumerate(service.systems):
        breaches = [
            f"{shell.algorithm.counters['lemma8_violations']} at pid {shell.pid}"
            for shell in system.shells
            if isinstance(shell.algorithm.omega, Figure3Omega) and shell.algorithm.counters["lemma8_violations"]
        ]
        if breaches:
            detail = "handlers that left a susp_level spread above 1: " + ", ".join(breaches)
            violations.append(Violation(kind="lemma-8", shard=shard, detail=detail))
    return violations


def session_violations(
    service: "ShardedService", clients: Sequence["ClosedLoopClient"]
) -> List[Violation]:
    """Exactly-once safety: no phantom and no cross-shard duplicate commands."""
    violations: List[Violation] = []
    issued = {client.client_id: client.seq for client in clients}
    seen_at: Dict[Tuple[str, int], List[int]] = {}
    for shard in range(service.num_shards):
        replicas = service.correct_replicas(shard)
        if not replicas:
            continue
        sessions = replicas[0].state_machine.sessions()
        for client_id, seqs in sessions.items():
            for seq in seqs:
                if seq < 1 or seq > issued.get(client_id, 0):
                    violations.append(
                        Violation(
                            kind="exactly-once",
                            shard=shard,
                            detail=(
                                f"phantom command ({client_id!r}, seq={seq}) applied "
                                f"but the client issued only {issued.get(client_id, 0)}"
                            ),
                        )
                    )
                else:
                    seen_at.setdefault((client_id, seq), []).append(shard)
    for (client_id, seq), shards in sorted(seen_at.items()):
        if len(shards) > 1:
            violations.append(
                Violation(
                    kind="exactly-once",
                    shard=shards[0],
                    detail=(
                        f"command ({client_id!r}, seq={seq}) applied on "
                        f"{len(shards)} shards {shards} — keys map to one shard"
                    ),
                )
            )
    return violations


def divergence_violations(service: "ShardedService") -> List[Violation]:
    """State-digest convergence: equally-advanced correct replicas agree.

    Replicas that delivered the same number of commands applied — if the log
    layer is safe — the same prefix, so their state digests must be equal.
    Laggards (catch-up still in flight at the horizon) are compared only with
    their equally-advanced peers, never with the frontier group, keeping the
    probe free of liveness false positives.
    """
    violations: List[Violation] = []
    for shard in range(service.num_shards):
        groups: Dict[int, Dict[str, List[int]]] = {}
        for replica in service.correct_replicas(shard):
            advance = replica.log.delivered_total
            digest = replica.state_machine.digest()
            groups.setdefault(advance, {}).setdefault(digest, []).append(replica.pid)
        for advance in sorted(groups):
            digests = groups[advance]
            if len(digests) > 1:
                sides = "; ".join(
                    f"pids {sorted(pids)} at {digest[:12]}"
                    for digest, pids in sorted(digests.items())
                )
                violations.append(
                    Violation(
                        kind="divergence",
                        shard=shard,
                        detail=(
                            f"replicas that delivered {advance} commands disagree "
                            f"on state: {sides}"
                        ),
                    )
                )
    return violations


def durability_violations(
    service: "ShardedService", clients: Sequence["ClosedLoopClient"]
) -> List[Violation]:
    """Every acknowledged operation is still applied somewhere correct.

    Lease-served reads are exempt when the lease path is on: they are answered
    from a replica's applied state without ever entering the log, so "applied
    at a correct replica" is not their durability contract — their correctness
    is checked by the linearizability and stale-read probes instead.  Only
    reads that actually appear in the lease-read audit trail are exempt: a get
    that timed out and *fell back* to the ordered consensus path did enter the
    log and stays subject to the check like any write.
    """
    violations: List[Violation] = []
    lease_served: set = set()
    if service.leases:
        for audits in service.read_audits:
            for read in audits:
                lease_served.add((read.client_id, read.seq))
    for client in clients:
        for record in client.history:
            if record.op == "get" and (record.client_id, record.seq) in lease_served:
                continue
            shard = service.shard_for(record.key)
            if not any(
                replica.command_applied(record.client_id, record.seq)
                for replica in service.correct_replicas(shard)
            ):
                violations.append(
                    Violation(
                        kind="durability",
                        shard=shard,
                        detail=(
                            f"acknowledged op ({record.client_id!r}, seq={record.seq}, "
                            f"{record.op} {record.key!r}) is applied at no correct replica"
                        ),
                    )
                )
    return violations


def stale_read_violations(
    service: "ShardedService", clients: Sequence["ClosedLoopClient"]
) -> List[Violation]:
    """No lease-served read misses a write that completed before it started.

    The lease path's end-to-end staleness check, independent of the Wing–Gong
    probe: every lease-served read was audited with the log index certified
    for it (the serving replica had applied positions ``< index``).  For each
    audited read, any write on the same key whose client observed completion
    at or before the read's invocation must sit at a decided position below
    that index — a position at or above it means the read was served from a
    state provably missing an already-acknowledged write.

    A write's position is the lowest one the shard's :class:`AgreementMonitor`
    saw it decided at, where it was applied, so compaction hides none.  Per
    key, the writes are sorted by completion and read through a prefix
    maximum of their positions, so each read costs one binary search and is
    reported at most once, against the highest-placed write it missed.
    """
    if not service.leases:
        return []
    violations: List[Violation] = []
    for shard in range(service.num_shards):
        audits = service.read_audits[shard]
        if not audits:
            continue
        position_of = service.monitors[shard].write_positions
        # key -> [(completion observed at, decided position)] of write ops.
        writes: Dict[str, List[Tuple[float, int]]] = {}
        for client in clients:
            for record in client.history:
                if record.op == "get":
                    continue
                position = position_of.get((record.client_id, record.seq))
                if position is not None and service.shard_for(record.key) == shard:
                    writes.setdefault(record.key, []).append(
                        (record.completed_at, position)
                    )
        # key -> (completion instants ascending, the write with the highest
        # position among the first i + 1 of them, for each i).
        latest: Dict[str, Tuple[List[float], List[Tuple[float, int]]]] = {}
        for key, entries in writes.items():
            entries.sort()
            highest: List[Tuple[float, int]] = []
            for entry in entries:
                if highest and highest[-1][1] >= entry[1]:
                    entry = highest[-1]
                highest.append(entry)
            latest[key] = ([completed_at for completed_at, _ in entries], highest)
        for read in audits:
            if read.key not in latest:
                continue
            completions, highest = latest[read.key]
            count = bisect_right(completions, read.invoked_at)
            if not count:
                continue
            completed_at, position = highest[count - 1]
            if position >= read.read_index:
                violations.append(
                    Violation(
                        kind="stale-read",
                        shard=shard,
                        detail=(
                            f"read ({read.client_id!r}, seq={read.seq}) of "
                            f"{read.key!r} was served at index {read.read_index} "
                            f"after a write decided at position {position} had "
                            f"completed by t={completed_at} (read invoked at "
                            f"t={read.invoked_at})"
                        ),
                    )
                )
    return violations
