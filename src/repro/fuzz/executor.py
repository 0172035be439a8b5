"""Deterministic one-shot execution of a ``(spec, plan, seed)`` fuzz scenario.

:func:`run_scenario` is the campaign's measurement instrument: it builds a
real :class:`~repro.service.sharding.ShardedService` from a
:class:`~repro.service.sharding.ServiceSpec` (actual Omega elections, actual
consensus, actual clients — no scripted oracles), injects the fault plan,
drives closed-loop clients that record timed operation histories, and returns
an :class:`ExecutionResult` carrying

* the **coverage features** the feedback loop buckets for novelty (leader
  changes, round resyncs, catch-up and snapshot-transfer activity, corruption
  rejections, recoveries, client retries, ...) — the protocol counts among
  them read from per-process counter registries that outlive incarnations, so
  a restart can never shrink a feature mid-run;
* the **invariant verdicts**: per-position agreement across every replica
  incarnation, exactly-once session safety, digest-chain convergence of
  equally-advanced replicas, durability of acknowledged writes, and a real
  Wing–Gong linearizability check of the merged client history against the
  key-value specification;
* a **fingerprint** over features, violations, final digests and the full
  operation history.  The execution is a pure function of
  ``(spec, plan, spec.seed)``: equal inputs produce byte-identical
  fingerprints in any process, which is what makes findings replayable and
  campaigns worker-count-independent.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.consensus.commands import Command, flatten_value
from repro.fuzz.linearizability import check_history
from repro.service.clients import ClosedLoopClient, start_workload
from repro.service.sharding import (
    LEASE_MODE_COUNTERS,
    ServiceSpec,
    ShardedService,
    build_service,
)
from repro.simulation.faults import FaultPlan
from repro.util.rng import fingerprint

#: The fuzz baseline every campaign, witness and test ``dataclasses.replace``-s:
#: one small group under constant delays, two uniform-key clients that stop at
#: 80 so the run quiesces before the horizon, batches of one and a retry
#: timeout short enough to fire inside a fault window.
FUZZ_BASELINE = ServiceSpec(
    n=3,
    t=1,
    num_shards=1,
    horizon=110.0,
    stop_at=80.0,
    num_clients=2,
    num_keys=4,
    batch_size=1,
    retry_timeout=12.0,
    scenario="constant",
)


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant breach observed by an execution's probes."""

    kind: str  # "agreement" | "exactly-once" | "divergence" | "durability" | "stale-read" | "linearizability"
    shard: int
    detail: str

    def to_dict(self) -> Dict:
        return {"kind": self.kind, "shard": self.shard, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict) -> "Violation":
        return cls(
            kind=str(data["kind"]), shard=int(data["shard"]), detail=str(data["detail"])
        )


@dataclasses.dataclass
class ExecutionResult:
    """The deterministic outcome of one fuzz execution."""

    spec_data: Dict
    plan_data: Dict
    features: Dict[str, int]
    violations: Tuple[Violation, ...]
    leader_change_times: Tuple[float, ...]
    fingerprint: str
    amnesia_hazards: Tuple[str, ...]
    assumption_violations: Tuple[str, ...]
    history_len: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "spec": dict(self.spec_data),
            "plan": dict(self.plan_data),
            "features": dict(self.features),
            "violations": [v.to_dict() for v in self.violations],
            "leader_change_times": list(self.leader_change_times),
            "fingerprint": self.fingerprint,
            "amnesia_hazards": list(self.amnesia_hazards),
            "assumption_violations": list(self.assumption_violations),
            "history_len": self.history_len,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExecutionResult":
        return cls(
            spec_data=dict(data["spec"]),
            plan_data=dict(data["plan"]),
            features={str(k): int(v) for k, v in data["features"].items()},
            violations=tuple(Violation.from_dict(v) for v in data["violations"]),
            leader_change_times=tuple(float(x) for x in data["leader_change_times"]),
            fingerprint=str(data["fingerprint"]),
            amnesia_hazards=tuple(str(x) for x in data["amnesia_hazards"]),
            assumption_violations=tuple(str(x) for x in data["assumption_violations"]),
            history_len=int(data["history_len"]),
        )


# ------------------------------------------------------------------ invariant probes --
def _iter_logs(service: ShardedService, shard: int):
    """Yield ``(pid, replicated log)`` of every shell of *shard* (crashed too).

    A crashed shell's algorithm object is its last incarnation — its decisions
    were really made, so agreement must hold across them as well.
    """
    for shell in service.systems[shard].shells:
        log = getattr(shell.algorithm, "log", None)
        if log is not None:
            yield shell.pid, log


def agreement_violations(service: ShardedService) -> List[Violation]:
    """Per-position agreement across every replica of every shard."""
    violations: List[Violation] = []
    for shard in range(service.num_shards):
        decided: Dict[int, Dict[object, List[int]]] = {}
        for pid, log in _iter_logs(service, shard):
            for position, value in log.decided_log().items():
                decided.setdefault(position, {}).setdefault(repr(value), []).append(pid)
        for position in sorted(decided):
            values = decided[position]
            if len(values) > 1:
                detail = "; ".join(
                    f"pids {sorted(pids)} decided {value[:80]}"
                    for value, pids in sorted(values.items())
                )
                violations.append(
                    Violation(
                        kind="agreement",
                        shard=shard,
                        detail=f"position {position} decided differently: {detail}",
                    )
                )
    return violations


def session_violations(
    service: ShardedService, clients: List[ClosedLoopClient]
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


def divergence_violations(service: ShardedService) -> List[Violation]:
    """Digest-chain convergence: equally-advanced correct replicas agree.

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
    service: ShardedService, clients: List[ClosedLoopClient]
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


def linearizability_violations(clients: List[ClosedLoopClient]) -> List[Violation]:
    """Wing–Gong check of the merged client history against the KV spec."""
    merged = [record for client in clients for record in client.history]
    verdict = check_history(merged)
    return [
        Violation(
            kind="linearizability",
            shard=-1,
            detail=f"key {failure.key!r}: {failure.reason}",
        )
        for failure in verdict.failures
    ]


def stale_read_violations(
    service: ShardedService, clients: List[ClosedLoopClient]
) -> List[Violation]:
    """No lease-served read misses a write that completed before it started.

    The lease path's end-to-end staleness check, independent of the Wing–Gong
    probe: every lease-served read was audited with the log index certified
    for it (the serving replica had applied positions ``< index``).  For each
    audited read, any write on the same key whose client observed completion
    at or before the read's invocation must sit at a decided position below
    that index — a position at or above it means the read was served from a
    state provably missing an already-acknowledged write.

    Write positions are recovered from a correct replica's resident decided
    log; writes whose position was compacted away are skipped (under-coverage,
    never a false positive).
    """
    if not service.leases:
        return []
    violations: List[Violation] = []
    for shard in range(service.num_shards):
        audits = service.read_audits[shard]
        if not audits:
            continue
        replicas = service.correct_replicas(shard)
        if not replicas:
            continue
        position_of: Dict[Tuple[str, int], int] = {}
        for position, value in replicas[0].log.decided_log().items():
            for command in flatten_value(value):
                if isinstance(command, Command):
                    position_of[(command.client_id, command.seq)] = position
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
        for read in audits:
            for completed_at, position in writes.get(read.key, ()):
                if completed_at <= read.invoked_at and position >= read.read_index:
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


def check_invariants(
    service: ShardedService, clients: List[ClosedLoopClient]
) -> List[Violation]:
    """Run every probe; the returned order is deterministic."""
    violations: List[Violation] = []
    violations.extend(agreement_violations(service))
    violations.extend(session_violations(service, clients))
    violations.extend(divergence_violations(service))
    violations.extend(durability_violations(service, clients))
    violations.extend(stale_read_violations(service, clients))
    violations.extend(linearizability_violations(clients))
    return violations


# ------------------------------------------------------------------ feature harvest --
#: The registry counts that are coverage features, under their registry names
#: (plus, in lease mode only, ``LEASE_MODE_COUNTERS``).
_COUNTER_FEATURES = (
    "round_resyncs",
    "suspicions_sent",
    "catchup_polls",
    "catchup_replies",
    "ballots_started",
    "accept_rounds_started",
    "corruption_rejections",
    "snapshots_taken",
    "snapshot_restores",
    "positions_compacted",
    "snapshots_rejected",
)


def harvest_features(
    service: ShardedService, clients: List[ClosedLoopClient]
) -> Dict[str, int]:
    """The coverage feature vector (every value a non-negative int).

    Protocol counts come from ``service.counters()`` — per-process registries
    that outlive incarnations — so features are monotone over the run
    regardless of restarts: a restart cannot make a campaign believe a
    behaviour disappeared.
    """
    recoveries = sum(
        shell.recoveries for system in service.systems for shell in system.shells
    )
    leader_changes = 0
    for system in service.systems:
        for shell in system.shells:
            history = getattr(shell.algorithm, "omega", None)
            if history is not None:
                leader_changes += max(0, len(history.leader_history) - 1)
    dropped = sum(system.stats.total_dropped for system in service.systems)
    features = {
        "decided_positions": service.total_instances(),
        "applied_commands": service.total_applied(),
        "completed_ops": sum(client.stats.completed for client in clients),
        "client_retries": sum(client.stats.retries for client in clients),
        "leader_changes": leader_changes,
        "recoveries": recoveries,
        "messages_dropped": dropped,
        "corrupted_messages": service.corrupted_messages(),
        "storage_writes": service.storage_writes(),
    }
    names = _COUNTER_FEATURES + LEASE_MODE_COUNTERS if service.leases else _COUNTER_FEATURES
    counters = service.counters()
    features.update((name, counters[name]) for name in names)
    return features


def _leader_change_times(service: ShardedService) -> Tuple[float, ...]:
    """Merged, deduplicated leader-change instants across live incarnations."""
    times = set()
    for system in service.systems:
        for shell in system.shells:
            omega = getattr(shell.algorithm, "omega", None)
            if omega is None:
                continue
            for index, (when, _leader) in enumerate(omega.leader_history):
                if index > 0:
                    times.add(round(float(when), 6))
    return tuple(sorted(times))


# ------------------------------------------------------------------ the instrument --
def run_scenario(spec: ServiceSpec, plan: FaultPlan) -> ExecutionResult:
    """Execute one ``(spec, plan)`` pair (*plan* on every shard); pure in
    ``(spec, plan, spec.seed)``."""
    plan.validate(spec.n, spec.t)
    plan_data = plan.to_dict()
    # A fresh deserialization per shard: plans are stateless, but sharing one
    # object across shards would alias the injector bookkeeping.
    service = build_service(
        spec, fault_plan_factory=lambda shard: FaultPlan.from_dict(plan_data)
    )
    clients = start_workload(service, spec, record_history=True)
    service.run_until(spec.horizon)

    violations = tuple(check_invariants(service, clients))
    features = harvest_features(service, clients)
    history = sorted(
        record.to_tuple() for client in clients for record in client.history
    )
    digests = [
        sorted(service.state_digests(shard)) for shard in range(service.num_shards)
    ]
    return ExecutionResult(
        spec_data=spec.to_dict(),
        plan_data=plan_data,
        features=features,
        violations=violations,
        leader_change_times=_leader_change_times(service),
        fingerprint=fingerprint(
            (
                sorted(features.items()),
                [
                    (violation.kind, violation.shard, violation.detail)
                    for violation in violations
                ],
                digests,
                history,
            )
        ),
        amnesia_hazards=tuple(
            hazard
            for shard in range(service.num_shards)
            for hazard in service.amnesia_hazards[shard]
        ),
        assumption_violations=tuple(
            violation
            for shard in range(service.num_shards)
            for violation in service.assumption_violations[shard]
        ),
        history_len=len(history),
    )


__all__ = [
    "ExecutionResult",
    "FUZZ_BASELINE",
    "Violation",
    "agreement_violations",
    "check_invariants",
    "divergence_violations",
    "durability_violations",
    "harvest_features",
    "linearizability_violations",
    "run_scenario",
    "session_violations",
    "stale_read_violations",
]
