"""Timed runs, the calibration kernel, the output check and the metric arithmetic.

Host time is never reported as seconds alone.  A run is advanced in slices of
:data:`SLICE_VT` virtual time units; ``time.process_time()`` brackets each
slice, and each slice is followed by one call of :func:`calibration_kernel`, a
frozen pure-Python loop (heap push/pop, dict store, slotted-method call) timed
the same way.  ``host_cost_kiter_per_op`` is run CPU divided by kernel CPU,
scaled to kernel iterations: a unit that moves with the *code under test* and
stays put when the box is busy, throttled or simply a different box.

Virtual-time and count metrics are pure functions of the seed; they are
computed once from the pooled seeds of a pass, and every further pass must
reproduce the same fingerprints or the run aborts.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import resource
import statistics
import time
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import Op, Run, WorkloadSpec
from repro.fuzz.executor import (
    agreement_violations,
    divergence_violations,
    durability_violations,
    session_violations,
    stale_read_violations,
)

#: Virtual time advanced between two calibration-kernel calls.
SLICE_VT = 10.0
#: The warm-up run is the workload at this fraction of its horizon.
WARM_UP_SCALE = 0.1
#: Iterations of one calibration-kernel call (4 kiter).
KERNEL_ITERATIONS = 4000
#: What :func:`calibration_kernel` must return; pinned by the tests so the
#: kernel cannot drift without every recorded host cost being re-based.
KERNEL_CHECKSUM = 1676069473

#: Network tags of each protocol layer (everything else is ``other``).
CORE_TAGS = ("ALIVE", "SUSPICION")
CONSENSUS_TAGS = ("PREPARE", "PROMISE", "ACCEPT", "ACCEPTED", "DECIDE", "NACK")
FORWARD_TAGS = ("FORWARD",)
CATCHUP_TAGS = ("CATCHUP_REQ", "CATCHUP_REP", "SNAP_REQ", "SNAP_REP")
LEASE_TAGS = ("LEASE_REQ", "LEASE_GRANT", "READ_INDEX_REQ", "READ_INDEX_REP")


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0

    def add(self, value: int) -> None:
        self.total = (self.total + value) & 0xFFFFFFFF


def calibration_kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """The frozen yardstick: the operations the event core is made of.

    Do not edit — every ``host_cost_kiter_per_op`` ever recorded is a multiple
    of this loop's cost.  Returns a checksum so the work cannot be elided.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    cell = _Cell()
    state = 12345
    for index in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (state, index))
        if index & 1:
            key, _ = heappop(heap)
            table[key & 1023] = index
            cell.add(key)
    return cell.total ^ len(table) ^ len(heap)


# ------------------------------------------------------------------ one seed, one run --
@dataclasses.dataclass
class SeedResult:
    """Everything one finished run contributes to the ledger."""

    seed: int
    fingerprint: str
    ops: List[Op]
    due: int
    retries: int
    events: int
    sent_by_tag: Dict[str, int]
    delivered: int
    dropped: int
    delay_total: float
    counters: Dict[str, int]
    storage_cost: float
    instances: int
    session_entries: int
    duplicates_skipped: int
    leader_changes: int
    lease_reads: int
    #: ``(shard, crashed_at, downtime, gap)`` per injected leader crash.
    failover_gaps: List[Tuple[int, float, float, float]]
    lateness_total: float
    #: Probe name -> violations found (filled by :func:`check_run`).
    violations: Dict[str, int] = dataclasses.field(default_factory=dict)
    stale_reads: int = 0


def advance(run: Run) -> Tuple[float, float, int]:
    """Run *run* to its horizon; return ``(run CPU, kernel CPU, kernel calls)``.

    The cyclic garbage collector is off while the clock runs (and collected
    before): where a full collection lands — in a run slice or in a kernel
    call — is an accident of the allocation count, and with the recorded
    histories on the heap one such pause swung the ratio by +-15% between
    seeds.  The simulator makes almost no cycles, so memory is unaffected.
    """
    service = run.service
    horizon = run.spec.horizon
    clock = time.process_time
    run_cpu = kernel_cpu = 0.0
    kernel_calls = 0
    target = 0.0
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while target < horizon:
            target = min(horizon, target + SLICE_VT)
            t0 = clock()
            service.run_until(target)
            t1 = clock()
            calibration_kernel()
            t2 = clock()
            run_cpu += t1 - t0
            kernel_cpu += t2 - t1
            kernel_calls += 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return run_cpu, kernel_cpu, kernel_calls


def warm_up(spec: WorkloadSpec, seed: int) -> None:
    """One short untimed run, so the first timed pass does not also pay for
    bytecode specialisation and the allocator's first pages."""
    advance(Run(spec.scaled(WARM_UP_SCALE), seed))


def failover_gap(ops: Sequence[Op], shard: int, crashed_at: float, downtime: float) -> float:
    """Longest interval without a completed operation on *shard* that begins
    inside the outage ``[crashed_at, crashed_at + downtime)``, censored at the
    downtime (a shard that serves nothing until its leader is back scores the
    downtime itself)."""
    points = [crashed_at] + sorted(op[4] for op in ops if op[0] == shard and op[4] > crashed_at)
    if len(points) == 1:
        return downtime
    gaps = [later - earlier for earlier, later in zip(points, points[1:]) if earlier < crashed_at + downtime]
    return min(max(gaps), downtime)


def collect(run: Run, observer_events: int = 0) -> SeedResult:
    """Read every count the ledger needs off a finished *run*."""
    service = run.service
    ops = run.completed_ops()
    sent: Dict[str, int] = {}
    delivered = dropped = 0
    delay_total = 0.0
    for system in service.systems:
        stats = system.stats
        for tag, count in stats.sent_by_tag.items():
            sent[tag] = sent.get(tag, 0) + count
        delivered += stats.total_delivered
        dropped += stats.total_dropped
        delay_total += stats.total_delay
    machines = [service.reference_replica(shard).state_machine for shard in range(service.num_shards)]
    leader_changes = 0
    for system in service.systems:
        for shell in system.shells:
            leader_changes += max(0, len(shell.algorithm.omega.leader_history) - 1)
    counters = service.perf_counters()
    digests = [service.state_digests(shard, correct_only=False) for shard in range(service.num_shards)]
    history = sorted(record.to_tuple() for session in run.sessions for record in session.history)
    events = service.scheduler.executed - observer_events
    payload = repr((digests, history, sorted(sent.items()), sorted(counters.items()), events, run.leader_crash_log))
    return SeedResult(
        seed=run.seed,
        fingerprint=hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        ops=ops,
        due=run.ops_due(),
        retries=run.retries(),
        events=events,
        sent_by_tag=sent,
        delivered=delivered,
        dropped=dropped,
        delay_total=delay_total,
        counters=counters,
        storage_cost=service.storage_cost(),
        instances=service.total_instances(),
        session_entries=sum(len(seqs) for machine in machines for seqs in machine.sessions().values()),
        duplicates_skipped=sum(machine.duplicates_skipped for machine in machines),
        leader_changes=leader_changes,
        lease_reads=sum(len(audits) for audits in service.read_audits),
        failover_gaps=[
            (shard, at, down, failover_gap(ops, shard, at, down)) for shard, _pid, at, down in run.leader_crash_log
        ],
        lateness_total=run.source.lateness_total if run.source is not None else 0.0,
    )


def check_run(run: Run, result: SeedResult) -> None:
    """Run the invariant probes on a finished *run*; fill ``result.violations``.

    ``linearizability_violations`` is deliberately absent (40 s for 1.9k
    operations, out of memory at 60k — see the README); ``stale_read_violations``
    is counted into ``stale_read_share``, not gated.
    """
    service, sessions = run.service, run.sessions
    result.violations = {
        "inconsistent": 0 if service.is_consistent() else 1,
        "agreement": len(agreement_violations(service)),
        "session": len(session_violations(service, sessions)),
        "divergence": len(divergence_violations(service)),
        "durability": len(durability_violations(service, sessions)),
    }
    result.stale_reads = len(stale_read_violations(service, sessions))


# ------------------------------------------------------------------ the timed protocol --
def rss_high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_passes(
    spec: WorkloadSpec, seeds: Sequence[int], seconds: float
) -> Tuple[List[SeedResult], List[Dict], float]:
    """Run *seeds* round-robin, pass after pass, until *seconds* are used up.

    At least two passes run (the second proves the first was deterministic).
    Returns the probed results of the final pass, one host-time record per
    pass and the high-water RSS in MB.  The invariant probes run on the final
    pass only, after that RSS was read, so ``peak_rss_mb`` is the program's
    and the benchmark's own bookkeeping, not the probes' scratch memory.
    """
    warm_up(spec, seeds[0])
    started = time.perf_counter()
    fingerprints: Dict[int, str] = {}
    passes: List[Dict] = []
    final: List[SeedResult] = []
    rss_mb: Optional[float] = None
    while True:
        pass_started = time.perf_counter()
        elapsed = pass_started - started
        longest = max((p["wall"] for p in passes), default=0.0)
        last = len(passes) >= 1 and elapsed + 2 * longest > seconds
        record = {"run_cpu": 0.0, "kernel_cpu": 0.0, "kernel_calls": 0, "ops": 0}
        for seed in seeds:
            run = Run(spec, seed)
            run_cpu, kernel_cpu, kernel_calls = advance(run)
            result = collect(run)
            if fingerprints.setdefault(seed, result.fingerprint) != result.fingerprint:
                raise RuntimeError(f"{spec.name} seed {seed}: fingerprint changed between passes (nondeterminism)")
            record["run_cpu"] += run_cpu
            record["kernel_cpu"] += kernel_cpu
            record["kernel_calls"] += kernel_calls
            record["ops"] += len(result.ops)
            if last:
                if rss_mb is None:
                    rss_mb = rss_high_water_mb()
                check_run(run, result)
                final.append(result)
            del run
        record["wall"] = time.perf_counter() - pass_started
        passes.append(record)
        if last:
            break
    return final, passes, rss_mb or 0.0


# ------------------------------------------------------------------ arithmetic --
def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tag_total(results: Sequence[SeedResult], tags: Sequence[str]) -> int:
    return sum(result.sent_by_tag.get(tag, 0) for result in results for tag in tags)


def virtual_metrics(spec: WorkloadSpec, results: Sequence[SeedResult]) -> Dict[str, float]:
    """Every virtual-time and count metric, pooled over the seeds of *results*.

    Pure functions of the seeds: the same ``results`` give the same numbers to
    the last digit on any box.  Keys are ledger metric names.
    """
    ops = [op for result in results for op in result.ops]
    completed = len(ops) or 1
    reads = [op[4] - op[2] for op in ops if op[1]]
    writes = [op[4] - op[2] for op in ops if not op[1]]
    due = sum(result.due for result in results)
    hard = sum(result.violations.get("durability", 0) for result in results)
    sent = sum(sum(result.sent_by_tag.values()) for result in results)
    delivered = sum(result.delivered for result in results)
    counters: Dict[str, int] = {}
    for result in results:
        for key, value in result.counters.items():
            counters[key] = max(counters.get(key, 0), value) if key == "peak_decided_residency" else (
                counters.get(key, 0) + value
            )
    lease_reads = sum(result.lease_reads for result in results)
    lease_requests = len(reads) if spec.leases else 0
    vt_total = spec.horizon * len(results)
    gaps = [gap for result in results for (_shard, _at, _down, gap) in result.failover_gaps]
    return {
        "read_mean_vt": mean(reads),
        "read_p99_vt": percentile(reads, 0.99),
        "write_mean_vt": mean(writes),
        "write_p99_vt": percentile(writes, 0.99),
        # Operations over the time it took to complete them all (not over the
        # offered window, which would pin an open loop to its own arrival rate).
        "goodput_ops_per_vt": len(ops) / (sum(max(op[4] for op in r.ops) for r in results if r.ops) or 1.0),
        "failover_gap_vt": mean(gaps),
        "msgs_per_op": sent / completed,
        "failed_op_share": (due - len(ops) + hard) / due if due else 0.0,
        "stale_read_share": sum(result.stale_reads for result in results) / lease_reads if lease_reads else 0.0,
        "ops_due": due,
        "ops_failed": due - len(ops) + hard,
        "simulation.scheduler.events_per_op": sum(result.events for result in results) / completed,
        "simulation.network.delay_mean_vt": sum(result.delay_total for result in results) / delivered
        if delivered
        else 0.0,
        "simulation.network.dropped_share": sum(result.dropped for result in results) / sent if sent else 0.0,
        "core.msgs_per_op": tag_total(results, CORE_TAGS) / completed,
        "core.leader_changes": sum(result.leader_changes for result in results),
        "consensus.msgs_per_op": tag_total(results, CONSENSUS_TAGS) / completed,
        "consensus.forward_msgs_per_op": tag_total(results, FORWARD_TAGS) / completed,
        "consensus.catchup_msgs_per_op": tag_total(results, CATCHUP_TAGS) / completed,
        "consensus.ops_per_instance": (len(ops) - lease_reads) / max(1, sum(result.instances for result in results)),
        "consensus.leases.msgs_per_op": tag_total(results, LEASE_TAGS) / completed,
        "consensus.leases.local_read_share": lease_reads / lease_requests if lease_requests else 0.0,
        "consensus.leases.fallback_share": counters.get("lease_read_fallbacks", 0) / lease_requests
        if lease_requests
        else 0.0,
        "consensus.leases.read_index_polls_per_op": counters.get("read_index_polls", 0) / completed,
        "consensus.leases.renewals_per_vt": counters.get("lease_renewals", 0) / vt_total,
        "consensus.leases.gated_drops": counters.get("lease_gated_drops", 0),
        "storage.writes_per_op": counters.get("storage_writes", 0) / completed,
        "storage.write_cost_vt_per_op": sum(result.storage_cost for result in results) / completed,
        "storage.snapshots_taken": counters.get("snapshots_taken", 0),
        "storage.snapshot_restores": counters.get("snapshot_restores", 0),
        "storage.positions_compacted": counters.get("positions_compacted", 0),
        "storage.peak_decided_residency": counters.get("peak_decided_residency", 0),
        "service.session_entries_end": sum(result.session_entries for result in results),
        "service.duplicates_skipped": sum(result.duplicates_skipped for result in results),
        "service.clients.retries_per_op": sum(result.retries for result in results) / completed,
        "service.clients.lateness_vt_mean": sum(result.lateness_total for result in results) / completed,
        "service.clients.op_p50_vt": median([op[4] - op[2] for op in ops]),
    }


def host_metrics(passes: Sequence[Dict]) -> Dict[str, float]:
    """Host cost per completed operation: the median over the passes."""
    kiter_per_call = KERNEL_ITERATIONS / 1000.0
    return {
        "host_cost_kiter_per_op": median(
            [p["run_cpu"] / p["kernel_cpu"] * p["kernel_calls"] * kiter_per_call / p["ops"] for p in passes]
        ),
        "host.cpu_us_per_op": median([p["run_cpu"] / p["ops"] * 1e6 for p in passes]),
        "host.calib_us_per_kiter": median(
            [p["kernel_cpu"] / (p["kernel_calls"] * kiter_per_call) * 1e6 for p in passes]
        ),
    }


def output_check(results: Sequence[SeedResult], metrics: Dict[str, float]) -> List[str]:
    """The reasons this run's outputs are wrong (empty = correct)."""
    problems = []
    for result in results:
        for probe, count in result.violations.items():
            if count:
                problems.append(f"seed {result.seed}: {probe} probe reports {count} violation(s)")
    for name, value in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not finite: {value!r}")
    return problems
