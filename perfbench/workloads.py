"""The four benchmark workloads and the code that builds one run of each.

A workload is a frozen :class:`WorkloadSpec`; ``Run(spec, seed)`` is one
started run of it — a sharded service with its load
generator armed on the shared virtual clock, not yet advanced.  The program
under test only ever sees the generated inputs: the seed feeds the service's
own deterministic streams (delays, client key choices) and nothing else.

Why these four (the one-line versions live in ``BENCHMARK.json``):

``steady_mixed``
    4 shards x (n=3, t=1) at the throughput knee, 50% gets, leases off.  Omega
    heartbeats, consensus rounds, batching and the scheduler/network do the
    work; storage, snapshots, leases and faults do none.  The bypass workload
    for every storage or lease change.
``read_mostly_leases``
    Same shape, 95% gets through the lease read path with adaptive batching.
    ``consensus.leases`` and the replica read path do most of the work, the
    ordered path little.
``durable_failover``
    Charged stable storage plus compaction, open-loop arrivals at ~60% of
    capacity, follower restarts on every shard and a crash of the *current*
    leader on two of them.  Storage, snapshot transfer, the fault engine and
    Omega re-election do the work; requests due while no leader exists are
    counted because the source never waits.
``wide_idle``
    2 shards x (n=7, t=3), six clients thinking 5 vt between operations.
    Latency is the bare commit path (no queueing, batches of one); cost is the
    n^2 ALIVE/SUSPICION background.  Uses Omega and consensus the opposite way
    to ``steady_mixed``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from perfbench.openloop import OpenLoopSource
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import Crash, FaultPlan, Recover
from repro.storage import CompactionPolicy, WriteCostModel

#: One completed operation: ``(shard, is_read, due_at, submitted_at, observed_at)``.
Op = Tuple[int, bool, float, float, float]

#: ``--quick`` multiplies every horizon and fault time by this.
QUICK_SCALE = 0.2


@dataclasses.dataclass(frozen=True)
class LeaderCrash:
    """Crash whoever leads ``shard`` at ``at`` and recover it ``downtime`` later."""

    shard: int
    at: float
    downtime: float


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    num_shards: int
    n: int
    t: int
    horizon: float
    #: No new operation is issued (closed loop) or due (open loop) from here on.
    stop_at: float
    read_fraction: float
    poll_interval: float
    batch_size: Union[int, str] = 8
    leases: bool = False
    #: Closed loop: this many clients, one operation in flight each.
    clients: int = 0
    think_time: float = 0.0
    #: Open loop: arrivals per vt over all shards (0 = closed loop).
    rate: float = 0.0
    storage_write_cost: Optional[float] = None
    compaction: Optional[Tuple[int, int]] = None
    #: shard -> (follower crash time, downtime), as a static fault plan.
    follower_restarts: Tuple[Tuple[int, float, float], ...] = ()
    leader_crashes: Tuple[LeaderCrash, ...] = ()
    #: Run seeds pooled into one measurement (more where seeds disagree more).
    seeds_per_run: int = 3

    @property
    def open_loop(self) -> bool:
        return self.rate > 0

    def scaled(self, scale: float) -> "WorkloadSpec":
        """The same shape with every horizon and fault time multiplied by *scale*."""
        return dataclasses.replace(
            self,
            horizon=self.horizon * scale,
            stop_at=self.stop_at * scale,
            follower_restarts=tuple((s, at * scale, down * scale) for s, at, down in self.follower_restarts),
            leader_crashes=tuple(
                LeaderCrash(c.shard, c.at * scale, c.downtime * scale) for c in self.leader_crashes
            ),
        )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="steady_mixed",
            why="4 shards at the throughput knee, 50% gets, no leases/storage/faults: Omega, consensus rounds, "
            "batching and the event core do the work; the bypass workload for storage and lease changes",
            num_shards=4,
            n=3,
            t=1,
            horizon=1000.0,
            stop_at=950.0,
            read_fraction=0.5,
            poll_interval=0.5,
            clients=48,
        ),
        WorkloadSpec(
            name="read_mostly_leases",
            why="95% gets served through leader leases with adaptive batching: the lease manager and the replica "
            "read path do most of the work and the ordered path little; reads and writes are reported apart",
            num_shards=4,
            n=3,
            t=1,
            horizon=600.0,
            stop_at=570.0,
            read_fraction=0.95,
            poll_interval=0.25,
            batch_size="adaptive",
            leases=True,
            clients=48,
        ),
        WorkloadSpec(
            name="durable_failover",
            why="open loop at 60% of capacity on charged stable storage with compaction, follower restarts and a crash "
            "of the current leader: storage, snapshot transfer, the fault engine and re-election do the work",
            num_shards=4,
            n=3,
            t=1,
            horizon=1050.0,
            stop_at=850.0,
            read_fraction=0.5,
            poll_interval=0.5,
            rate=6.0,
            storage_write_cost=0.2,
            compaction=(64, 16),
            follower_restarts=((0, 100.0, 60.0), (1, 100.0, 60.0), (2, 300.0, 120.0), (3, 300.0, 120.0)),
            leader_crashes=(LeaderCrash(0, 300.0, 200.0), LeaderCrash(1, 310.0, 200.0)),
            seeds_per_run=4,
        ),
        WorkloadSpec(
            name="wide_idle",
            why="2 shards of n=7 with six thinking clients: latency is the bare commit path with batches of one and "
            "cost is the n^2 ALIVE/SUSPICION background, the opposite use of Omega and consensus to steady_mixed",
            num_shards=2,
            n=7,
            t=3,
            horizon=750.0,
            stop_at=720.0,
            read_fraction=0.5,
            poll_interval=0.5,
            clients=6,
            think_time=5.0,
            seeds_per_run=6,
        ),
    )
}


class Run:
    """One started run of a workload: the service, its load and its fault log."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        restarts = {shard: (at, down) for shard, at, down in spec.follower_restarts}

        def fault_plan(shard: int) -> FaultPlan:
            if shard not in restarts:
                return FaultPlan.none()
            at, down = restarts[shard]
            follower = (shard % spec.n + 1) % spec.n  # the default scenario centre is spared
            return FaultPlan.rolling_restarts([follower], start=at, downtime=down)

        self.service = build_sharded_service(
            num_shards=spec.num_shards,
            n=spec.n,
            t=spec.t,
            seed=seed,
            batch_size=spec.batch_size,
            leases=spec.leases,
            fault_plan_factory=fault_plan if restarts else None,
            stable_storage=(
                WriteCostModel(per_write=spec.storage_write_cost) if spec.storage_write_cost is not None else False
            ),
            compaction=CompactionPolicy(*spec.compaction) if spec.compaction is not None else None,
        )
        #: ``(shard, pid, crashed_at, downtime)`` of every leader crash injected so far.
        self.leader_crash_log: List[Tuple[int, int, float, float]] = []
        for crash in spec.leader_crashes:
            self.service.scheduler.schedule_at(crash.at, self._crash_leader, crash)

        def workload(_index: int = 0):
            return zipfian_workload(num_keys=64, theta=0.99, read_fraction=spec.read_fraction)

        self.source: Optional[OpenLoopSource] = None
        if spec.open_loop:
            self.source = OpenLoopSource(
                self.service,
                workload(),
                self.service.rng("open-loop"),
                rate=spec.rate,
                stop_at=spec.stop_at,
                poll_interval=spec.poll_interval,
            )
            self.source.start()
            #: Client-like objects (``client_id`` / ``seq`` / ``history``) for the probes.
            self.sessions = self.source.sessions
        else:
            self.sessions = start_clients(
                self.service,
                num_clients=spec.clients,
                workload_factory=workload,
                poll_interval=spec.poll_interval,
                think_time=spec.think_time,
                stop_at=spec.stop_at,
                record_history=True,
            )

    def _crash_leader(self, crash: LeaderCrash) -> None:
        system = self.service.systems[crash.shard]
        leader = system.agreed_leader()
        if leader is None:
            # Mid-split: try again shortly rather than crash an arbitrary replica.
            self.service.scheduler.schedule_after(1.0, self._crash_leader, crash)
            return
        now = self.service.now
        system.inject_fault(Crash(time=now, pid=leader))
        system.inject_fault(Recover(time=now + crash.downtime, pid=leader))
        self.leader_crash_log.append((crash.shard, leader, now, crash.downtime))

    # ------------------------------------------------------------------ results --
    def ops_due(self) -> int:
        """Operations the load generator was due to issue."""
        if self.source is not None:
            return self.source.due
        return sum(client.seq for client in self.sessions)

    def retries(self) -> int:
        if self.source is not None:
            return self.source.retries
        return sum(client.stats.retries for client in self.sessions)

    def completed_ops(self) -> List[Op]:
        """Every completed operation, in a deterministic order."""
        shard_for = self.service.shard_for
        ops: List[Op] = []
        for session in self.sessions:
            for record in session.history:
                # Closed loop: an operation is due the moment its client issues it.
                due_at = getattr(record, "due_at", record.invoked_at)
                ops.append(
                    (shard_for(record.key), record.op == "get", due_at, record.invoked_at, record.completed_at)
                )
        return ops
