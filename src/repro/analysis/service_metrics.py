"""Throughput, latency and batching metrics of the sharded service (E10).

The quantities of interest for the service layer:

* **throughput** — effective (duplicate-free) commands applied per virtual time
  unit, summed over shards;
* **commands per instance** — how many commands each consensus instance ordered;
  the batching amortisation factor (1.0 for the unbatched seed behaviour);
* **latency** — client-observed issue-to-apply times (closed-loop clients record
  them on the shared virtual clock).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.util.validation import require_positive


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample (virtual time units)."""

    count: int
    mean: float
    p50: float
    p95: float
    max: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, max=0.0)


def latency_stats(latencies: Sequence[float]) -> LatencyStats:
    """Compute count/mean/p50/p95/max of a latency sample."""
    values = sorted(latencies)
    if not values:
        return LatencyStats.empty()

    def percentile(fraction: float) -> float:
        index = min(len(values) - 1, int(fraction * len(values)))
        return values[index]

    return LatencyStats(
        count=len(values),
        mean=sum(values) / len(values),
        p50=percentile(0.50),
        p95=percentile(0.95),
        max=values[-1],
    )


@dataclasses.dataclass(frozen=True)
class ShardReport:
    """Per-shard service metrics."""

    shard: int
    leader: Optional[int]
    applied: int
    instances: int
    commands_per_instance: float
    consistent: bool


@dataclasses.dataclass(frozen=True)
class ServiceSummary:
    """Whole-service metrics over a run of *duration* virtual time units."""

    duration: float
    num_shards: int
    batch_size: int
    committed: int
    instances: int
    commands_per_instance: float
    throughput: float
    latency: LatencyStats
    completed: int
    retries: int
    per_shard: List[ShardReport]
    #: Snapshot/compaction accounting (0 when the service runs without a
    #: compaction policy); peak_decided_residency is the bounded-memory metric.
    snapshots_taken: int = 0
    positions_compacted: int = 0
    peak_decided_residency: int = 0

    @staticmethod
    def row_headers() -> List[str]:
        return [
            "shards",
            "batch",
            "committed",
            "instances",
            "cmds/inst",
            "throughput",
            "p50_lat",
            "p95_lat",
            "retries",
        ]

    def as_row(self) -> List[object]:
        return [
            self.num_shards,
            self.batch_size,
            self.committed,
            self.instances,
            round(self.commands_per_instance, 3),
            round(self.throughput, 3),
            round(self.latency.p50, 3),
            round(self.latency.p95, 3),
            self.retries,
        ]


def summarize_service(service, clients=(), duration: Optional[float] = None) -> ServiceSummary:
    """Summarise a finished (or paused) service run.

    Parameters
    ----------
    service:
        A :class:`~repro.service.sharding.ShardedService`.
    clients:
        The closed-loop clients that drove the run (latency/retry accounting);
        may be empty when commands were submitted directly.
    duration:
        Virtual-time denominator for throughput (defaults to ``service.now``).
    """
    span = duration if duration is not None else service.now
    require_positive(span, "duration")
    per_shard: List[ShardReport] = []
    leaders = service.leaders()
    for shard in range(service.num_shards):
        applied = service.applied_commands(shard)
        instances = service.decided_instances(shard)
        per_shard.append(
            ShardReport(
                shard=shard,
                leader=leaders[shard],
                applied=applied,
                instances=instances,
                commands_per_instance=applied / instances if instances else 0.0,
                consistent=len(set(service.state_digests(shard))) == 1,
            )
        )
    committed = sum(report.applied for report in per_shard)
    instances = sum(report.instances for report in per_shard)
    latencies: List[float] = []
    completed = 0
    retries = 0
    for client in clients:
        latencies.extend(client.stats.latencies)
        completed += client.stats.completed
        retries += client.stats.retries
    counters = service.counters()
    return ServiceSummary(
        duration=span,
        num_shards=service.num_shards,
        batch_size=service.batch_size,
        committed=committed,
        instances=instances,
        commands_per_instance=committed / instances if instances else 0.0,
        throughput=committed / span,
        latency=latency_stats(latencies),
        completed=completed,
        retries=retries,
        per_shard=per_shard,
        snapshots_taken=counters["snapshots_taken"],
        positions_compacted=counters["positions_compacted"],
        peak_decided_residency=counters["peak_decided_residency"],
    )
