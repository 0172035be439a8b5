"""The ledger's metric registry: names, units, directions, floors, interactions.

One table, read by ``run.py`` (what to print and what the driver's result line
holds), ``compare.py`` (which way is better) and the tests (``BENCHMARK.json``
must list exactly these names).  Units: ``vt`` is virtual time; ``kiter`` is
1000 iterations of the calibration kernel.

``gated`` end-to-end metrics are the ones ``BENCHMARK.json`` lists under
``end_to_end``: defined and non-zero on every workload, and steady enough from
seed to seed to carry one bound of at most 0.25 across all four workloads.  The
others are end-to-end all the same — ``compare.py`` judges them per workload
with the bounds in ``ledger.json`` — but are zero on some workload or swing
too far between seeds for that single bound, so ``BENCHMARK.json`` can only
carry them in its unbounded list.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from perfbench.layers import LAYERS


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Smallest bound a (metric, workload) pair may carry in ``ledger.json``.
    floor: float
    #: The one bound ``BENCHMARK.json`` carries for all workloads (None = not gated there).
    gate_bound: Optional[float]
    what: str

    @property
    def gated(self) -> bool:
        return self.gate_bound is not None


@dataclasses.dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: The end-to-end metric this should move, and on which workload.
    moves: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.5, 0.25, "wall time from process start to the first simulated event"),
    EndToEnd("read_mean_vt", "vt", "lower", 0.03, 0.25, "mean get latency, due -> the client's observing poll"),
    EndToEnd("read_p99_vt", "vt", "lower", 0.10, None, "99th percentile get latency"),
    EndToEnd("write_mean_vt", "vt", "lower", 0.03, 0.25, "mean put/incr/delete/cas latency"),
    EndToEnd("write_p99_vt", "vt", "lower", 0.10, None, "99th percentile write latency"),
    EndToEnd("goodput_ops_per_vt", "1/vt", "higher", 0.03, 0.10, "completed operations per vt of offered load"),
    EndToEnd("failover_gap_vt", "vt", "lower", 0.15, None, "longest no-completion interval after a leader crash"),
    EndToEnd("msgs_per_op", "count", "lower", 0.01, 0.25, "network sends per completed operation"),
    EndToEnd("host_cost_kiter_per_op", "kiter", "lower", 0.08, 0.25, "calibrated host CPU per completed operation"),
    EndToEnd("host_calls_per_op", "count", "lower", 0.01, None, "Python-level calls per completed operation"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, 0.15, "resident-set high-water mark of the measuring process"),
    EndToEnd("failed_op_share", "share", "lower", 0.0, None, "operations due but never observed complete, or lost"),
    EndToEnd("stale_read_share", "share", "lower", 0.01, None, "lease reads flagged stale / lease reads served"),
)

_HOST = "host_calls_per_op / host_cost_kiter_per_op"


def _layer_rows() -> List[PerLayer]:
    where = {
        "core": "; should dominate wide_idle",
        "consensus.leases": "; non-zero only on read_mostly_leases",
        "service": "; with consensus.leases carries read_mostly_leases",
        "storage": "; non-zero only on durable_failover",
        "simulation.faults": "; non-zero only on durable_failover",
    }
    rows = []
    for layer in LAYERS:
        rows.append(PerLayer(f"{layer}.calls_per_op", "count", "lower", _HOST + where.get(layer, "")))
        rows.append(PerLayer(f"{layer}.self_share", "share", "lower", _HOST + where.get(layer, "")))
    return rows


PER_LAYER: Tuple[PerLayer, ...] = (
    *_layer_rows(),
    PerLayer("perfbench.self_share", "share", "lower", "the benchmark's own share of traced CPU (load generator, spans)"),
    PerLayer("simulation.scheduler.events_per_op", "count", "lower", "host_cost_kiter_per_op on every workload"),
    PerLayer("simulation.network.delay_mean_vt", "vt", "lower", "every latency metric"),
    PerLayer("simulation.network.dropped_share", "share", "lower", "every latency metric (retries)"),
    PerLayer("core.msgs_per_op", "count", "lower", "msgs_per_op; wide_idle >> steady_mixed"),
    PerLayer("core.reelection_vt", "vt", "lower", "failover_gap_vt on durable_failover"),
    PerLayer("core.leader_changes", "count", "lower", "failover_gap_vt; p99 latency on steady_mixed"),
    PerLayer("consensus.msgs_per_op", "count", "lower", "msgs_per_op on steady_mixed"),
    PerLayer("consensus.forward_msgs_per_op", "count", "lower", "msgs_per_op on steady_mixed and durable_failover"),
    PerLayer("consensus.catchup_msgs_per_op", "count", "lower", "msgs_per_op on steady_mixed"),
    PerLayer(
        "consensus.ops_per_instance", "count", "higher", "write_mean_vt, goodput on steady_mixed; flat (~1) on wide_idle"
    ),
    PerLayer("consensus.commit_path_vt_mean", "vt", "lower", "write_mean_vt, on wide_idle first"),
    PerLayer("consensus.resume_after_election_vt", "vt", "lower", "failover_gap_vt on durable_failover"),
    PerLayer("consensus.leases.msgs_per_op", "count", "lower", "msgs_per_op on read_mostly_leases; zero elsewhere"),
    PerLayer("consensus.leases.local_read_share", "share", "higher", "read_mean_vt on read_mostly_leases"),
    PerLayer("consensus.leases.fallback_share", "share", "lower", "read_mean_vt, read_p99_vt on read_mostly_leases"),
    PerLayer("consensus.leases.read_index_polls_per_op", "count", "lower", "read_mean_vt on read_mostly_leases"),
    PerLayer("consensus.leases.renewals_per_vt", "1/vt", "lower", "msgs_per_op on read_mostly_leases"),
    PerLayer("consensus.leases.gated_drops", "count", "lower", "write_mean_vt, stale_read_share on read_mostly_leases"),
    PerLayer("storage.writes_per_op", "count", "lower", "write_mean_vt on durable_failover"),
    PerLayer("storage.write_cost_vt_per_op", "vt", "lower", "write_mean_vt on durable_failover"),
    PerLayer("storage.snapshots_taken", "count", "lower", "host_cost_kiter_per_op, peak_rss_mb on durable_failover"),
    PerLayer("storage.snapshot_restores", "count", "lower", "storage.recovery_catchup_vt on durable_failover"),
    PerLayer("storage.positions_compacted", "count", "higher", "peak_rss_mb on durable_failover"),
    PerLayer("storage.peak_decided_residency", "count", "lower", "peak_rss_mb"),
    PerLayer("storage.snapshot_entries_mean", "count", "lower", "peak_rss_mb, host cost: the O(history) hole"),
    PerLayer("storage.recovery_catchup_vt", "vt", "lower", "read/write p99 on durable_failover"),
    PerLayer("service.session_entries_end", "count", "lower", "peak_rss_mb on the long closed-loop workloads"),
    PerLayer("service.duplicates_skipped", "count", "lower", "msgs_per_op (retransmitted work)"),
    PerLayer("service.clients.retries_per_op", "count", "lower", "p99 latency, msgs_per_op"),
    PerLayer("service.clients.poll_wait_vt_mean", "vt", "lower", "the quantisation floor of every latency"),
    PerLayer("service.clients.lateness_vt_mean", "vt", "lower", "open loop only: how late the generator submitted"),
    PerLayer("service.clients.op_p50_vt", "vt", "lower", "informational: bimodal on the 2-vt drive tick"),
    PerLayer("host.cpu_us_per_op", "us", "lower", "raw CPU, informational: does not repeat between sessions"),
    PerLayer("host.calib_us_per_kiter", "us", "lower", "how fast the box was while measuring"),
    PerLayer("host.trace_overhead_ratio", "ratio", "lower", "traced / untraced CPU of the same seed"),
)

GATED: Tuple[str, ...] = tuple(metric.name for metric in END_TO_END if metric.gated)
UNITS: Dict[str, str] = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}


def benchmark_per_layer() -> List[Dict[str, str]]:
    """``BENCHMARK.json``'s unbounded list: ungated end-to-end, then per-layer."""
    rows = [{"name": m.name, "unit": m.unit, "better": m.better} for m in END_TO_END if not m.gated]
    rows += [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    return rows
