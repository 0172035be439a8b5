"""Pinned-fingerprint guard for the benchmark workloads.

``tests/integration/test_determinism.py`` catches *within-run* nondeterminism
by running the same seed twice in one process; this test catches the other
failure mode — a refactor that deterministically changes what a seeded
execution computes.  The quick-shape fingerprints of every sequential
``bench_perf`` workload are pinned here as constants: any change to the
substrate that alters an execution (event order, RNG draw order, delay
arithmetic, digest content) flips one of these digests and fails loudly.

When a PR *intentionally* changes executions (new protocol feature, changed
default, a protocol-level optimisation that sends different messages), re-pin
the constants together with the refreshed ``benchmarks/perf_baseline.json`` —
never in a substrate-only perf PR, whose whole contract is that these digests
stay byte-identical.  ``omega_broadcast`` is the paper-exactness witness: it
runs Figure 3 alone and moves only if the paper's algorithm does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_perf.py"
_spec = importlib.util.spec_from_file_location("bench_perf", _BENCH_PATH)
bench_perf = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_perf", bench_perf)
_spec.loader.exec_module(bench_perf)

#: Quick-shape fingerprints of the sequential workloads (see module docstring
#: for when these may be re-pinned).
PINNED_QUICK_FINGERPRINTS = {
    "omega_broadcast": "5b36c19e15a2d846c7993c1ab1ae0ea3c4168de467ca0aeb79e9c3d3da0685cb",
    "sharded_service": "bb507c703f0f843385958a049fb0bfa1fbb2eefb6b2fb8190072ce5c9f59b533",
    "sharded_service_storage": "8d9115bbb30fb4ca1114d71452f44c137333de4d6f774933be117152cfa1e254",
    "sharded_service_compaction": "037960eef3f3d3f30f7551316d2ec897d6aa7126ef0c7e53aec2c3eff94f06f3",
    "sharded_service_read_leases": "b3e6183dc313924523e7ea45604d32dbd3fbb114af84b8c81752bcb35f854c97",
}

#: Messages per committed command of the ``sharded_service`` quick shape — an
#: exact count.  It was 13.463 while every pending command was re-forwarded on
#: every drive tick and 12.826 while every log position ran its own Paxos
#: phase 1; a change that raises it again must say why and re-pin.
SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT = 9.69


@pytest.mark.parametrize(
    "workload, runner",
    [
        ("omega_broadcast", lambda: bench_perf.bench_omega_broadcast(quick=True)),
        ("sharded_service", lambda: bench_perf.bench_sharded_service(quick=True)),
        (
            "sharded_service_storage",
            lambda: bench_perf.bench_sharded_service_storage(quick=True),
        ),
        (
            "sharded_service_compaction",
            lambda: bench_perf.bench_sharded_service_compaction(quick=True),
        ),
        (
            "sharded_service_read_leases",
            lambda: bench_perf.bench_sharded_service_read_leases(quick=True),
        ),
    ],
)
def test_sequential_workload_matches_pinned_fingerprint(workload, runner):
    assert runner()["fingerprint"] == PINNED_QUICK_FINGERPRINTS[workload]


def test_sharded_service_stays_under_its_messages_per_commit_ceiling():
    result = bench_perf.bench_sharded_service(quick=True)
    assert result["messages_per_commit"] <= SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT


def test_read_lease_workload_clears_the_speedup_floor():
    """The read path's perf contract: the quick shape already clears the floor
    ``main`` enforces, so a latency regression on lease reads fails here
    before it fails in CI's perf-smoke."""
    result = bench_perf.bench_sharded_service_read_leases(quick=True)
    assert result["consistent"]
    assert result["read_speedup"] >= bench_perf.LEASE_READ_SPEEDUP_FLOOR
    assert result["lease_reads_served"] > result["baseline_committed_commands"]


def test_parallel_workload_quick_shape_is_reproducible():
    """The parallel workload's quick shape: stable fingerprint, honest stats."""
    first = bench_perf.bench_sharded_service_parallel(quick=True)
    second = bench_perf.bench_sharded_service_parallel(quick=True)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["shards"] == len(first["shard_stats"])
    assert first["events"] == sum(s["events"] for s in first["shard_stats"])
