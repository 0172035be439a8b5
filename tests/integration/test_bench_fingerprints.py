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

from repro.service import build_sharded_service

_BENCH_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_perf.py"
_spec = importlib.util.spec_from_file_location("bench_perf", _BENCH_PATH)
bench_perf = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_perf", bench_perf)
_spec.loader.exec_module(bench_perf)

#: Quick-shape fingerprints of the sequential workloads (see module docstring
#: for when these may be re-pinned).
#: The four ``sharded_service*`` digests were last re-pinned when catch-up
#: began to ride the heartbeat: replicas stopped sending a ``CATCHUP_REQ``
#: every drive tick, and ``StarDelayModel`` draws consensus delays from the
#: ``control`` stream it shares with SUSPICION, so every later draw moved.
#: ``omega_broadcast`` runs no log and did not move.
PINNED_QUICK_FINGERPRINTS = {
    "omega_broadcast": "5b36c19e15a2d846c7993c1ab1ae0ea3c4168de467ca0aeb79e9c3d3da0685cb",
    "sharded_service": "98215c4f7a9140969cdd12a9c906b6f37929a6e3ae8e22a73fa048af1474622d",
    "sharded_service_storage": "2992082a5910e5615b429ef513848385862ad1526417c1d60360565fa745e77d",
    "sharded_service_compaction": "d4a55a5c9ba062099363fda1d9ab06f5ba9cce33140513075f01ae252f2338ca",
    "sharded_service_read_leases": "aae8348f9daee2d614a6ccdb3f2680a1612cd63d652eff1eb0c86a972847cf6a",
}

#: Messages per committed command of the ``sharded_service`` quick shape — an
#: exact count.  It was 13.463 while every pending command was re-forwarded on
#: every drive tick, 12.826 while every log position ran its own Paxos phase 1,
#: 9.69 while every receiving round broadcast a SUSPICION, empty or not
#: (``OmegaConfig.quiet_rounds``), and 6.365 while every follower polled its
#: leader for missed decisions on every drive tick instead of only when a
#: heartbeat advertised a higher frontier; a change that raises it again must
#: say why and re-pin.
SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT = 5.808

#: Scheduler events per committed command of the same run — exact, like the
#: messages ceiling.  It was 14.036 while every closed-loop client re-armed a
#: poll every ``poll_interval`` and asked the correct replicas "applied yet?"
#: (about half of all events); since a replica *wakes* the client, which then
#: observes once at its next poll tick, 11.933; since followers stopped
#: polling their leader for missed decisions every drive tick (catch-up on
#: heartbeat evidence), it is 11.348.  A change that raises it again — per-tick
#: polling coming back, say — must say why and re-pin.
SHARDED_SERVICE_QUICK_EVENTS_PER_COMMIT = 11.348

#: Exact sends by tag of one default-star shard that no client ever talks to,
#: run for 200 vt at seed 0 — ``(n, t) -> tag -> count``; every other tag is 0.
#: What the failure detector and the drive tick cost when nothing is failing
#: and nothing is asked: per process per ALIVE period ``n - 1`` ALIVE and a
#: SUSPICION broadcast only for a round in which someone was late.  The log's
#: catch-up rides the ALIVE as a frontier header, so a current replica sends
#: nothing; it used to send one CATCHUP_REQ per follower per drive tick (200
#: and 600 here), with ALIVE and SUSPICION exactly as now.
IDLE_SHARD_SENDS_BY_TAG = {
    (3, 1): {"ALIVE": 1206, "SUSPICION": 279},
    (7, 3): {"ALIVE": 8442, "SUSPICION": 2121},
}


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


def test_sharded_service_stays_under_its_events_per_commit_ceiling():
    result = bench_perf.bench_sharded_service(quick=True)
    assert result["events_per_commit"] <= SHARDED_SERVICE_QUICK_EVENTS_PER_COMMIT


@pytest.mark.parametrize("n, t", sorted(IDLE_SHARD_SENDS_BY_TAG))
def test_idle_shard_stays_within_its_message_budget(n, t):
    """The background, not only the commit path: a change to what an idle
    shard sends fails here, not in the next ledger run."""
    service = build_sharded_service(num_shards=1, n=n, t=t, seed=0)
    service.run_until(200.0)
    sent = dict(service.systems[0].network.stats.sent_by_tag)
    assert sent == IDLE_SHARD_SENDS_BY_TAG[(n, t)]
    # Before quiet rounds SUSPICION *exceeded* ALIVE (1.34x at n=3, 1.03x at
    # n=7 on this run); the first election's share is included here.
    assert sent["SUSPICION"] < sent["ALIVE"] / 2


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
