"""Pinned executions: the seeded runs every refactor must leave byte-identical.

``tests/integration/test_determinism.py`` catches *within-run* nondeterminism
by running the same seed twice in one process; this module catches the other
failure mode — a refactor that deterministically changes what a seeded
execution computes.  Five runs are pinned by fingerprint: Figure 3 alone
(``omega_broadcast``) and four sharded-service shapes, each a
:class:`~repro.service.sharding.ServiceSpec` run through ``build_service`` and
``start_workload``.  Any change that alters an execution (event order, RNG draw
order, delay arithmetic, digest content) flips one of the digests and fails
loudly.  Beside the digests sit the exact per-commit costs of the
``sharded_service`` run, the idle-shard message budget, the lease read path's
speedup floor and the compaction soak's verdicts.

When a PR *intentionally* changes executions (new protocol feature, changed
default, a protocol-level optimisation that sends different messages), re-pin
the constants here and say why — never in a substrate-only perf PR, whose whole
contract is that these digests stay byte-identical.  ``omega_broadcast`` is the
paper-exactness witness: it runs Figure 3 alone and moves only if the paper's
algorithm does.  Performance itself is measured by ``perfbench/``.
"""

import dataclasses

import pytest

from repro.core.figure3 import Figure3Omega
from repro.service import ServiceSpec, build_service, build_sharded_service, start_workload
from repro.simulation.delays import UniformDelay
from repro.simulation.faults import FaultPlan
from repro.simulation.system import System, SystemConfig
from repro.util.rng import RandomSource, fingerprint

#: Fingerprints of the five pinned runs (see module docstring for when these
#: may be re-pinned).
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

#: Minimum committed-ops ratio (leases on / leases off) of the read-lease run:
#: the read path's order-of-magnitude contract.
LEASE_READ_SPEEDUP_FLOOR = 5.0

#: An E10-style sharded KV service with closed-loop zipfian clients.
SHARDED_SERVICE = ServiceSpec(
    n=3,
    t=1,
    num_shards=2,
    num_clients=12,
    num_keys=64,
    zipf_theta=0.99,
    seed=1102,
    horizon=120.0,
)
#: The same on durable replicas with a write cost; clients stop 40 vt early so
#: the final digests are converged, not sampled mid-broadcast.
SHARDED_SERVICE_STORAGE = dataclasses.replace(
    SHARDED_SERVICE, storage_write_cost=0.2, stop_at=80.0
)
#: A long-horizon compacting run with a late restart, recovered by snapshot.
SHARDED_SERVICE_COMPACTION = dataclasses.replace(
    SHARDED_SERVICE,
    horizon=1500.0,
    compaction_interval=64,
    compaction_retain=16,
    stop_at=1300.0,
)
#: 95% reads with adaptive batching and a fine poll: lease reads are
#: poll-bound, consensus reads consensus-bound, and a coarse poll would hide
#: the gap.  Run with ``leases`` off, then on.
SHARDED_SERVICE_READ_LEASES = dataclasses.replace(
    SHARDED_SERVICE,
    seed=1302,
    read_fraction=0.95,
    batch_size="adaptive",
    poll_interval=0.25,
)


def _restart_first_follower(start, downtime):
    """Per shard, one rolling restart of a replica the default star spares."""

    def plan(shard):
        follower = (shard % 3 + 1) % 3
        return FaultPlan.rolling_restarts([follower], start=start, downtime=downtime)

    return plan


def _committed(clients):
    return sum(client.stats.completed for client in clients)


def _digests(service, correct_only=True):
    return {
        shard: service.state_digests(shard, correct_only=correct_only)
        for shard in range(service.num_shards)
    }


@pytest.fixture(scope="module")
def omega_broadcast():
    """Figure 3 alone, n=12, uniform delays: the n² ALIVE/SUSPICION fan-out."""
    n, t, seed = 12, 3, 42
    system = System(
        SystemConfig(n=n, t=t, seed=seed),
        lambda pid: Figure3Omega(pid=pid, n=n, t=t),
        UniformDelay(0.5, 2.0, RandomSource(seed, label="perf-delay")),
    )
    system.run_until(150.0)
    return {
        "fingerprint": fingerprint(
            {
                "leader_histories": {
                    shell.pid: shell.algorithm.leader_history for shell in system.shells
                },
                "sent_by_tag": dict(system.stats.sent_by_tag),
                "total_delivered": system.stats.total_delivered,
            }
        )
    }


@pytest.fixture(scope="module")
def sharded_service():
    spec = SHARDED_SERVICE
    service = build_service(spec)
    clients = start_workload(service, spec)
    service.run_until(spec.horizon)
    committed = _committed(clients)
    messages = sum(system.stats.total_sent for system in service.systems)
    return {
        "events_per_commit": round(service.scheduler.executed / committed, 3),
        "messages_per_commit": round(messages / committed, 3),
        "fingerprint": fingerprint(
            {
                "digests": _digests(service),
                "applied": [
                    service.applied_commands(shard)
                    for shard in range(service.num_shards)
                ],
                "committed": committed,
                "consistent": service.is_consistent(),
            }
        ),
    }


@pytest.fixture(scope="module")
def sharded_service_storage():
    spec = SHARDED_SERVICE_STORAGE
    service = build_service(
        spec, fault_plan_factory=_restart_first_follower(start=40.0, downtime=12.0)
    )
    clients = start_workload(service, spec)
    service.run_until(spec.horizon)
    return {
        "fingerprint": fingerprint(
            {
                "digests": _digests(service, correct_only=False),
                "committed": _committed(clients),
                "recoveries": service.perf_counters()["recoveries"],
                "storage_writes": service.storage_writes(),
                "consistent": service.is_consistent(),
            }
        )
    }


@pytest.fixture(scope="module")
def sharded_service_compaction():
    spec = SHARDED_SERVICE_COMPACTION
    service = build_service(
        spec, fault_plan_factory=_restart_first_follower(start=900.0, downtime=75.0)
    )
    clients = start_workload(service, spec)
    service.run_until(spec.horizon / 2)
    committed_mid_run = _committed(clients)
    service.run_until(spec.horizon)
    committed = _committed(clients)
    totals = service.counters()
    peak = totals["peak_decided_residency"]
    consistent = service.is_consistent()
    counters = {
        name: totals[name]
        for name in (
            "snapshots_taken",
            "snapshot_restores",
            "positions_compacted",
            "snapshots_rejected",
        )
    }
    return {
        "committed": committed,
        "committed_mid_run": committed_mid_run,
        "peak_decided_residency": peak,
        "consistent": consistent,
        "fingerprint": fingerprint(
            {
                "digests": _digests(service, correct_only=False),
                "committed": committed,
                "counters": counters,
                "peak_decided_residency": peak,
                "consistent": consistent,
            }
        ),
    }


@pytest.fixture(scope="module")
def sharded_service_read_leases():
    runs = {}
    for leases in (False, True):
        spec = dataclasses.replace(SHARDED_SERVICE_READ_LEASES, leases=leases)
        service = build_service(spec)
        clients = start_workload(service, spec)
        service.run_until(spec.horizon)
        runs[leases] = (service, _committed(clients))
    (baseline, baseline_committed), (leased, committed) = runs[False], runs[True]
    perf = leased.perf_counters()
    lease_counters = {
        key: perf[key]
        for key in (
            "lease_renewals",
            "lease_reads_served",
            "lease_read_fallbacks",
            "read_index_polls",
        )
    }
    return {
        "committed": committed,
        "baseline_committed": baseline_committed,
        "lease_reads_served": lease_counters["lease_reads_served"],
        "consistent": leased.is_consistent() and baseline.is_consistent(),
        "fingerprint": fingerprint(
            {
                "digests": _digests(leased),
                "baseline_digests": _digests(baseline),
                "committed": committed,
                "baseline_committed": baseline_committed,
                "lease_counters": lease_counters,
                "consistent": leased.is_consistent(),
                "baseline_consistent": baseline.is_consistent(),
            }
        ),
    }


@pytest.mark.parametrize("workload", sorted(PINNED_QUICK_FINGERPRINTS))
def test_sequential_workload_matches_pinned_fingerprint(workload, request):
    run = request.getfixturevalue(workload)
    assert run["fingerprint"] == PINNED_QUICK_FINGERPRINTS[workload]


def test_sharded_service_stays_under_its_messages_per_commit_ceiling(sharded_service):
    assert sharded_service["messages_per_commit"] <= SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT


def test_sharded_service_stays_under_its_events_per_commit_ceiling(sharded_service):
    assert sharded_service["events_per_commit"] <= SHARDED_SERVICE_QUICK_EVENTS_PER_COMMIT


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


def test_read_lease_workload_clears_the_speedup_floor(sharded_service_read_leases):
    """The read path's perf contract: a latency regression on lease reads
    shows up as fewer committed operations in the same horizon."""
    run = sharded_service_read_leases
    assert run["consistent"]
    assert run["committed"] >= LEASE_READ_SPEEDUP_FLOOR * run["baseline_committed"]
    assert run["lease_reads_served"] > run["baseline_committed"]


def test_compaction_soak_stays_bounded_advancing_and_consistent(sharded_service_compaction):
    """Ten times the other horizons with a restart recovered by snapshot:
    memory stays O(interval + retain) while commits keep advancing."""
    run = sharded_service_compaction
    spec = SHARDED_SERVICE_COMPACTION
    # Out-of-order decides and in-flight instances sit above the frontier, so
    # allow one batch of slack past the policy window.
    slack = 64
    assert run["peak_decided_residency"] <= spec.compaction_interval + spec.compaction_retain + slack
    assert run["committed"] > run["committed_mid_run"] > 0
    assert run["consistent"]
