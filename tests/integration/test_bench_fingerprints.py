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
``sharded_service`` run, the idle-shard message budget, the mean latency of
clients that find their gateway idle, the lease read path's speedup floor
(at the pinned seed and in the median over twelve seeds),
the compaction soak's verdicts and, on every service run, a monitor that
holds each leader to one log position in flight.

When a PR *intentionally* changes executions (new protocol feature, changed
default, a protocol-level optimisation that sends different messages), re-pin
the constants here and say why — never in a substrate-only perf PR, whose whole
contract is that these digests stay byte-identical.  ``omega_broadcast`` is the
paper-exactness witness: it runs Figure 3 alone and moves only if the paper's
algorithm does.  Performance itself is measured by ``perfbench/``.
"""

import dataclasses
import statistics

import pytest

from repro.analysis.service_metrics import record_run
from repro.consensus.messages import AcceptRequest
from repro.core.figure3 import Figure3Omega
from repro.service import (
    ServiceSpec,
    build_service,
    build_sharded_service,
    start_clients,
    start_workload,
    zipfian_workload,
)
from repro.simulation.delays import UniformDelay
from repro.simulation.faults import FaultPlan
from repro.simulation.system import System, SystemConfig
from repro.util.rng import RandomSource, fingerprint

#: Fingerprints of the five pinned runs (see module docstring for when these
#: may be re-pinned).
#: ``sharded_service``, ``sharded_service_compaction`` and
#: ``sharded_service_read_leases`` were last re-pinned when a leader whose
#: quorum closes on one full batch of queued commands, not two, began
#: proposing it in that turn, so ``AcceptRequest`` messages leave earlier and
#: every later ``control`` draw moves.  The read-lease shape moved for a
#: second reason too: with ``batch_size="adaptive"`` only a ``_lead`` call
#: that can propose a fresh position feeds the batch limit its backlog
#: observation, not every tick and trigger.  ``sharded_service_storage``
#: never closes a quorum on a full batch and did not move.
#: Before that, ``sharded_service_read_leases`` was re-pinned alone, for two reasons.
#: A leader whose quorum closes on two full batches of queued commands now
#: proposes the next position in that turn, so in this shape, the only pinned
#: one that queues that deep, ``AcceptRequest`` messages leave earlier and
#: every later ``control`` draw moves.  And its clients now stop 1 vt before
#: the horizon: with the earlier proposals the leased run ended with a
#: ``Decide`` in flight, its replicas one position apart (agreement clean),
#: and compared at that instant it read inconsistent.  The other three
#: service shapes never queue two full batches and did not move.
#: Before that, the four ``sharded_service*`` digests were last re-pinned when a replica
#: with nothing undecided began dispatching a submission in the submitting
#: turn — a follower forwards it, an idle owning leader proposes it —
#: instead of holding it until its next drive tick.  ``Forward`` and
#: ``AcceptRequest`` messages leave earlier, and ``StarDelayModel`` draws
#: their delays from the ``control`` stream it shares with SUSPICION, so
#: every later draw moved.  In ``sharded_service_read_leases`` this covers
#: a lease read that times out and falls back to the ordered path too: it is
#: submitted from the drive tick's hook and, finding the replica idle, leaves
#: in that same turn as one command rather than in the tick's batch.  The
#: re-pin before was for an idle owning leader proposing a ``Forward`` the
#: moment it arrives, and the one before that for catch-up riding the
#: heartbeat.  ``omega_broadcast`` runs no log and did not move.
PINNED_QUICK_FINGERPRINTS = {
    "omega_broadcast": "5b36c19e15a2d846c7993c1ab1ae0ea3c4168de467ca0aeb79e9c3d3da0685cb",
    "sharded_service": "9913bb9df6444d95fdc0fe25b940882c030afa130dd1e074243281cecc92ff84",
    "sharded_service_storage": "ecec4764075de7649aa16e4709f3497e0e22e87bc1dc4c8f19c6cd32227e9523",
    "sharded_service_compaction": "1865aa54d70ae8e9d04bcc00870300782f9a22c3c7e53d5d3069b35f5138ac2e",
    "sharded_service_read_leases": "448710150c7060c31b7a1d37fc43b6b87bec7437a2c398c8a265d68233869c1c",
}

#: Messages per committed command of the ``sharded_service`` quick shape — an
#: exact count.  It was 13.463 while every pending command was re-forwarded on
#: every drive tick, 12.826 while every log position ran its own Paxos phase 1,
#: 9.69 while every receiving round broadcast a SUSPICION, empty or not
#: (``OmegaConfig.quiet_rounds``), 6.365 while every follower polled its
#: leader for missed decisions on every drive tick instead of only when a
#: heartbeat advertised a higher frontier, 5.808 while an idle leader
#: held every forwarded batch until its next drive tick, and 5.552 while a
#: replica with nothing undecided held a client submission until its next
#: drive tick.  Both later falls are the unchanged ALIVE/SUSPICION background
#: shared by more commits (14%, then 21%); the consensus messages per commit
#: rose (1.95 → 2.16 → 2.53), because this shape's batches got smaller.  It
#: rose from 5.338 when a quorum that closes on one full batch began
#: proposing it in that turn: the tick then proposes the partial batch left
#: behind, so this seed's batches got smaller again, while the mean over
#: seeds 1100–1111 fell from 5.197 to 5.104 (events: 8.703 to 8.510) as
#: commits rose.  A change that raises it again must say why and re-pin.
SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT = 5.378

#: Scheduler events per committed command of the same run — exact, like the
#: messages ceiling.  It was 14.036 while every closed-loop client re-armed a
#: poll every ``poll_interval`` and asked the correct replicas "applied yet?"
#: (about half of all events); since a replica *wakes* the client, which then
#: observes once at its next poll tick, 11.933; since followers stopped
#: polling their leader for missed decisions every drive tick (catch-up on
#: heartbeat evidence), 11.348; since an idle leader proposes a forwarded
#: batch on arrival instead of at its next drive tick, 10.669; since a replica
#: with nothing undecided forwards or proposes a submission in the submitting
#: turn, 9.912; since a client that does not think issues its next command in
#: the event that observed the last one complete, instead of scheduling that
#: issue as an event of its own, 8.912; since a quorum that closes on one full
#: batch proposes it in that turn, it is 8.944, for the reason the messages
#: ceiling rose.  A change that raises it again — per-tick polling coming
#: back, say — must say why and re-pin.
SHARDED_SERVICE_QUICK_EVENTS_PER_COMMIT = 8.944

#: Scheduler events per committed command of the read-lease shape below, run
#: with leases off and on — exact, like the ceiling above.  They were 8.204
#: and 2.885 while a client that does not think scheduled its next issue as
#: an event of its own; a completed operation now costs one event fewer.
#: The leases-on value was 1.885 while the adaptive batch limit was fed a
#: backlog observation on every ``_lead`` call, not only on those that can
#: propose a fresh position; fed that way, the run reads 1.887.
SHARDED_SERVICE_READ_LEASES_EVENTS_PER_COMMIT = {False: 7.204, True: 1.887}

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

#: Seeds of the read-lease shape whose median ratio must clear the floor too,
#: so the contract does not rest on one seed.  Measured: 4.994 to 5.917,
#: median 5.318.
LEASE_READ_SPEEDUP_SEEDS = range(1300, 1312)

#: Mean client-observed latency (vt) of the idle-clients run below — exact,
#: like the per-commit ceilings.  It was 1.600 while a replica with nothing
#: undecided still held a client submission until its next drive tick; since
#: such a submission is forwarded or proposed in the submitting turn, it is
#: 1.101.  A change that raises it again must say why and re-pin.
IDLE_CLIENTS_MEAN_LATENCY = 1.101

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
#: the gap.  Run with ``leases`` off, then on.  Clients stop 1 vt before the
#: horizon, so both runs are compared drained rather than with a ``Decide``
#: in flight; a longer drain would add commit-free background events to the
#: per-commit ceilings below.
SHARDED_SERVICE_READ_LEASES = dataclasses.replace(
    SHARDED_SERVICE,
    seed=1302,
    read_fraction=0.95,
    batch_size="adaptive",
    poll_interval=0.25,
    stop_at=119.0,
)


def _restart_first_follower(start, downtime):
    """Per shard, one rolling restart of a replica the default star spares."""

    def plan(shard):
        follower = (shard % 3 + 1) % 3
        return FaultPlan.rolling_restarts([follower], start=start, downtime=downtime)

    return plan


class _OnePositionInFlight:
    """Watches every ``AcceptRequest`` broadcast of a service's shards: under
    one ballot, a log proposes a new position only once it has learnt the
    previous one (W=1).  A re-send of the same position is allowed.

    It wraps each shard's ``Network.broadcast`` and reads the sending log's
    state at the send, so it observes without changing the run.
    """

    def __init__(self, service):
        self.proposals = 0
        self.violations = []
        # Per log incarnation: the (ballot, position) it last proposed.
        self._last = {}
        for system in service.systems:
            system.network.broadcast = self._watch(system, system.network.broadcast)

    def _watch(self, system, broadcast):
        def watched(sender, dests, message, **keywords):
            if isinstance(message, AcceptRequest):
                self._check(system.shells[sender].algorithm.log, message)
            return broadcast(sender, dests, message, **keywords)

        return watched

    def _check(self, log, request):
        proposal = (request.ballot, request.instance)
        previous = self._last.get(log)
        if previous == proposal:
            return
        if previous is not None and previous[0] == request.ballot:
            position = previous[1]
            if position >= log.compaction_floor and position not in log.decisions:
                self.violations.append((log.pid, request.ballot, position, request.instance))
        self._last[log] = proposal
        self.proposals += 1


def _recorded_run(spec, fault_plan_factory=None, checkpoints=()):
    """Run *spec* to its horizon under the W=1 monitor; the record at each
    checkpoint, then at the end, and the monitor."""
    service = build_service(spec, fault_plan_factory=fault_plan_factory)
    monitor = _OnePositionInFlight(service)
    clients = start_workload(service, spec, record_history=True)
    records = []
    for time in (*checkpoints, spec.horizon):
        service.run_until(time)
        records.append(record_run(service, clients))
    return records, monitor


def _digests(record, correct_only=True):
    return {
        shard: record.state_digests(shard, correct_only=correct_only)
        for shard in range(len(record.digests))
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
    (record,), monitor = _recorded_run(SHARDED_SERVICE)
    return {
        "records": (record,),
        "monitors": (monitor,),
        "events_per_commit": round(record.events / record.completed, 3),
        "messages_per_commit": round(record.messages / record.completed, 3),
        "fingerprint": fingerprint(
            {
                "digests": _digests(record),
                "applied": list(record.applied),
                "committed": record.completed,
                "consistent": record.consistent,
            }
        ),
    }


@pytest.fixture(scope="module")
def sharded_service_storage():
    (record,), monitor = _recorded_run(
        SHARDED_SERVICE_STORAGE,
        fault_plan_factory=_restart_first_follower(start=40.0, downtime=12.0),
    )
    return {
        "records": (record,),
        "monitors": (monitor,),
        "fingerprint": fingerprint(
            {
                "digests": _digests(record, correct_only=False),
                "committed": record.completed,
                "recoveries": record.recoveries,
                "storage_writes": record.storage_writes,
                "consistent": record.consistent,
            }
        ),
    }


@pytest.fixture(scope="module")
def sharded_service_compaction():
    spec = SHARDED_SERVICE_COMPACTION
    (mid_run, record), monitor = _recorded_run(
        spec,
        fault_plan_factory=_restart_first_follower(start=900.0, downtime=75.0),
        checkpoints=(spec.horizon / 2,),
    )
    committed = record.completed
    peak = record.counters["peak_decided_residency"]
    consistent = record.consistent
    counters = {
        name: record.counters.get(name, 0)
        for name in (
            "snapshots_taken",
            "snapshot_restores",
            "positions_compacted",
            "snapshots_rejected",
        )
    }
    return {
        "records": (record,),
        "monitors": (monitor,),
        "committed": committed,
        "committed_mid_run": mid_run.completed,
        "peak_decided_residency": peak,
        "consistent": consistent,
        "fingerprint": fingerprint(
            {
                "digests": _digests(record, correct_only=False),
                "committed": committed,
                "counters": counters,
                "peak_decided_residency": peak,
                "consistent": consistent,
            }
        ),
    }


@pytest.fixture(scope="module")
def sharded_service_read_leases():
    ((baseline,), baseline_monitor), ((leased,), leased_monitor) = (
        _recorded_run(dataclasses.replace(SHARDED_SERVICE_READ_LEASES, leases=leases))
        for leases in (False, True)
    )
    committed, baseline_committed = leased.completed, baseline.completed
    lease_counters = {
        key: leased.counters.get(key, 0)
        for key in (
            "lease_renewals",
            "lease_reads_served",
            "lease_read_fallbacks",
            "read_index_polls",
        )
    }
    return {
        "records": (baseline, leased),
        "monitors": (baseline_monitor, leased_monitor),
        "events_per_commit": {
            leases: round(record.events / record.completed, 3)
            for leases, record in ((False, baseline), (True, leased))
        },
        "committed": committed,
        "baseline_committed": baseline_committed,
        "lease_reads_served": lease_counters["lease_reads_served"],
        "consistent": leased.consistent and baseline.consistent,
        "fingerprint": fingerprint(
            {
                "digests": _digests(leased),
                "baseline_digests": _digests(baseline),
                "committed": committed,
                "baseline_committed": baseline_committed,
                "lease_counters": lease_counters,
                "consistent": leased.consistent,
                "baseline_consistent": baseline.consistent,
            }
        ),
    }


@pytest.mark.parametrize("workload", sorted(PINNED_QUICK_FINGERPRINTS))
def test_sequential_workload_matches_pinned_fingerprint(workload, request):
    run = request.getfixturevalue(workload)
    assert run["fingerprint"] == PINNED_QUICK_FINGERPRINTS[workload]


@pytest.mark.parametrize(
    "workload", sorted(set(PINNED_QUICK_FINGERPRINTS) - {"omega_broadcast"})
)
def test_pinned_service_runs_break_no_invariant(workload, request):
    """Every probe of the run record is clean on the five pinned service runs
    (the read-lease shape runs twice), client probes included."""
    for record in request.getfixturevalue(workload)["records"]:
        assert record.violations == ()


@pytest.mark.parametrize(
    "workload", sorted(set(PINNED_QUICK_FINGERPRINTS) - {"omega_broadcast"})
)
def test_pinned_service_runs_keep_one_position_in_flight(workload, request):
    """W=1 on the pinned service runs: no log proposes a new position under
    one ballot before it has learnt the previous one, whichever trigger (drive
    tick, promise quorum, ``Forward`` arrival, idle submit, or a quorum closing
    with a full batch queued) ran ``_lead``.  A window
    of W > 1 positions must change this test on purpose."""
    for monitor in request.getfixturevalue(workload)["monitors"]:
        assert monitor.proposals > 0
        assert monitor.violations == []


def test_sharded_service_stays_under_its_messages_per_commit_ceiling(sharded_service):
    assert sharded_service["messages_per_commit"] <= SHARDED_SERVICE_QUICK_MESSAGES_PER_COMMIT


def test_sharded_service_stays_under_its_events_per_commit_ceiling(sharded_service):
    assert sharded_service["events_per_commit"] <= SHARDED_SERVICE_QUICK_EVENTS_PER_COMMIT


@pytest.mark.parametrize("leases", [False, True], ids=["leases_off", "leases_on"])
def test_read_lease_shape_stays_under_its_events_per_commit_ceiling(
    sharded_service_read_leases, leases
):
    assert (
        sharded_service_read_leases["events_per_commit"][leases]
        <= SHARDED_SERVICE_READ_LEASES_EVENTS_PER_COMMIT[leases]
    )


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


def test_idle_clients_stay_under_their_mean_latency_ceiling():
    """Latency, not only cost: two shards of n=7 whose six clients think
    5 vt between operations, so a submission mostly finds its gateway idle
    and its latency is the bare commit path."""
    service = build_sharded_service(num_shards=2, n=7, t=3, seed=7)
    clients = start_clients(
        service,
        num_clients=6,
        workload_factory=lambda index: zipfian_workload(num_keys=16),
        poll_interval=0.5,
        think_time=5.0,
        stop_at=290.0,
        record_history=True,
    )
    service.run_until(300.0)
    record = record_run(service, clients)
    assert record.ok
    assert round(record.latency["mean"], 3) <= IDLE_CLIENTS_MEAN_LATENCY


def test_read_lease_workload_clears_the_speedup_floor(sharded_service_read_leases):
    """The read path's perf contract: a latency regression on lease reads
    shows up as fewer committed operations in the same horizon."""
    run = sharded_service_read_leases
    assert run["consistent"]
    assert run["committed"] >= LEASE_READ_SPEEDUP_FLOOR * run["baseline_committed"]
    assert run["lease_reads_served"] > run["baseline_committed"]


def _committed(spec):
    service = build_service(spec)
    clients = start_workload(service, spec)
    service.run_until(spec.horizon)
    return sum(client.stats.completed for client in clients)


def test_read_lease_speedup_clears_the_floor_in_the_median_over_seeds():
    """The speedup floor beside its pinned seed: one seed's ratio may dip
    below it, the median over :data:`LEASE_READ_SPEEDUP_SEEDS` may not."""
    ratios = [
        _committed(dataclasses.replace(SHARDED_SERVICE_READ_LEASES, seed=seed, leases=True))
        / _committed(dataclasses.replace(SHARDED_SERVICE_READ_LEASES, seed=seed, leases=False))
        for seed in LEASE_READ_SPEEDUP_SEEDS
    ]
    assert statistics.median(ratios) >= LEASE_READ_SPEEDUP_FLOOR


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
