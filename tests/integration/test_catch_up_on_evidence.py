"""Catch-up on evidence, in stacked shards.

Every ALIVE a replica's oracle broadcasts carries the replica's decided
frontier (:class:`~repro.consensus.messages.FrontierAdvert`), and a replica
polls for missed decisions only when a peer's latest advertisement is above
its own frontier.  These runs check the paths the per-tick poll and the
poll-back used to cover: nobody polls while nothing is missed, a lost
``Decide`` is fetched at the first tick after a heartbeat proves it, a
storage-less restart of the trusted replica converges, and a replica
restarted below the compaction floor gets the snapshot and then the tail.
"""

from repro.analysis.service_metrics import agreement_violations
from repro.consensus.commands import Command
from repro.consensus.messages import Decide
from repro.service import build_sharded_service, start_clients, zipfian_workload
from repro.simulation import FaultPlan
from repro.storage import CompactionPolicy

#: ``StarTiming.control_high``: the longest a request or a reply travels.
CONTROL_HIGH = 0.40
DRIVE_PERIOD = 2.0


def _converged(service):
    """Shard 0's replicas share one frontier and one state, and no replica
    ever learnt a value another learnt differently."""
    return (
        len({replica.log.frontier for replica in service.replicas(0)}) == 1
        and agreement_violations(service) == []
        and len(set(service.state_digests(0, correct_only=False))) == 1
    )


def test_a_fault_free_run_sends_no_catch_up_request():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=5)
    start_clients(
        service,
        num_clients=8,
        workload_factory=lambda index: zipfian_workload(num_keys=16),
    )
    service.run_until(150.0)
    for shard, system in enumerate(service.systems):
        assert service.applied_commands(shard) > 50
        sent = system.network.stats.sent_by_tag
        assert sent.get("CATCHUP_REQ", 0) == 0
        assert sent.get("CATCHUP_REP", 0) == 0


def test_a_missed_decide_is_fetched_at_the_first_tick_after_an_advertisement():
    service = build_sharded_service(num_shards=1, n=3, t=1, seed=5)
    service.run_until(30.0)
    leader = service.replicas(0)[0].leader()
    follower = next(r for r in service.replicas(0) if r.pid != leader)
    log = follower.log
    missed, proofs = [], []
    on_message, heard_frontier = log.on_message, log.heard_frontier

    def lossy(env, sender, message):
        if isinstance(message, Decide) and not missed:
            missed.append(message.instance)
            return
        on_message(env, sender, message)

    def recording(now, sender, frontier):
        if missed and frontier > missed[0] and not proofs:
            proofs.append(now)
        heard_frontier(now, sender, frontier)

    log.on_message, log.heard_frontier = lossy, recording
    service.submit(Command.put("c", 1, "k", 1), gateway=leader)
    polls_before = log.counters["catchup_polls"]
    now = service.scheduler.now
    while log.frontier <= (missed[0] if missed else 0) and now < 80.0:
        now += 0.05
        service.run_until(now)
        if not proofs:
            assert log.counters["catchup_polls"] == polls_before
    assert missed and proofs
    assert log.frontier == missed[0] + 1
    assert now <= proofs[0] + DRIVE_PERIOD + 2 * CONTROL_HIGH + 0.05
    assert log.counters["catchup_polls"] == polls_before + 1
    assert _converged(service)


def test_a_storage_less_restart_of_the_trusted_replica_converges():
    """The case the deleted poll-back covered: the leader comes back empty
    and everyone, itself included, keeps trusting it, so no follower ever
    polls anybody and nothing is decided after it is back.  Only its peers'
    heartbeats can tell it what it lost."""
    service = build_sharded_service(
        num_shards=1,
        n=3,
        t=1,
        seed=7,
        fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
            [0], start=40.0, downtime=3.0
        ),
    )
    for seq in range(1, 31):
        service.submit(Command.put("c", seq, f"k{seq % 5}", seq), gateway=1)
    service.run_until(39.9)
    decided = service.replicas(0)[0].log.frontier
    assert decided > 0
    service.run_until(43.0)
    fresh = service.replicas(0)[0]
    assert fresh.log.frontier == 0
    for now in range(44, 61):
        service.run_until(float(now))
        assert {replica.leader() for replica in service.replicas(0)} == {0}
    assert fresh.log.frontier == decided
    assert fresh.log.counters["catchup_polls"] == 1
    assert _converged(service)


def test_a_replica_restarted_below_the_floor_gets_the_snapshot_then_the_tail():
    """18 positions decide before pid 1 goes down, 26 more while it is down
    and nothing after it is back: the survivors' latest snapshot covers 40,
    so the first poll is answered with the snapshot and the next with
    positions 40-43.  The second half is submitted only once pid 1 is down:
    submitted together, a backlog this deep is decided long before the crash."""
    service = build_sharded_service(
        num_shards=1,
        n=3,
        t=1,
        seed=13,
        batch_size=1,
        compaction=CompactionPolicy(interval=8, retain=4),
        fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
            [1], start=40.0, downtime=80.0
        ),
    )
    for seq in range(1, 19):
        service.submit(Command.put("c", seq, f"k{seq % 7}", seq), gateway=0)
    service.run_until(41.0)
    for seq in range(19, 45):
        service.submit(Command.put("c", seq, f"k{seq % 7}", seq), gateway=0)
    service.run_until(119.0)
    assert [r.log.frontier for r in service.replicas(0)] == [44, 18, 44]
    sent = service.systems[0].network.stats.sent_by_tag
    assert sent.get("CATCHUP_REQ", 0) == 0  # the survivors miss nothing
    service.run_until(200.0)
    assert service.counters()["snapshot_restores"] == 1
    fresh = service.replicas(0)[1]
    assert fresh.log.compaction_floor < fresh.log.frontier == 44
    sent = service.systems[0].network.stats.sent_by_tag
    assert (sent["SNAP_REP"], sent["CATCHUP_REP"]) == (1, 1)
    assert _converged(service)
