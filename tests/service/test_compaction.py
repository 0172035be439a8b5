"""Service-level snapshot/compaction: bounded residency, snapshot catch-up,
torn-snapshot recovery, exactly-once below the floor, and determinism."""

import dataclasses

from repro.analysis.service_metrics import agreement_violations
from repro.consensus.commands import Command
from repro.service.sharding import build_sharded_service
from repro.simulation.faults import CorruptLink, FaultPlan
from repro.storage import CompactionPolicy

# Single shard of 3 replicas; the default scenario protects the star centre
# (pid 0), so restarting pid 1 keeps the liveness assumption intact.
RESTARTED = 1
CRASH_AT, RECOVER_AT = 40.0, 100.0
HORIZON = 400.0

POLICY = CompactionPolicy(interval=8, retain=4)


def restart_plan(shard: int) -> FaultPlan:
    return FaultPlan.rolling_restarts(
        [RESTARTED], start=CRASH_AT, downtime=RECOVER_AT - CRASH_AT
    )


def build(
    stable_storage=False,
    compaction=POLICY,
    fault_plan_factory=None,
    batch_size=1,
    seed=13,
):
    return build_sharded_service(
        num_shards=1,
        n=3,
        t=1,
        seed=seed,
        batch_size=batch_size,
        fault_plan_factory=fault_plan_factory,
        stable_storage=stable_storage,
        compaction=compaction,
    )


def submit_puts(service, seqs, client="cli", gateway=0):
    for seq in seqs:
        service.submit(Command.put(client, seq, f"k{seq % 7}", seq), gateway=gateway)


class TestBoundedResidency:
    def test_long_run_keeps_the_decided_log_windowed(self):
        """80 positions decide over a long horizon, yet no replica ever holds
        more than O(interval + retain) of them resident — the tentpole's
        bounded-memory claim, with full history only in the counters."""
        service = build()
        submit_puts(service, range(1, 81))
        service.run_until(HORIZON)

        assert service.counters()["snapshots_taken"] > 0
        assert service.counters()["positions_compacted"] > 0
        # The high-water mark is O(window), far below the 80+ decided history.
        assert service.counters()["peak_decided_residency"] <= POLICY.interval + POLICY.retain + 16
        for replica in service.replicas(0):
            log = replica.log
            assert log.compaction_floor > 0
            assert len(log.decisions) <= POLICY.interval + POLICY.retain + 16
            # The truncated prefix survives in the observer counters.
            assert log.delivered_total == 80
        assert service.is_consistent()

    def test_peak_residency_survives_a_restart(self):
        """The reported peak is a property of the process, not the live
        incarnation: an incarnation that peaked high and died still counts."""
        service = build(fault_plan_factory=restart_plan)
        submit_puts(service, range(1, 21))
        service.run_until(CRASH_AT - 1.0)
        doomed = service.replicas(0)[RESTARTED]
        peak = 10 * (POLICY.interval + POLICY.retain)  # no later incarnation gets near
        doomed.counters["peak_decided_residency"] = peak
        service.run_until(HORIZON)
        assert service.replicas(0)[RESTARTED] is not doomed
        assert service.counters()["peak_decided_residency"] == peak
        assert service.perf_counters()["peak_decided_residency"] == peak

    def test_compacting_replicas_converge(self):
        """Most of the prefix is no longer resident, yet every replica reached
        one frontier and one state, and the agreement monitor saw no position
        learnt two ways."""
        service = build()
        submit_puts(service, range(1, 41))
        service.run_until(HORIZON)
        replicas = service.replicas(0)
        assert len({replica.log.frontier for replica in replicas}) == 1
        assert min(replica.log.compaction_floor for replica in replicas) > 0
        assert agreement_violations(service) == []
        assert len(set(service.state_digests(0, correct_only=False))) == 1

    def test_applied_command_accounting_survives_compaction(self):
        """decided_instances() reads the log's decided_value_count counter, so
        batching metrics keep working after the positions themselves were
        truncated."""
        service = build(batch_size=4)
        submit_puts(service, range(1, 41))
        service.run_until(HORIZON)
        assert service.applied_commands(0) == 40
        assert 0 < service.decided_instances(0) <= 40


class TestSnapshotCatchUp:
    def test_laggard_below_the_floor_recovers_via_snapshot_transfer(self):
        """A storage-less restart resets the replica's frontier to 0; by
        recovery time the peers have truncated that prefix, so plain catch-up
        cannot serve it — only a snapshot transfer can (and does)."""
        service = build(fault_plan_factory=restart_plan)
        submit_puts(service, range(1, 21))
        service.run_until(CRASH_AT + 1.0)
        # Decide enough while the replica is down that the survivors' floor
        # moves past position 0 (the laggard's post-restart frontier).
        submit_puts(service, range(21, 61))
        service.run_until(RECOVER_AT - 1.0)
        floor = service.replicas(0)[0].log.compaction_floor
        assert floor > 0  # the prefix the laggard needs is really gone
        service.run_until(HORIZON)

        assert service.counters()["snapshot_restores"] >= 1
        fresh = service.replicas(0)[RESTARTED]
        assert fresh.log.compaction_floor > 0  # adopted the snapshot floor
        digests = service.state_digests(0, correct_only=False)
        assert len(set(digests)) == 1
        assert service.is_consistent()

    def test_exactly_once_for_a_command_decided_below_the_floor(self):
        """The snapshot carries the session table, so a retransmission of a
        command whose position was compacted away is still absorbed — even by
        the replica that learnt the prefix only through a snapshot."""
        service = build(fault_plan_factory=restart_plan)
        service.submit(Command.incr("cli", 1, "ctr"), gateway=0)
        submit_puts(service, range(1, 21), client="filler")
        service.run_until(CRASH_AT + 1.0)
        submit_puts(service, range(21, 61), client="filler")
        service.run_until(HORIZON - 50.0)
        assert service.counters()["snapshot_restores"] >= 1
        # The increment's position is long truncated everywhere.
        for replica in service.replicas(0):
            assert replica.log.compaction_floor > 1
        # Retry through the snapshot-restored replica itself.
        service.submit(Command.incr("cli", 1, "ctr"), gateway=RESTARTED)
        service.run_until(HORIZON)
        for replica in service.replicas(0):
            assert replica.state_machine.get("ctr") == 1
        assert service.is_consistent()

    def test_tampered_snapshot_chunks_are_rejected_then_retried(self):
        """The adversary garbles every message into the recovering replica for
        a while: assembled snapshots fail their CRC and are rejected; once the
        corruption window closes, a clean transfer installs and the replica
        converges — a snapshot cannot be forged."""

        def plan(shard: int) -> FaultPlan:
            composed = FaultPlan(
                [
                    CorruptLink(
                        time=RECOVER_AT, sender=0, dest=RESTARTED, until=RECOVER_AT + 60.0
                    ),
                    CorruptLink(
                        time=RECOVER_AT, sender=2, dest=RESTARTED, until=RECOVER_AT + 60.0
                    ),
                ]
            )
            composed.extend(restart_plan(shard).events)
            return composed

        service = build(fault_plan_factory=plan)
        submit_puts(service, range(1, 21))
        service.run_until(CRASH_AT + 1.0)
        submit_puts(service, range(21, 61))
        service.run_until(HORIZON)

        assert service.counters()["snapshots_rejected"] >= 1
        assert service.counters()["snapshot_restores"] >= 1
        digests = service.state_digests(0, correct_only=False)
        assert len(set(digests)) == 1


class TestDurableSnapshots:
    def test_rehydration_restores_snapshot_state_before_any_catchup(self):
        """With storage on, the recovered incarnation already holds the
        snapshotted state right after the Recover event — before its first
        drive tick could fetch anything from peers."""
        service = build(
            stable_storage=True,
            compaction=CompactionPolicy(interval=2, retain=1),
            fault_plan_factory=restart_plan,
        )
        service.submit(Command.incr("cli", 1, "ctr"), gateway=0)
        submit_puts(service, range(1, 13), client="filler")
        service.run_until(CRASH_AT - 1.0)
        doomed = service.replicas(0)[RESTARTED]
        assert doomed.log.compaction_floor > 0  # it really compacted pre-crash
        service.run_until(RECOVER_AT + 0.05)
        fresh = service.replicas(0)[RESTARTED]
        assert fresh is not doomed
        assert fresh.command_applied("cli", 1)
        assert fresh.log.compaction_floor > 0
        service.run_until(HORIZON)
        assert service.counters()["snapshot_restores"] >= 1
        assert service.is_consistent()
        assert service.storage_deletes() > 0  # compaction pruned the store too

    def test_torn_snapshot_write_falls_back_to_the_previous_slot(self):
        """A crash mid-snapshot-write leaves a checksum-failing newest slot;
        rehydration must detect it, count it and recover from the previous
        snapshot instead of installing garbage."""
        from repro.storage.snapshot import Snapshot

        service = build(
            stable_storage=True,
            compaction=CompactionPolicy(interval=2, retain=1),
            fault_plan_factory=restart_plan,
        )
        service.submit(Command.incr("cli", 1, "ctr"), gateway=0)
        submit_puts(service, range(1, 13), client="filler")
        service.run_until(CRASH_AT + 1.0)
        store = service.storages[0].store_for(RESTARTED)
        slots = store.items_with_prefix("snapshot")
        assert len(slots) == 2  # current + fallback, per RETAINED_SNAPSHOTS
        newest_key, newest = slots[-1]
        assert isinstance(newest, Snapshot) and newest.verify()
        # Tear the newest slot the way a mid-write crash would: garbled
        # contents under the stale checksum.
        store.put(
            newest_key,
            dataclasses.replace(newest, payload=(), checksum=newest.checksum),
        )
        service.run_until(RECOVER_AT + 0.05)
        fresh = service.replicas(0)[RESTARTED]
        assert fresh.command_applied("cli", 1)  # the fallback slot served
        service.run_until(HORIZON)
        assert service.counters()["snapshots_rejected"] >= 1
        digests = service.state_digests(0, correct_only=False)
        assert len(set(digests)) == 1
        assert service.is_consistent()


class TestCompactionComposition:
    def test_amnesia_hazards_are_unchanged_by_compaction(self):
        """Snapshots restore applied state, never promise memory: the static
        quorum-amnesia check must flag a storage-less restart plan exactly as
        it does without compaction, and stay clean with storage on."""
        hazardous = build(fault_plan_factory=restart_plan, stable_storage=False)
        safe = build(fault_plan_factory=restart_plan, stable_storage=True)
        plain = build_sharded_service(
            num_shards=1,
            n=3,
            t=1,
            seed=13,
            batch_size=1,
            fault_plan_factory=restart_plan,
        )
        assert hazardous.amnesia_hazards[0] == plain.amnesia_hazards[0]
        assert hazardous.amnesia_hazards[0]  # the hazard is really flagged
        assert safe.amnesia_hazards[0] == []

    def test_compacting_runs_are_deterministic(self):
        def fingerprint():
            service = build(fault_plan_factory=restart_plan)
            submit_puts(service, range(1, 41))
            service.run_until(HORIZON)
            return (
                service.scheduler.executed,
                sorted(service.counters().items()),
                service.state_digests(0, correct_only=False),
                [replica.log.frontier for replica in service.replicas(0)],
                agreement_violations(service),
            )

        assert fingerprint() == fingerprint()

    def test_no_compaction_policy_means_the_default_policy(self):
        """There is no off switch: ``compaction=None`` builds the default
        policy, and a run that fills its interval snapshots and truncates."""
        default = CompactionPolicy()
        service = build(compaction=None)
        submit_puts(service, range(1, 2 * default.interval + 1))
        service.run_until(HORIZON)
        assert service.compaction == default
        assert service.counters()["snapshots_taken"] > 0
        assert service.counters()["positions_compacted"] > 0
        for replica in service.replicas(0):
            assert replica.log.snapshots.policy == default
            assert replica.log.compaction_floor > 0
            assert replica.log.delivered_total == 2 * default.interval
        assert service.is_consistent()
