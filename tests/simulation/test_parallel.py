"""Tests for the parallel shard executor (:mod:`repro.simulation.parallel`).

The load-bearing property: a seeded run is **byte-identical regardless of
worker count** — ``workers=0`` (inline), ``workers=2`` and ``workers=4``
produce the same merged run record, fingerprint included, across seeds, fault
plans, storage and compaction modes.
"""

import dataclasses
import json

import pytest

from repro.analysis.service_metrics import RunRecord, Violation, merge_records
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultPlan
from repro.simulation.parallel import run_parallel_service, run_shard

#: Small but non-trivial: 3 shards (4 zipfian clients each), enough horizon
#: for real consensus traffic.
BASE_SPEC = ServiceSpec(
    num_shards=3,
    n=3,
    t=1,
    seed=901,
    horizon=80.0,
    num_clients=4,
    num_keys=64,
    zipf_theta=0.99,
)


def spec_with(**changes) -> ServiceSpec:
    return dataclasses.replace(BASE_SPEC, **changes)


class TestWorkerCountIndependence:
    def test_inline_two_and_four_workers_are_byte_identical(self):
        inline = run_parallel_service(BASE_SPEC, workers=0)
        two = run_parallel_service(BASE_SPEC, workers=2)
        four = run_parallel_service(BASE_SPEC, workers=4)
        assert inline == two
        assert inline == four

    def test_other_seed_still_worker_count_independent(self):
        spec = spec_with(num_shards=2, seed=4242, horizon=70.0, num_clients=3)
        inline = run_parallel_service(spec, workers=0)
        pooled = run_parallel_service(spec, workers=2)
        assert inline == pooled

    def test_different_seeds_produce_different_runs(self):
        other = spec_with(seed=902)
        assert (
            run_parallel_service(BASE_SPEC, workers=0).fingerprint
            != run_parallel_service(other, workers=0).fingerprint
        )

    def test_fault_plans_are_worker_count_independent(self):
        plan = FaultPlan.rolling_restarts([1], start=20.0, downtime=8.0)
        spec = spec_with(num_shards=2, seed=77, horizon=70.0, num_clients=3)
        inline = run_parallel_service(spec, workers=0, plans={0: plan})
        pooled = run_parallel_service(spec, workers=2, plans={0: plan})
        assert inline == pooled
        # The plan reached shard 0 only: the merge is of exactly these runs,
        # and the restart happened there, not on shard 1.
        planned, unplanned = run_shard(spec, 0, plan), run_shard(spec, 1)
        assert inline == merge_records([planned, unplanned])
        assert (planned.recoveries, unplanned.recoveries) == (1, 0)

    def test_a_storage_off_restart_plan_is_flagged_in_the_record(self):
        # One restart of three replicas with storage off can shrink a promise
        # quorum: the merged record keeps the flag, on the planned shard.
        plan = FaultPlan.rolling_restarts([1], start=20.0, downtime=8.0)
        spec = spec_with(num_shards=2, seed=77, horizon=70.0, num_clients=3)
        assert spec.storage_write_cost is None
        record = run_parallel_service(spec, workers=0, plans={0: plan})
        assert record.hazards[1] == ()
        assert [flag.split(":")[0] for flag in record.hazards[0]] == ["amnesia"]
        assert record.hazards[0][0] == "amnesia: " + plan.amnesia_hazards(3, 1)[0]
        stored = run_parallel_service(
            dataclasses.replace(spec, storage_write_cost=0.0), workers=0, plans={0: plan}
        )
        assert stored.hazards == ((), ())

    def test_storage_mode_is_worker_count_independent(self):
        spec = spec_with(
            num_shards=2,
            seed=55,
            horizon=70.0,
            num_clients=3,
            storage_write_cost=0.2,
            stop_at=50.0,
        )
        inline = run_parallel_service(spec, workers=0)
        pooled = run_parallel_service(spec, workers=2)
        assert inline == pooled
        assert inline.storage_writes > 0

    def test_compaction_mode_is_worker_count_independent(self):
        spec = spec_with(
            num_shards=2,
            seed=66,
            horizon=400.0,
            num_clients=3,
            compaction_interval=32,
            compaction_retain=8,
        )
        inline = run_parallel_service(spec, workers=0)
        pooled = run_parallel_service(spec, workers=2)
        assert inline == pooled
        assert inline.counters["snapshots_taken"] > 0
        assert inline.counters["positions_compacted"] > 0


class TestRunShard:
    def test_run_shard_is_reproducible(self):
        first = run_shard(BASE_SPEC, 1)
        second = run_shard(BASE_SPEC, 1)
        assert first.fingerprint == second.fingerprint
        assert first.events == second.events
        assert first.digests == second.digests

    def test_shards_are_independent_executions(self):
        fingerprints = {run_shard(BASE_SPEC, s).fingerprint for s in range(3)}
        assert len(fingerprints) == 3

    def test_shard_record_round_trips_through_json(self):
        record = run_shard(BASE_SPEC, 0)
        data = json.loads(json.dumps(record.to_dict()))
        assert RunRecord.from_dict(data) == record

    def test_out_of_range_shard_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run_shard(BASE_SPEC, 3)

    def test_plan_for_an_out_of_range_shard_is_rejected(self):
        with pytest.raises(ValueError, match="references shard 5"):
            run_parallel_service(BASE_SPEC, plans={5: FaultPlan.none()})

    def test_a_negative_worker_count_is_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            run_parallel_service(BASE_SPEC, workers=-2)


@pytest.fixture(scope="module")
def shard_records():
    spec = spec_with(num_shards=2, seed=1, horizon=60.0, num_clients=3)
    return [run_shard(spec, shard) for shard in range(2)]


class TestMerge:
    def test_totals_sum_and_high_water_marks_max(self, shard_records):
        first, second = (
            dataclasses.replace(
                record, counters={**record.counters, "peak_decided_residency": peak}
            )
            for record, peak in zip(shard_records, (5, 9))
        )
        merged = merge_records([first, second])
        assert merged.events == first.events + second.events
        assert merged.completed == first.completed + second.completed
        assert merged.counters["ballots_started"] == (
            first.counters["ballots_started"] + second.counters["ballots_started"]
        )
        assert merged.counters["peak_decided_residency"] == 9  # high-water: max

    def test_per_shard_fields_follow_the_given_order(self, shard_records):
        first, second = shard_records
        merged = merge_records([first, second])
        assert merged.applied == first.applied + second.applied
        assert merged.digests == first.digests + second.digests
        assert merged.histories == first.histories + second.histories
        # Each shard ran on its own clock: its instants are not pooled.
        assert merged.leader_change_times == (
            first.leader_change_times + second.leader_change_times
        )
        assert merged.hazards == first.hazards + second.hazards
        assert merged.latencies == tuple(sorted(first.latencies + second.latencies))
        assert merged.fingerprint != merge_records([second, first]).fingerprint

    def test_violations_are_relabelled_with_their_shard(self, shard_records):
        first, second = shard_records
        local = Violation(kind="divergence", shard=0, detail="replicas disagree")
        broken = dataclasses.replace(second, violations=(local,))
        merged = merge_records([first, broken])
        assert first.ok and not merged.ok
        assert merged.violations == (dataclasses.replace(local, shard=1),)

    def test_merged_fingerprint_depends_on_every_shard(self, shard_records):
        first, second = shard_records
        changed = dataclasses.replace(second, events=second.events + 1)
        assert (
            merge_records([first, second]).fingerprint
            != merge_records([first, changed]).fingerprint
        )


