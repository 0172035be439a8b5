"""Tests for the parallel shard executor (:mod:`repro.simulation.parallel`).

The load-bearing property: a seeded run is **byte-identical regardless of
worker count** — ``workers=0`` (inline), ``workers=2`` and ``workers=4``
produce the same per-shard fingerprints, the same merged counters and the
same run fingerprint, across seeds, fault plans, storage and compaction
modes.  Wall-clock fields are the only thing allowed to differ.
"""

import dataclasses
import json

import pytest

from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultPlan
from repro.simulation.parallel import (
    ParallelRunReport,
    ShardResult,
    merge_shard_results,
    run_parallel_service,
    run_shard,
)

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


def _deterministic_view(report: ParallelRunReport) -> dict:
    """Everything a worker count must not be able to change."""
    return {
        "events": report.events,
        "messages": report.messages,
        "committed": report.committed,
        "applied": report.applied,
        "consistent": report.consistent,
        "counters": report.counters,
        "violations": report.violations,
        "shard_fingerprints": [shard.fingerprint for shard in report.shards],
        "run_fingerprint": report.run_fingerprint,
    }


class TestWorkerCountIndependence:
    def test_inline_two_and_four_workers_are_byte_identical(self):
        inline = run_parallel_service(BASE_SPEC, workers=0)
        two = run_parallel_service(BASE_SPEC, workers=2)
        four = run_parallel_service(BASE_SPEC, workers=4)
        assert _deterministic_view(inline) == _deterministic_view(two)
        assert _deterministic_view(inline) == _deterministic_view(four)

    def test_other_seed_still_worker_count_independent(self):
        spec = spec_with(num_shards=2, seed=4242, horizon=70.0, num_clients=3)
        inline = run_parallel_service(spec, workers=0)
        pooled = run_parallel_service(spec, workers=2)
        assert _deterministic_view(inline) == _deterministic_view(pooled)

    def test_different_seeds_produce_different_runs(self):
        other = spec_with(seed=902)
        assert (
            run_parallel_service(BASE_SPEC, workers=0).run_fingerprint
            != run_parallel_service(other, workers=0).run_fingerprint
        )

    def test_fault_plans_are_worker_count_independent(self):
        plan = FaultPlan.rolling_restarts([1], start=20.0, downtime=8.0)
        spec = spec_with(num_shards=2, seed=77, horizon=70.0, num_clients=3)
        inline = run_parallel_service(spec, workers=0, plans={0: plan})
        pooled = run_parallel_service(spec, workers=2, plans={0: plan})
        assert _deterministic_view(inline) == _deterministic_view(pooled)
        # The restart actually happened, and only on the planned shard.
        assert inline.shards[0].counters["recoveries"] == 1
        assert inline.shards[1].counters["recoveries"] == 0

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
        assert _deterministic_view(inline) == _deterministic_view(pooled)
        assert inline.counters["storage_writes"] > 0

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
        assert _deterministic_view(inline) == _deterministic_view(pooled)
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

    def test_shard_result_round_trips_through_json(self):
        result = run_shard(BASE_SPEC, 0)
        data = json.loads(json.dumps(result.to_dict()))
        assert ShardResult.from_dict(data) == result

    def test_out_of_range_shard_is_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            run_shard(BASE_SPEC, 3)

    def test_plan_for_an_out_of_range_shard_is_rejected(self):
        with pytest.raises(ValueError, match="references shard 5"):
            run_parallel_service(BASE_SPEC, plans={5: FaultPlan.none()})


def _shard_result(shard, *, events=10, peak=5, fingerprint="f"):
    return ShardResult(
        shard=shard,
        events=events,
        messages=events,
        committed=1,
        applied=1,
        digests=("d",),
        consistent=True,
        counters={"recoveries": 1, "peak_decided_residency": peak},
        violations=(),
        wall_seconds=0.5,
        fingerprint=f"{fingerprint}{shard}",
    )


class TestMerge:
    def test_totals_sum_and_high_water_marks_max(self):
        spec = spec_with(num_shards=2, seed=1)
        report = merge_shard_results(
            spec,
            [_shard_result(0, peak=5), _shard_result(1, peak=9)],
            workers=0,
            wall_seconds=1.0,
        )
        assert report.events == 20
        assert report.counters["recoveries"] == 2  # monotone: sums
        assert report.counters["peak_decided_residency"] == 9  # high-water: max

    def test_merge_folds_in_shard_order_not_arrival_order(self):
        spec = spec_with(num_shards=2, seed=1)
        forward = merge_shard_results(
            spec, [_shard_result(0), _shard_result(1)], workers=0, wall_seconds=1.0
        )
        reversed_ = merge_shard_results(
            spec, [_shard_result(1), _shard_result(0)], workers=0, wall_seconds=1.0
        )
        assert forward.run_fingerprint == reversed_.run_fingerprint
        assert [s.shard for s in reversed_.shards] == [0, 1]

    def test_missing_or_duplicate_shard_is_rejected(self):
        spec = spec_with(num_shards=2, seed=1)
        with pytest.raises(ValueError, match="one result per shard"):
            merge_shard_results(spec, [_shard_result(0)], workers=0, wall_seconds=1.0)
        with pytest.raises(ValueError, match="one result per shard"):
            merge_shard_results(
                spec, [_shard_result(0), _shard_result(0)], workers=0, wall_seconds=1.0
            )

    def test_run_fingerprint_depends_on_every_shard(self):
        spec = spec_with(num_shards=2, seed=1)
        base = merge_shard_results(
            spec, [_shard_result(0), _shard_result(1)], workers=0, wall_seconds=1.0
        )
        changed = merge_shard_results(
            spec,
            [_shard_result(0), _shard_result(1, fingerprint="other")],
            workers=0,
            wall_seconds=1.0,
        )
        assert base.run_fingerprint != changed.run_fingerprint
