"""The run record: one read of a finished service run (:mod:`repro.analysis.service_metrics`)."""

import dataclasses
import json

import pytest

from repro.analysis.service_metrics import (
    RunRecord,
    Violation,
    record_run,
    session_violations,
)
from repro.service import build_sharded_service, generate_commands, start_clients, zipfian_workload

HORIZON = 80.0


@pytest.fixture(scope="module")
def run():
    """Two shards with one replica crashed in each, driven by closed-loop clients."""
    service = build_sharded_service(
        num_shards=2, n=3, t=1, seed=31, batch_size=4, crashes_per_shard=1, crash_horizon=40.0
    )
    clients = start_clients(
        service,
        num_clients=8,
        workload_factory=lambda i: zipfian_workload(num_keys=16),
        record_history=True,
    )
    service.run_until(HORIZON)
    return service, clients, record_run(service, clients)


def _with_latencies(record, latencies):
    return dataclasses.replace(record, latencies=tuple(latencies))


class TestWhatTheRecordHolds:
    def test_counts_are_the_services(self, run):
        service, clients, record = run
        assert record.duration == HORIZON
        assert record.events == service.scheduler.executed
        assert record.messages == sum(system.stats.total_sent for system in service.systems)
        assert record.applied == tuple(service.applied_commands(s) for s in range(2))
        assert record.instances == tuple(service.decided_instances(s) for s in range(2))
        assert record.completed == sum(client.stats.completed for client in clients) > 0
        assert record.counters == dict(service.counters())
        assert record.storage_writes == service.storage_writes()
        assert record.throughput == sum(record.applied) / HORIZON

    def test_both_digest_views_and_consistency_rebuild(self, run):
        service, _, record = run
        for shard in range(2):
            for correct_only in (True, False):
                assert record.state_digests(shard, correct_only) == service.state_digests(
                    shard, correct_only
                )
            assert len(record.state_digests(shard)) == 2  # one replica crashed
        assert record.consistent == service.is_consistent() is True

    def test_leaders_and_latencies(self, run):
        service, clients, record = run
        assert record.leaders == tuple(service.leaders()[s] for s in range(2))
        assert len(record.leader_change_times) == 2
        for times in record.leader_change_times:
            assert times == tuple(sorted(times))
        assert len(record.latencies) == record.completed
        assert record.latency["max"] == max(
            op.completed_at - op.invoked_at for client in clients for op in client.history
        )

    def test_a_clean_run_has_no_violations(self, run):
        assert run[2].violations == ()
        assert run[2].ok
        assert run[2].hazards == ((), ())  # crash-stop plans raise no flag


class TestLatencyQuantiles:
    def test_quantiles_are_nearest_rank(self, run):
        # Indexing int(f * N) read one rank high: p50 11.0 and p95 the max.
        latency = _with_latencies(run[2], [float(v) for v in range(1, 21)]).latency
        assert latency == {
            "count": 20, "mean": 10.5, "p50": 10.0, "p95": 19.0, "p99": 20.0, "max": 20.0
        }

    def test_one_sample_is_every_quantile(self, run):
        latency = _with_latencies(run[2], [3.0]).latency
        assert latency["p50"] == latency["p99"] == latency["max"] == 3.0

    def test_no_samples_read_as_zero(self, run):
        assert set(_with_latencies(run[2], []).latency.values()) == {0}


class TestDerivedFigures:
    def test_two_correct_states_are_not_consistent(self, run):
        assert not dataclasses.replace(run[2], digests=((("a", True), ("b", True)),)).consistent

    def test_no_decided_instance_reads_as_zero_commands_per_instance(self, run):
        assert dataclasses.replace(run[2], instances=(0, 0)).commands_per_instance == 0.0


class TestSerialization:
    def test_round_trips_through_json(self, run):
        record = dataclasses.replace(
            run[2], violations=(Violation(kind="divergence", shard=1, detail="d"),)
        )
        rebuilt = RunRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record
        assert rebuilt.fingerprint == record.fingerprint

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda data: data.pop("events"), r"missing field\(s\) \['events'\]"),
            (lambda data: data.update(wall_seconds=1.0), r"unknown run record field\(s\) \['wall_seconds'\]"),
            (
                lambda data: data.update(violations=[{"kind": "agreement", "shard": 0}]),
                r"violation is missing field\(s\) \['detail'\]",
            ),
            (lambda data: data.update(violations=["agreement"]), r"violation must be a dict, got 'agreement'"),
        ],
        ids=["missing", "unknown", "bad-violation", "violation-not-a-dict"],
    )
    def test_from_dict_rejects_a_missing_or_unknown_field(self, run, change, message):
        data = run[2].to_dict()
        change(data)
        with pytest.raises(ValueError, match=message):
            RunRecord.from_dict(data)

    def test_the_fingerprint_covers_every_field(self, run):
        record = run[2]
        assert dataclasses.replace(record, retries=record.retries + 1).fingerprint != record.fingerprint
        assert dataclasses.replace(record, histories=("x", "y")).fingerprint != record.fingerprint


def test_without_clients_the_client_probes_stay_out():
    """Direct submissions have no client to own their sessions: the
    exactly-once probe would call every one a phantom."""
    service = build_sharded_service(num_shards=1, n=3, t=1, seed=910, batch_size=8)
    commands = generate_commands(
        zipfian_workload(num_keys=16), num_commands=20, num_clients=4, rng=service.rng("w")
    )
    for index, command in enumerate(commands):
        service.submit(command, gateway=index % service.n)
    service.run_until(60.0)
    assert session_violations(service, [])  # phantoms, had it run
    record = record_run(service)
    assert record.ok and record.completed == 0 and record.latencies == ()
    assert sum(record.applied) == len(commands)
