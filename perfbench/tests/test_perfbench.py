"""The benchmark's own checks (``pytest perfbench/tests``; not part of tier-1).

Everything here runs on ``--quick`` horizons so the whole file stays well under
a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, metrics, run
from perfbench.layers import LAYERS, MODULE_LAYER, OTHER, layer_of
from perfbench.openloop import OpenLoopSource
from perfbench.workloads import QUICK_SCALE, WORKLOADS, Run
from repro.service import build_sharded_service, zipfian_workload
from repro.simulation import Crash, Recover

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def quick(name: str):
    return WORKLOADS[name].scaled(QUICK_SCALE)


# ------------------------------------------------------------------ determinism --
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_twice_gives_identical_counts_and_fingerprints(name):
    spec = quick(name)
    outcomes = []
    for _ in range(2):
        workload_run = Run(spec, 7)
        measure.advance(workload_run)
        result = measure.collect(workload_run)
        measure.check_run(workload_run, result)
        outcomes.append((result.fingerprint, measure.virtual_metrics(spec, [result]), result.violations))
    assert outcomes[0] == outcomes[1]
    assert not any(outcomes[0][2].values()), outcomes[0][2]
    assert outcomes[0][1]["failed_op_share"] == 0.0


def test_calibration_kernel_checksum_is_pinned():
    assert measure.calibration_kernel() == measure.KERNEL_CHECKSUM


# ------------------------------------------------------------------ layer map --
def test_module_layer_map_is_total_over_the_source_tree():
    modules = {path.relative_to(ROOT / "src").as_posix() for path in (ROOT / "src" / "repro").rglob("*.py")}
    assert modules - set(MODULE_LAYER) == set(), "map these new modules to a layer in perfbench/layers.py"
    assert set(MODULE_LAYER) - modules == set(), "these mapped modules no longer exist"
    assert set(MODULE_LAYER.values()) <= set(LAYERS) | {OTHER}
    assert set(LAYERS) <= set(MODULE_LAYER.values())


def test_layer_of_resolves_profiler_paths():
    assert layer_of(str(ROOT / "src" / "repro" / "consensus" / "leases.py")) == "consensus.leases"
    assert layer_of(str(ROOT / "perfbench" / "openloop.py")) == "perfbench"
    assert layer_of("~") is None


# ------------------------------------------------------------------ open loop --
def test_open_loop_keeps_arriving_while_a_shard_is_stalled_and_times_from_due():
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=5)
    source = OpenLoopSource(service, zipfian_workload(16), service.rng("test"), rate=2.0, stop_at=120.0, pool_size=256)
    source.start()
    service.run_until(40.0)
    # Crash shard 0's leader: the shard serves nothing until Omega re-elects.
    stalled = service.systems[0]
    leader = stalled.agreed_leader()
    assert leader is not None
    stalled.inject_fault(Crash(time=40.0, pid=leader))
    stalled.inject_fault(Recover(time=140.0, pid=leader))
    completed_before = source.completed
    service.run_until(100.0)
    assert source.due == 201, "arrivals (one every 0.5 vt, t=0..100) must not wait for the stalled shard"
    assert len(source._in_flight[0]) > 20, "operations on the stalled shard pile up in flight"
    assert source.completed > completed_before + 20, "the healthy shard keeps completing"
    service.run_until(400.0)
    assert source.completed == source.due == 240
    records = source.records()
    assert max(record.completed_at - record.due_at for record in records) > 40.0, "the stall shows in latency"
    assert all(record.due_at <= record.invoked_at <= record.completed_at for record in records)
    assert all(session.seq == len(session.history) for session in source.sessions)
    assert source.retries > 0 and source.lateness_max == 0.0


# ------------------------------------------------------------------ names --
def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_registry():
    document = benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert document["paths"] == ["perfbench"]
    assert [entry["name"] for entry in document["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {entry["name"]: entry["why"] for entry in document["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOAD_NAMES
    }
    assert [entry["name"] for entry in document["end_to_end"]] == list(metrics.GATED)
    assert [
        {key: entry[key] for key in ("name", "unit", "better")} for entry in document["per_layer"]
    ] == metrics.benchmark_per_layer()
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in document["workloads"])
    assert all(0 < entry["bound"] <= 0.25 for entry in document["end_to_end"])
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s" for entry in document["end_to_end"])
    assert document["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_benchmark_metric_and_nothing_unlisted(trace, tmp_path):
    document = benchmark_json()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "durable_failover", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    listed = document["end_to_end"] if trace == 0 else document["per_layer"]
    assert set(result["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    printed = {line.split()[1] for line in lines[:-1] if line.startswith("durable_failover ")}
    assert set(result["metrics"]) <= printed
    every = {entry["name"] for key in ("end_to_end", "per_layer") for entry in document[key]}
    assert printed <= every, "run.py prints a metric BENCHMARK.json does not list"
    if trace == 1:
        assert (tmp_path / "durable_failover.trace.json").is_file()
