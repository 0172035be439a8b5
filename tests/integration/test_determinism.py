"""Determinism regression test for the simulation substrate.

The hot-path refactor (native broadcast, (callback, arg) events, envelope reuse)
must not change what a seeded execution computes.  This test runs a mixed
Omega + sharded-service scenario twice with the same seed and asserts the two
executions are indistinguishable: same event counts, same per-process leader
histories, same decided logs and same final key-value state.  It guards against
*within-run* nondeterminism leaking into the substrate — iteration over
unordered containers, RNG draws keyed on object identity, wall-clock leakage.

It cannot see a change that deterministically alters both runs the same way
(e.g. swapping broadcast destination order); that cross-version guarantee is
covered by the fingerprints pinned in
``tests/integration/test_bench_fingerprints.py``.  Nor can two runs in one
process see a dependence on the hash seed, which both share: one test below
runs the same shape in two interpreters with different ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.figure3 import Figure3Omega
from repro.service import (
    ServiceSpec,
    build_sharded_service,
    start_clients,
    zipfian_workload,
)
from repro.simulation.delays import UniformDelay
from repro.simulation.faults import FaultPlan
from repro.simulation.system import System, SystemConfig
from repro.util.rng import RandomSource, fingerprint

SEED = 20260730
HORIZON = 80.0

SRC = Path(__file__).resolve().parents[2] / "src"

#: The read-lease shape pinned in ``test_bench_fingerprints.py``, leases on:
#: batches, lease reads, compaction and the log's decided-value index all run.
HASH_SEED_SPEC = ServiceSpec(
    n=3,
    t=1,
    num_shards=2,
    num_clients=12,
    num_keys=64,
    zipf_theta=0.99,
    seed=1302,
    horizon=120.0,
    read_fraction=0.95,
    batch_size="adaptive",
    poll_interval=0.25,
    stop_at=119.0,
    leases=True,
)

#: Runs the spec given as JSON and prints its run record's fingerprint and
#: state digests.
_RECORD_A_RUN = """
import json, sys
from repro.analysis import record_run
from repro.service import ServiceSpec, build_service, start_workload
spec = ServiceSpec.from_dict(json.loads(sys.argv[1]))
service = build_service(spec)
clients = start_workload(service, spec, record_history=True)
service.run_until(spec.horizon)
record = record_run(service, clients)
print(json.dumps({"fingerprint": record.fingerprint, "digests": record.digests}))
"""


def _omega_run():
    """A plain Figure 3 system: the ALIVE/SUSPICION broadcast path."""
    n, t = 6, 1
    system = System(
        SystemConfig(n=n, t=t, seed=SEED),
        lambda pid: Figure3Omega(pid=pid, n=n, t=t),
        UniformDelay(0.5, 2.0, RandomSource(SEED, label="determinism")),
    )
    system.run_until(HORIZON)
    return {
        "executed": system.scheduler.executed,
        "stats": system.stats.as_dict(),
        "leader_histories": {
            shell.pid: shell.algorithm.leader_history for shell in system.shells
        },
        "leaders": system.leaders(),
    }


def _service_run():
    """A sharded service with closed-loop clients: the consensus stack's
    routing and its heartbeat header.  The clients stop 3 vt before the
    horizon, so the replicas are compared drained, not with a ``Decide`` in
    flight."""
    service = build_sharded_service(num_shards=2, n=3, t=1, seed=SEED, batch_size=4)
    clients = start_clients(
        service,
        num_clients=8,
        workload_factory=lambda i: zipfian_workload(num_keys=16),
        stop_at=HORIZON - 3.0,
    )
    service.run_until(HORIZON)
    return {
        "executed": service.scheduler.executed,
        "committed": sum(client.stats.completed for client in clients),
        "applied": [
            service.applied_commands(shard) for shard in range(service.num_shards)
        ],
        "decided": [
            sorted(service.reference_replica(shard).log.decided_log().items())
            for shard in range(service.num_shards)
        ],
        "digests": {
            shard: service.state_digests(shard) for shard in range(service.num_shards)
        },
        "consistent": service.is_consistent(),
    }


def _faulty_service_run():
    """A sharded service under a composed fault plan (recovery + partition)."""
    service = build_sharded_service(
        num_shards=2,
        n=3,
        t=1,
        seed=SEED,
        batch_size=4,
        fault_plan_factory=lambda shard: FaultPlan.rolling_restarts(
            [(shard % 3 + 1) % 3], start=20.0, downtime=15.0
        ).extend(
            FaultPlan.split_brain(
                [[(shard % 3 + 2) % 3]], at=60.0, heal_at=90.0
            ).events
        ),
    )
    clients = start_clients(
        service,
        num_clients=8,
        workload_factory=lambda i: zipfian_workload(num_keys=16),
    )
    service.run_until(200.0)
    return {
        "executed": service.scheduler.executed,
        "committed": sum(client.stats.completed for client in clients),
        "digests": {
            shard: service.state_digests(shard, correct_only=False)
            for shard in range(service.num_shards)
        },
        "consistent": service.is_consistent(),
    }


def _adversarial_service_run():
    """The adversary-demo shape: a live LeaderHunter plus corrupting links."""
    from repro.simulation.adversary import LeaderHunter

    def plan(shard):
        center = shard % 3
        return FaultPlan.corrupt_links(
            [(center, (center + 1) % 3)], at=30.0, until=90.0, probability=0.8
        )

    hunter = LeaderHunter(period=20.0, start=25.0, stop=110.0, downtime=10.0)
    service = build_sharded_service(
        num_shards=2,
        n=3,
        t=1,
        seed=SEED,
        batch_size=4,
        fault_plan_factory=plan,
        adversary=hunter,
    )
    clients = start_clients(
        service,
        num_clients=8,
        workload_factory=lambda i: zipfian_workload(num_keys=16),
    )
    service.run_until(250.0)
    return {
        "executed": service.scheduler.executed,
        "committed": sum(client.stats.completed for client in clients),
        "actions": [action.describe() for action in hunter.actions],
        "tampered": service.corrupted_messages(),
        "rejected": service.corrupted_deliveries(),
        "digests": {
            shard: service.state_digests(shard, correct_only=False)
            for shard in range(service.num_shards)
        },
        "leaders": service.leaders(),
        "consistent": service.is_consistent(),
    }


class TestDeterminism:
    def test_omega_run_is_reproducible(self):
        first = _omega_run()
        second = _omega_run()
        assert first == second

    def test_service_run_is_reproducible(self):
        first = _service_run()
        second = _service_run()
        assert first == second
        assert first["consistent"]
        assert first["committed"] > 0

    def test_faulty_service_run_is_reproducible_and_converges(self):
        """Same seed + same FaultPlan ⇒ identical runs, even under churn."""
        first = _faulty_service_run()
        second = _faulty_service_run()
        assert fingerprint(first) == fingerprint(second)
        assert first == second
        # Post-heal, post-restart: every replica of every shard identical.
        assert first["consistent"]
        assert all(
            len(set(digests)) == 1 for digests in first["digests"].values()
        )

    def test_adversarial_service_run_is_reproducible_and_converges(self):
        """Seeded LeaderHunter + corrupting links ⇒ identical runs that still
        re-elect a leader per shard and converge all replica digests."""
        first = _adversarial_service_run()
        second = _adversarial_service_run()
        assert fingerprint(first) == fingerprint(second)
        assert first == second
        assert first["actions"]  # the hunter actually attacked
        assert first["tampered"] > 0 and first["rejected"] > 0
        assert all(leader is not None for leader in first["leaders"].values())
        assert all(
            len(set(digests)) == 1 for digests in first["digests"].values()
        )


#: What the seeded crash-only Omega run below computes.  Re-pin only for a
#: change that is *meant* to move crash-stop executions.
CRASH_ONLY_PLAN_FINGERPRINT = (
    "b10bb6696136a9d105e9ef416e40ad7428a4532d93dd587ecfefdfedf33aede5"
)


class TestCrashOnlyPlan:
    def test_fingerprint_is_pinned(self):
        """A FaultPlan of only Crash events installs no link state and leaves
        the delay RNG alone: the seeded omega-broadcast run with two crashes
        must keep computing the pinned SHA-256 run fingerprint."""
        n, t = 6, 2
        system = System(
            SystemConfig(n=n, t=t, seed=SEED),
            lambda pid: Figure3Omega(pid=pid, n=n, t=t),
            UniformDelay(0.5, 2.0, RandomSource(SEED, label="equivalence")),
            fault_plan=FaultPlan.crashes({4: 25.0, 1: 55.0}),
        )
        system.run_until(150.0)
        assert system.link_state is None
        assert CRASH_ONLY_PLAN_FINGERPRINT == fingerprint(
            {
                "leader_histories": {
                    shell.pid: shell.algorithm.leader_history
                    for shell in system.shells
                },
                "sent_by_tag": dict(system.stats.sent_by_tag),
                "total_delivered": system.stats.total_delivered,
                "executed": system.scheduler.executed,
            }
        )


def test_a_run_does_not_depend_on_the_hash_seed():
    """A set of ``str``-bearing values iterates in an order that depends on
    ``PYTHONHASHSEED``, which tier-1 leaves random; an execution that read
    such an order would show only as a flaky pin.  The same shape under hash
    seeds 0 and 1 must give one run record and the same state digests."""
    spec = json.dumps(HASH_SEED_SPEC.to_dict())
    outputs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", _RECORD_A_RUN, spec],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed},
            ).stdout
        )
        for hash_seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]
    assert all(
        len({state for state, correct in shard if correct}) == 1
        for shard in outputs[0]["digests"]
    )
