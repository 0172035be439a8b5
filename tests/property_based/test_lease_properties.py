"""Property-based tests (hypothesis) for the lease read path.

Three system-level properties over randomised seeds, with a leader-hunting
adversary doing its worst in both of its modes:

* **mutual exclusion**: no two processes of a shard ever hold simultaneously
  valid leases — the per-shard renewal audits (``(pid, start, expiry)``
  intervals, recorded across every replica incarnation) never overlap across
  different pids, whether leaders are killed (crash mode, with recoveries and
  their grant blackouts) or isolated (partition mode, where a stale leader
  keeps running inside its term);
* **linearizability**: the merged client history — lease-served reads
  included, with their actual results — passes the Wing–Gong check against
  the key-value specification, and the stale-read probe finds nothing;
* **determinism**: a lease-enabled execution is a pure function of
  ``(spec, plan, seed)`` — equal inputs give byte-identical fingerprints.
"""

import dataclasses
import itertools

from hypothesis import given, settings, strategies as st

from repro.fuzz.executor import FUZZ_BASELINE, run_scenario
from repro.fuzz.linearizability import check_history
from repro.service.clients import start_clients, zipfian_workload
from repro.service.sharding import ServiceSpec, ShardedService, build_service
from repro.simulation.adversary import LeaderHunter
from repro.simulation.faults import FaultPlan


def assert_leases_exclusive(service: ShardedService) -> None:
    """No two pids of any shard hold overlapping lease intervals."""
    for shard, audit in enumerate(service.lease_audits):
        for (p1, s1, e1), (p2, s2, e2) in itertools.combinations(audit, 2):
            if p1 == p2:
                continue
            overlap = min(e1, e2) - max(s1, s2)
            assert overlap <= 0, (
                f"shard {shard}: pid {p1} leased [{s1}, {e1}) while pid {p2} "
                f"leased [{s2}, {e2}) — two valid leases overlap by {overlap}"
            )


def lease_spec(seed: int, **changes) -> ServiceSpec:
    base = dict(
        seed=seed,
        leases=True,
        num_clients=4,
        num_keys=4,
        read_fraction=0.9,
        horizon=140.0,
        stop_at=100.0,
        adversary="leader-hunter",
        storage_write_cost=0.0,
    )
    base.update(changes)
    return dataclasses.replace(FUZZ_BASELINE, **base)


class TestLeaseMutualExclusion:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_no_two_valid_leases_under_crashing_leader_hunter(self, seed):
        # The executor's "leader-hunter" kills every agreed leader it sees:
        # recovered granters forget their outstanding grants, which is exactly
        # what the post-restart grant blackout must compensate for.
        service = build_service(lease_spec(seed))
        clients = start_clients(
            service,
            num_clients=4,
            workload_factory=lambda i: zipfian_workload(4, read_fraction=0.9),
            stop_at=100.0,
            record_history=True,
        )
        service.run_until(140.0)
        assert any(audit for audit in service.lease_audits), "no lease activity"
        assert_leases_exclusive(service)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_no_two_valid_leases_under_partitioning_leader_hunter(self, seed):
        # Partition mode never kills the leader — it isolates it mid-term, the
        # worst case for lease exclusivity: the stale leader keeps renewing
        # into the void while the majority side tries to elect a successor.
        service = ShardedService(
            num_shards=1,
            n=3,
            t=1,
            seed=seed,
            leases=True,
            adversary=LeaderHunter(mode="partition", downtime=10.0, period=15.0, stop=100.0),
        )
        clients = start_clients(
            service,
            num_clients=4,
            workload_factory=lambda i: zipfian_workload(4, read_fraction=0.9),
            stop_at=100.0,
            record_history=True,
        )
        service.run_until(150.0)
        assert any(audit for audit in service.lease_audits), "no lease activity"
        assert_leases_exclusive(service)
        merged = [record for client in clients for record in client.history]
        verdict = check_history(merged)
        assert not verdict.failures, verdict.failures


class TestLeaseReadLinearizability:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_read_histories_linearizable_under_leader_hunter(self, seed):
        result = run_scenario(lease_spec(seed), FaultPlan.none())
        assert result.ok, [v.detail for v in result.violations]
        assert result.features.get("lease_reads_served", 0) > 0


class TestLeaseDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_lease_enabled_runs_have_identical_fingerprints(self, seed):
        spec = lease_spec(seed)
        first = run_scenario(spec, FaultPlan.none())
        second = run_scenario(spec, FaultPlan.none())
        assert first.fingerprint == second.fingerprint
        assert first.features == second.features
