"""Auto-generated fuzz regression: partitioned old leader, clock validation off: a lease read goes stale.

Emitted by repro.fuzz.minimize.emit_regression_test from a minimized
counterexample.  The scenario replays deterministically from the embedded
(spec, plan) pair; the assertion pins the violation kind(s) the campaign
observed.
"""

from repro.fuzz.executor import run_scenario
from repro.service.sharding import ServiceSpec
from repro.simulation.faults import FaultPlan

SPEC = {'adversary': None,
 'adversary_period': 15.0,
 'batch_size': 1,
 'compaction_interval': None,
 'compaction_retain': 32,
 'delay': 0.5,
 'drive_period': 2.0,
 'horizon': 110.0,
 'lease_duration': 6.0,
 'lease_validation': False,
 'leases': True,
 'n': 3,
 'num_clients': 4,
 'num_keys': 2,
 'num_shards': 1,
 'poll_interval': 1.0,
 'read_fraction': 0.9,
 'retry_period': 10.0,
 'retry_timeout': 12.0,
 'scenario': 'constant',
 'seed': 2,
 'stop_at': 80.0,
 'storage_write_cost': None,
 't': 1,
 'zipf_theta': None}

PLAN = {'events': [{'groups': [[0]], 'kind': 'partition_start', 'time': 12.0},
            {'kind': 'partition_heal', 'time': 32.0}],
 'version': 1}

EXPECTED_KINDS = ('linearizability', 'stale-read')


def test_lease_stale_read():
    spec = ServiceSpec.from_dict(SPEC)
    plan = FaultPlan.from_dict(PLAN, n=spec.n, t=spec.t)
    result = run_scenario(spec, plan)
    observed = {violation.kind for violation in result.violations}
    assert set(EXPECTED_KINDS) <= observed, (
        f"expected violation kinds {EXPECTED_KINDS} to reproduce, "
        f"observed {sorted(observed)}"
    )


def test_lease_stale_read_is_prevented_by_clock_validation():
    # The identical schedule with the virtual-clock expiry check ON: the
    # partitioned old leader's lease runs out before the majority side's
    # writes complete, so the read falls back and every probe stays clean —
    # pinning that the validation is exactly the load-bearing protection.
    spec = ServiceSpec.from_dict({**SPEC, "lease_validation": True})
    plan = FaultPlan.from_dict(PLAN, n=spec.n, t=spec.t)
    result = run_scenario(spec, plan)
    assert result.ok, [violation.detail for violation in result.violations]
