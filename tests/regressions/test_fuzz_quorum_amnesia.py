"""Auto-generated fuzz regression: agreement violation found by fuzzing.

Emitted by repro.fuzz.minimize.emit_regression_test from a minimized
counterexample.  The scenario replays deterministically from the embedded
(spec, plan) pair; the assertion pins the violation kind(s) the campaign
observed.
"""

import pytest

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
 'lease_validation': True,
 'leases': False,
 'n': 3,
 'num_clients': 2,
 'num_keys': 4,
 'num_shards': 1,
 'poll_interval': 1.0,
 'read_fraction': 0.5,
 'retry_period': 10.0,
 'retry_timeout': 12.0,
 'scenario': 'constant',
 'seed': 3,
 'stop_at': 80.0,
 'storage_write_cost': None,
 't': 1,
 'zipf_theta': None}

PLAN = {'events': [{'block': True,
             'delay_add': 0.0,
             'delay_factor': 1.0,
             'dest': 1,
             'kind': 'link_fault',
             'loss_probability': 0.0,
             'sender': 0,
             'time': 6.0,
             'until': None},
            {'block': True,
             'delay_add': 0.0,
             'delay_factor': 1.0,
             'dest': 2,
             'kind': 'link_fault',
             'loss_probability': 0.0,
             'sender': 0,
             'time': 6.0,
             'until': None},
            {'kind': 'crash', 'pid': 1, 'time': 12.0},
            {'kind': 'recover', 'pid': 1, 'time': 16.0},
            {'kind': 'crash', 'pid': 2, 'time': 17.0},
            {'kind': 'recover', 'pid': 2, 'time': 21.0}],
 'version': 1}

EXPECTED_KINDS = ('agreement',)


def test_fuzz_agreement_0():
    spec = ServiceSpec.from_dict(SPEC)
    plan = FaultPlan.from_dict(PLAN, n=spec.n, t=spec.t)
    result = run_scenario(spec, plan)
    observed = {violation.kind for violation in result.violations}
    assert set(EXPECTED_KINDS) <= observed, (
        f"expected violation kinds {EXPECTED_KINDS} to reproduce, "
        f"observed {sorted(observed)}"
    )


#: Every kind the witness reports once every replica compacts.
KINDS_UNDER_COMPACTION = ('agreement', 'divergence', 'linearizability')


@pytest.mark.parametrize(
    "compaction",
    [{}, {"compaction_interval": 16, "compaction_retain": 4}],
    ids=["default_policy", "interval_16_retain_4"],
)
def test_fuzz_agreement_0_survives_compaction(compaction):
    """The agreement finding is made when a replica learns the second value
    at a position, so truncating that position later hides nothing: the
    witness reports every kind under the default policy and at (16, 4)."""
    spec = ServiceSpec.from_dict({**SPEC, **compaction})
    plan = FaultPlan.from_dict(PLAN, n=spec.n, t=spec.t)
    result = run_scenario(spec, plan)
    # At (16, 4) the position behind the finding is truncated by the horizon.
    assert bool(compaction) == (result.counters.get("snapshots_taken", 0) > 0)
    assert {violation.kind for violation in result.violations} == set(
        KINDS_UNDER_COMPACTION
    )
