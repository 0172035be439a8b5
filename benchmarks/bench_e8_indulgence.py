"""E8 — indulgence: consensus safety costs nothing when the assumption fails.

Runs the Omega + replicated-log stack under the fully asynchronous adversary (no
assumption holds, the oracle has no stabilisation guarantee) and regenerates the
safety scorecard: number of positions decided, agreement violations (must be 0) and
validity violations (must be 0), with and without crashes.
"""

import pytest

from repro.assumptions import AsynchronousAdversaryScenario
from repro.consensus import NOOP
from repro.simulation import FaultPlan
from repro.system_builders import build_consensus_system
from repro.util.tables import format_table

HORIZON = 400.0


def run_adversarial(n, t, seed, crash_times):
    scenario = AsynchronousAdversaryScenario(n=n, t=t, seed=seed)
    system = build_consensus_system(
        n=n, t=t, scenario=scenario, seed=seed, fault_plan=FaultPlan.crashes(crash_times)
    )
    submitted = set()
    for shell in system.shells:
        command = f"cmd-{shell.pid}"
        submitted.add(command)
        shell.algorithm.submit(command)
    system.run_until(HORIZON)

    per_position = {}
    for shell in system.shells:
        for position, value in shell.algorithm.log.decided_log().items():
            per_position.setdefault(position, set()).add(value)
    agreement_violations = sum(1 for values in per_position.values() if len(values) > 1)
    validity_violations = sum(
        1
        for values in per_position.values()
        for value in values
        if value != NOOP and value not in submitted
    )
    return {
        "n": n,
        "crashes": len(crash_times),
        "positions_decided": len(per_position),
        "agreement_violations": agreement_violations,
        "validity_violations": validity_violations,
    }


@pytest.mark.parametrize("crash_times", [{}, {1: 50.0, 3: 100.0}])
def test_e8_safety_under_adversary(benchmark, crash_times):
    def run():
        return run_adversarial(5, 2, seed=8000 + len(crash_times), crash_times=crash_times)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["row"] = row
    print(
        "\n"
        + format_table(
            list(row.keys()),
            [list(row.values())],
            title="E8: safety scorecard under the asynchronous adversary",
        )
    )
    assert row["agreement_violations"] == 0
    assert row["validity_violations"] == 0
