"""E1 — Figure 1 under the eventual rotating t-star ``A0`` (Theorem 1).

Regenerates, for several system sizes and crash patterns, the stabilisation time,
leader-change count and message cost of the Figure 1 algorithm when every round
(after RN0) carries a rotating star.
"""

import pytest

from _harness import record
from repro.analysis import run_omega_experiment
from repro.assumptions import EventualRotatingStarScenario
from repro.core import Figure1Omega
from repro.simulation import FaultPlan

DURATION = 300.0


@pytest.mark.parametrize("n,t", [(4, 1), (7, 3), (10, 4)])
def test_e1_failure_free(benchmark, n, t):
    scenario = EventualRotatingStarScenario(n=n, t=t, center=1, seed=1000 + n)

    def run():
        return run_omega_experiment(scenario, Figure1Omega, DURATION, seed=1000 + n)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, [result], f"E1: Figure 1 under A0, failure-free, n={n}, t={t}")
    assert result.stabilized and result.leader_is_correct
    assert result.late_leader_changes == 0


@pytest.mark.parametrize("n,t", [(5, 2), (7, 3)])
def test_e1_with_crashes_of_low_ids(benchmark, n, t):
    scenario = EventualRotatingStarScenario(n=n, t=t, center=n - 1, seed=1100 + n)
    crashes = FaultPlan.crashes({pid: 15.0 + 10.0 * pid for pid in range(t)})

    def run():
        return run_omega_experiment(
            scenario, Figure1Omega, DURATION, seed=1100 + n, fault_plan=crashes
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        benchmark,
        [result],
        f"E1: Figure 1 under A0, {t} low-id crashes, n={n}, t={t}",
    )
    assert result.stabilized and result.leader_is_correct
    assert result.final_leader not in set(range(t))
