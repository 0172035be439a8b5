"""E2 — Figure 2 under the intermittent rotating t-star ``A`` (Theorem 2).

Sweeps the gap bound ``D`` and regenerates stabilisation time and message cost;
also includes the ablation row showing what happens to Figure 1 (no line-``*``
window test) under the same intermittent assumption.
"""

import pytest

from _harness import center_suspicion_metric, record
from repro.analysis import run_omega_experiment
from repro.assumptions import IntermittentRotatingStarScenario, RotatingPersecutionScenario
from repro.core import Figure1Omega, Figure2Omega

DURATION = 300.0


@pytest.mark.parametrize("max_gap", [1, 2, 4, 8, 16])
def test_e2_gap_sweep(benchmark, max_gap):
    scenario = IntermittentRotatingStarScenario(
        n=7, t=3, center=2, seed=2000 + max_gap, max_gap=max_gap
    )

    def run():
        return run_omega_experiment(scenario, Figure2Omega, DURATION, seed=2000 + max_gap)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, [result], f"E2: Figure 2 under A with D={max_gap}")
    assert result.stabilized and result.leader_is_correct


def test_e2_ablation_figure1_loses_the_center_guarantee(benchmark):
    """Without the window test the centre of an intermittent star keeps being
    charged; with it (Figure 2) its level freezes near D."""
    scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=2100)

    def run():
        return {
            "figure1": center_suspicion_metric(
                scenario, Figure1Omega, "susp_level", 700.0, seed=2100
            ),
            "figure2": center_suspicion_metric(
                scenario, Figure2Omega, "susp_level", 700.0, seed=2100
            ),
        }

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["center_levels"] = metrics
    print(f"\nE2 ablation — centre suspicion level (mid, end): {metrics}")
    assert metrics["figure2"]["end"] <= scenario.max_gap + 2
    assert metrics["figure1"]["end"] > metrics["figure2"]["end"]
