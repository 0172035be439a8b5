"""E6 — coverage comparison against the single-assumption baselines.

For each scenario designed around one assumption, runs the paper's Figure 3
algorithm and the three baselines and regenerates:

* stabilisation time, leader changes (total and late) and message cost;
* the suspicion metric of the designated source (star centre), whose unbounded
  growth is the signature of a baseline losing its guarantee.
"""

import pytest

from _harness import center_suspicion_metric, record
from repro.analysis import run_omega_experiment
from repro.assumptions import (
    MessagePatternScenario,
    RotatingPersecutionScenario,
    StrictTSourceScenario,
)
from repro.baselines import QueryResponseOmega, StableLeaderOmega, TimerQuorumOmega
from repro.core import Figure3Omega
from repro.util.tables import format_table

ALGORITHMS = [Figure3Omega, StableLeaderOmega, TimerQuorumOmega, QueryResponseOmega]


def test_e6_persecution_scenario(benchmark):
    """Rotating persecution: only the paper's algorithm stops churning leaders."""
    scenario = RotatingPersecutionScenario(n=5, t=2, center=2, seed=401)

    def run():
        return [
            run_omega_experiment(scenario, algorithm, 900.0, seed=401)
            for algorithm in ALGORITHMS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, results, "E6a: rotating persecution (A holds, nothing else does)")
    figure3, heartbeat, t_source, _mmr = results
    assert figure3.stabilized and figure3.late_leader_changes == 0
    assert heartbeat.late_leader_changes > figure3.late_leader_changes
    assert t_source.late_leader_changes > figure3.late_leader_changes


@pytest.mark.parametrize(
    "scenario_name,attribute_by_algorithm",
    [
        (
            "harsh-message-pattern",
            [
                (Figure3Omega, "susp_level", False),
                (TimerQuorumOmega, "counters", True),
                (QueryResponseOmega, "counters", False),
            ],
        ),
        (
            "strict-t-source",
            [
                (Figure3Omega, "susp_level", False),
                (TimerQuorumOmega, "counters", False),
                (QueryResponseOmega, "counters", True),
            ],
        ),
    ],
)
def test_e6_center_guarantee(benchmark, scenario_name, attribute_by_algorithm):
    """Whether each algorithm keeps the designated source's suspicion bounded."""
    if scenario_name == "harsh-message-pattern":
        scenario = MessagePatternScenario(n=7, t=3, center=0, seed=6100, harsh=True)
    else:
        scenario = StrictTSourceScenario(n=7, t=3, center=0, seed=6200)

    def run():
        rows = []
        for algorithm, attribute, _expect_growth in attribute_by_algorithm:
            metric = center_suspicion_metric(scenario, algorithm, attribute, 600.0, seed=6100)
            rows.append((algorithm.variant_name, metric))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["algorithm", "center@2/3", "center@end", "growing"],
        [[name, m["mid"], m["end"], "YES" if m["growing"] else "no"] for name, m in rows],
        title=f"E6: suspicion of the designated source under {scenario_name}",
    )
    benchmark.extra_info["rows"] = [[name, m["mid"], m["end"]] for name, m in rows]
    print("\n" + table)
    for (algorithm, _attr, expect_growth), (_name, metric) in zip(
        attribute_by_algorithm, rows
    ):
        if expect_growth:
            assert metric["growing"], f"{algorithm.variant_name} should lose the source"
        else:
            assert not metric["growing"], f"{algorithm.variant_name} should keep the source"
