"""E4 — the intermittent rotating t-star generalises the earlier assumptions.

One row per special case of Section 3 (eventual t-source, t-moving source, message
pattern, combined, A0, A): the same Figure 3 algorithm must elect a stable correct
leader under each of them.
"""

from _harness import record
from repro.analysis import run_omega_experiment
from repro.assumptions import special_case_scenarios
from repro.core import Figure3Omega

DURATION = 300.0
N, T, CENTER, SEED = 7, 3, 2, 4000


def test_e4_all_special_cases(benchmark):
    scenarios = special_case_scenarios(N, T, center=CENTER, seed=SEED)

    def run():
        return [
            run_omega_experiment(scenario, Figure3Omega, DURATION, seed=SEED)
            for scenario in scenarios
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, results, "E4: Figure 3 under every special-case assumption")
    for result in results:
        assert result.stabilized and result.leader_is_correct, result.scenario
        assert result.late_leader_changes == 0, result.scenario
