"""E3 — Figure 3: bounded variables and bounded timeouts (Theorems 3-4, Lemma 8).

Regenerates, on long runs with crashes, the maximum suspicion level ever reached,
the empirical bound ``B``, the Lemma-8 spread violations (must be zero) and whether
the timeouts stabilise — side by side with Figure 2, whose levels and timeouts grow
without bound once a process has crashed.
"""

from _harness import record
from repro.analysis import run_omega_experiment
from repro.assumptions import IntermittentRotatingStarScenario
from repro.core import Figure2Omega, Figure3Omega
from repro.simulation import FaultPlan
from repro.util.tables import format_table

DURATION = 600.0


def test_e3_bounded_variables_figure3(benchmark):
    scenario = IntermittentRotatingStarScenario(n=7, t=3, center=6, seed=3000, max_gap=4)
    crashes = FaultPlan.crashes({0: 25.0, 1: 50.0})

    def run():
        return run_omega_experiment(
            scenario, Figure3Omega, DURATION, seed=3000, fault_plan=crashes
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(benchmark, [result], "E3: Figure 3, two crashes, long run")
    audit = result.bounds
    print(
        f"max level ever={audit.max_level_ever}  B={audit.bound_b}  "
        f"Theorem4={audit.theorem4_holds}  Lemma8 violations={audit.lemma8_violations}  "
        f"timeouts stabilised={audit.timeouts_stabilized}"
    )
    assert audit.theorem4_holds
    assert audit.lemma8_violations == 0
    assert audit.timeouts_stabilized
    assert result.stabilized


def test_e3_figure2_vs_figure3_timeouts_and_pace(benchmark):
    scenario = IntermittentRotatingStarScenario(n=5, t=2, center=2, seed=3100, max_gap=3)
    crashes = FaultPlan.crashes({4: 30.0})

    def run():
        fig2 = run_omega_experiment(
            scenario, Figure2Omega, DURATION, seed=3100, fault_plan=crashes
        )
        fig3 = run_omega_experiment(
            scenario, Figure3Omega, DURATION, seed=3100, fault_plan=crashes
        )
        return fig2, fig3

    fig2, fig3 = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            result.algorithm,
            result.bounds.max_level_ever,
            max(result.bounds.final_timeouts.values()),
            result.rounds_completed,
            "yes" if result.bounds.timeouts_stabilized else "NO",
        ]
        for result in (fig2, fig3)
    ]
    table = format_table(
        ["algorithm", "max_level", "final_timeout", "rounds", "timeouts_stable"],
        rows,
        title="E3: effect of the bounded variables (one crashed process)",
    )
    benchmark.extra_info["rows"] = rows
    print("\n" + table)
    assert fig3.bounds.max_level_ever < fig2.bounds.max_level_ever
    assert max(fig3.bounds.final_timeouts.values()) < max(fig2.bounds.final_timeouts.values())
    assert fig3.rounds_completed > fig2.rounds_completed
