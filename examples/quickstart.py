#!/usr/bin/env python
"""Quickstart: elect an eventual leader under the intermittent rotating t-star.

Five processes, up to two of which may crash, run the paper's bounded-variable
algorithm (Figure 3).  The network is adversarial — every process is slowed down at
random for whole rounds at a time — but process 0 is the centre of an intermittent
rotating t-star, which is enough for a single correct leader to emerge and stay.

Run with:  python examples/quickstart.py
"""

from repro import IntermittentRotatingStarScenario, build_omega_system
from repro.simulation import FaultPlan

N, T = 5, 2
HORIZON = 300.0


def main() -> None:
    scenario = IntermittentRotatingStarScenario(n=N, t=T, center=0, seed=42, max_gap=4)
    crashes = {4: 60.0}  # process 4 crashes after 60 time units
    system = build_omega_system(
        n=N, t=T, scenario=scenario, seed=42, fault_plan=FaultPlan.crashes(crashes)
    )

    print(f"scenario : {scenario.describe()}")
    print(f"crashes  : {crashes}")
    print()
    print(f"{'time':>6} | {'leader elected by each alive process'}")
    for checkpoint in range(20, int(HORIZON) + 1, 20):
        system.run_until(float(checkpoint))
        leaders = system.leaders()
        print(f"{checkpoint:>6} | {leaders}")

    print()
    agreed = system.agreed_leader()
    print(f"final common leader: {agreed}")
    print(f"leader is correct  : {agreed in system.correct_ids()}")
    print(f"messages sent      : {system.stats.total_sent}")
    levels = system.shell(0).algorithm.susp_level_snapshot()
    print(f"suspicion levels at process 0: {levels}")
    print(f"final timeout at process 0   : {system.shell(0).algorithm.current_timeout}")


if __name__ == "__main__":
    main()
