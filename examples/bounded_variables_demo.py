#!/usr/bin/env python
"""Bounded variables (Section 6): Figure 2 vs Figure 3 side by side.

A process crashes early.  Under Figure 2 its suspicion level — and with it every
timeout — grows for ever, so the whole detector becomes more and more sluggish.
Under Figure 3 every suspicion level stays below B + 1 (Theorem 4), the timeouts
stabilise, and the detector keeps its pace.  This script prints both trajectories.

Run with:  python examples/bounded_variables_demo.py
"""

from repro.analysis import build_system
from repro.assumptions import IntermittentRotatingStarScenario
from repro.core import Figure2Omega, Figure3Omega
from repro.simulation import FaultPlan
from repro.util.tables import format_table

N, T = 5, 2
HORIZON = 600.0
CHECKPOINTS = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0]


def trajectory(algorithm_cls):
    scenario = IntermittentRotatingStarScenario(n=N, t=T, center=2, seed=5, max_gap=3)
    system = build_system(
        scenario, algorithm_cls, seed=5, fault_plan=FaultPlan.crashes({4: 30.0})
    )
    rows = []
    for checkpoint in CHECKPOINTS:
        system.run_until(checkpoint)
        observer = system.shell(0).algorithm
        rows.append(
            [
                checkpoint,
                observer.receiving_round,
                observer.susp_level[4],
                max(observer.susp_level_snapshot().values()),
                observer.current_timeout,
                system.agreed_leader() if system.agreed_leader() is not None else "-",
            ]
        )
    return rows


def main() -> None:
    headers = ["time", "rounds", "level[crashed]", "max level", "timeout", "leader"]
    for algorithm_cls in (Figure2Omega, Figure3Omega):
        rows = trajectory(algorithm_cls)
        print(
            format_table(
                headers,
                rows,
                title=f"{algorithm_cls.variant_name} (process 4 crashes at t=30)",
            )
        )
        print()
    print("Figure 2: the crashed process's level and the timeout grow without bound,")
    print("and round progress slows down accordingly.")
    print("Figure 3: every level stays within B+1, timeouts stabilise, rounds keep pace.")


if __name__ == "__main__":
    main()
