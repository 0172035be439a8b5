#!/usr/bin/env python
"""Replicated log on top of the leader oracle (Theorem 5 in action).

Seven processes run the Omega + consensus stack.  Clients submit commands at
different processes; two processes crash along the way; the intermittent rotating
t-star assumption holds.  Every surviving process ends up with the same totally
ordered log containing every submitted command.

Run with:  python examples/replicated_log_demo.py
"""

from repro import IntermittentRotatingStarScenario
from repro.simulation import FaultPlan
from repro.system_builders import build_consensus_system

N, T = 7, 3
HORIZON = 400.0


def main() -> None:
    scenario = IntermittentRotatingStarScenario(n=N, t=T, center=3, seed=11, max_gap=4)
    crashes = {0: 80.0, 6: 160.0}
    system = build_consensus_system(
        n=N, t=T, scenario=scenario, seed=11, fault_plan=FaultPlan.crashes(crashes)
    )

    # A small banking workload: each process submits a couple of transfers.
    commands = []
    for shell in system.shells:
        for index in range(2):
            command = f"transfer#{shell.pid}-{index}"
            commands.append(command)
            shell.algorithm.submit(command)

    print(f"submitted {len(commands)} commands at {N} processes")
    print(f"crashes: {crashes}")
    print()

    for checkpoint in (100.0, 200.0, 300.0, HORIZON):
        system.run_until(checkpoint)
        lengths = {
            shell.pid: len(shell.algorithm.log.delivered()) for shell in system.alive_shells()
        }
        print(f"t={checkpoint:>5}: delivered log lengths per alive process: {lengths}")

    print()
    reference = None
    for shell in system.correct_shells():
        log = shell.algorithm.log.delivered()
        if reference is None:
            reference = log
            print(f"log at process {shell.pid} ({len(log)} entries): {log}")
        else:
            status = "identical" if log == reference else "DIFFERENT (BUG!)"
            print(f"log at process {shell.pid}: {status}")

    missing = set(commands) - set(reference or [])
    still_pending = {c for c in missing if not c.startswith(("transfer#0", "transfer#6"))}
    print()
    print(f"commands from crashed processes not delivered: {sorted(missing)}")
    print(f"commands from correct processes not delivered: {sorted(still_pending)} (must be empty)")


if __name__ == "__main__":
    main()
